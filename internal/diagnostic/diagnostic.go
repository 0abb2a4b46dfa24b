// Package diagnostic implements the error-estimation diagnostic of Kleiner
// et al. (Algorithm 1 in the paper's appendix), generalized — as §4 of the
// paper proposes — to validate any error-estimation procedure ξ, not just
// the bootstrap.
//
// The idea: disjoint partitions of a shuffled random sample are themselves
// mutually independent random samples of the underlying data. The
// diagnostic therefore evaluates ξ against ground truth on a ladder of
// small subsample sizes b₁ < … < b_k — where ground truth is affordable —
// and extrapolates: if the relative deviation Δᵢ and spread σᵢ of ξ's
// intervals shrink (or are already small) as bᵢ grows, and most intervals
// at b_k are close to truth, then ξ is declared trustworthy at the full
// sample size.
package diagnostic

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/stats"
)

// subStream derives the RNG stream id of subsample j at ladder-size index
// si. rng.NewWithStream finalizes the id, so a collision-free combination
// suffices.
func subStream(si, j int) uint64 {
	return uint64(si)<<32 | uint64(uint32(j))
}

// Config carries Algorithm 1's parameters. The paper's experiments use
// p=100, k=3, c1=c2=0.2, c3=0.5 and ρ=0.95, with subsample sizes equivalent
// to 50, 100 and 200 MB of rows.
type Config struct {
	// SubsampleSizes is the increasing ladder b₁ < … < b_k.
	SubsampleSizes []int
	// P is the number of disjoint subsamples drawn at each size.
	P int
	// C1 bounds an acceptable relative deviation Δᵢ.
	C1 float64
	// C2 bounds an acceptable relative spread σᵢ.
	C2 float64
	// C3 is the per-subsample closeness threshold entering πᵢ.
	C3 float64
	// Rho is the minimum acceptable πₖ at the largest subsample size.
	Rho float64
	// Alpha is the confidence level handed to ξ and used for the true
	// intervals.
	Alpha float64
	// Shuffle controls whether Run re-shuffles the sample before
	// partitioning. Leave true unless the caller guarantees the sample
	// is already in random order.
	Shuffle bool
	// Workers bounds the parallelism of the per-size subsample queries:
	// at each ladder size the P (truth + ξ) evaluations fan out across at
	// most Workers goroutines. <= 1 runs serially. Every subsample owns
	// its own RNG stream, so the verdict and every per-size statistic are
	// identical at any worker count.
	Workers int
	// Span, when non-nil, receives the verdict, rejection reason,
	// subsample-query count and per-size ladder statistics as span
	// attributes, and counts the verdict into the span's metrics registry
	// (aqp_diagnostic_verdicts_total). Nil disables telemetry; the
	// verdict is unaffected either way.
	Span *obs.Span
}

func (c Config) workers() int {
	if c.Workers <= 1 {
		return 1
	}
	return c.Workers
}

// DefaultConfig returns the paper's settings scaled to a sample of n rows:
// k=3 sizes in the ratio 1:2:4 (the 50/100/200 MB ladder), sized so that
// p disjoint subsamples of the largest size fit in n.
func DefaultConfig(n int) Config {
	p := 100
	// Largest size uses half the sample: b3 = n/(2p), b2 = b3/2, b1 = b3/4.
	b3 := n / (2 * p)
	if b3 < 4 {
		b3 = 4
	}
	return Config{
		SubsampleSizes: []int{b3 / 4, b3 / 2, b3},
		P:              p,
		C1:             0.2,
		C2:             0.2,
		C3:             0.5,
		Rho:            0.95,
		Alpha:          0.95,
		Shuffle:        true,
	}
}

// Validate reports whether the configuration is internally consistent and
// feasible for a sample of n rows.
func (c Config) Validate(n int) error {
	if len(c.SubsampleSizes) < 2 {
		return fmt.Errorf("diagnostic: need at least 2 subsample sizes, have %d",
			len(c.SubsampleSizes))
	}
	prev := 0
	for _, b := range c.SubsampleSizes {
		if b <= prev {
			return fmt.Errorf("diagnostic: subsample sizes must be strictly increasing, got %v",
				c.SubsampleSizes)
		}
		prev = b
	}
	if c.P < 2 {
		return fmt.Errorf("diagnostic: p must be >= 2, have %d", c.P)
	}
	bk := c.SubsampleSizes[len(c.SubsampleSizes)-1]
	if bk*c.P > n {
		return fmt.Errorf("diagnostic: largest size %d × p %d exceeds sample size %d",
			bk, c.P, n)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("diagnostic: alpha %v outside (0,1)", c.Alpha)
	}
	if c.Rho < 0 || c.Rho > 1 {
		return fmt.Errorf("diagnostic: rho %v outside [0,1]", c.Rho)
	}
	return nil
}

// SizeStats records the diagnostic's summary statistics at one subsample
// size (the Δᵢ, σᵢ, πᵢ of Algorithm 1).
type SizeStats struct {
	Size int
	// TrueHalfWidth is xᵢ: the half-width of the smallest symmetric
	// interval around θ(S) covering α·p of the subsample estimates.
	TrueHalfWidth float64
	// Delta is Δᵢ = |mean(x̂ᵢ) − xᵢ| / xᵢ.
	Delta float64
	// Sigma is σᵢ = stddev(x̂ᵢ) / xᵢ.
	Sigma float64
	// Pi is πᵢ: the proportion of subsample estimates within c₃·xᵢ of xᵢ.
	Pi float64
}

// Result is the diagnostic's verdict plus its per-size evidence.
type Result struct {
	// OK reports whether ξ's error estimates can be trusted for this
	// query on this sample.
	OK bool
	// Reason explains a rejection ("" when OK).
	Reason string
	// PerSize holds the ladder statistics, smallest size first.
	PerSize []SizeStats
	// SubsampleQueries counts how many times θ was evaluated — the
	// quantity the paper's systems optimizations exist to make cheap.
	SubsampleQueries int
}

// Run executes Algorithm 1: it checks whether the error-estimation
// procedure est can be trusted for query q on the given sample.
//
// At each ladder size the P subsample evaluations (the true estimate θ on
// the subsample plus ξ's interval) fan out across cfg.Workers goroutines.
// Each (size, subsample) pair owns an RNG stream derived from a single
// draw off src, so the verdict and every per-size statistic are
// bit-identical at any worker count.
//
// Cancellation is checked before every subsample evaluation, and ξ itself
// is cancelled mid-resampling when it implements estimator.ContextEstimator
// (the bootstrap family does). A cancelled run returns ctx's error; all
// worker goroutines exit before Run returns.
func Run(ctx context.Context, src *rng.Source, values []float64, q estimator.Query, est estimator.Estimator, cfg Config) (Result, error) {
	res, err := run(ctx, src, values, q, est, cfg)
	if err == nil {
		cfg.record(&res)
	}
	return res, err
}

// record publishes the verdict and ladder evidence to the configured span
// and metrics registry.
func (cfg Config) record(res *Result) {
	s := cfg.Span
	if s == nil {
		return
	}
	verdict := "accept"
	if !res.OK {
		verdict = "reject"
	}
	s.SetAttr("verdict", verdict)
	if res.Reason != "" {
		s.SetAttr("reason", res.Reason)
	}
	s.AddInt("subsample_queries", int64(res.SubsampleQueries))
	for _, st := range res.PerSize {
		s.SetAttr(fmt.Sprintf("delta_b%d", st.Size), st.Delta)
		s.SetAttr(fmt.Sprintf("sigma_b%d", st.Size), st.Sigma)
		s.SetAttr(fmt.Sprintf("pi_b%d", st.Size), st.Pi)
	}
	s.Metrics().Counter("aqp_diagnostic_verdicts_total",
		"Diagnostic verdicts, by outcome.", "verdict", verdict).Inc()
}

func run(ctx context.Context, src *rng.Source, values []float64, q estimator.Query, est estimator.Estimator, cfg Config) (Result, error) {
	if err := cfg.Validate(len(values)); err != nil {
		return Result{}, err
	}
	if !est.AppliesTo(q) {
		return Result{OK: false, Reason: "estimator not applicable"}, nil
	}
	ce, _ := est.(estimator.ContextEstimator)
	done := ctx.Done()

	s := values
	if cfg.Shuffle {
		s = sample.Shuffled(src, values)
	}
	// Best available estimate of θ(D).
	t := q.Eval(s)
	// Base seed for the per-(size, subsample) streams.
	base := src.Uint64()

	res := Result{PerSize: make([]SizeStats, 0, len(cfg.SubsampleSizes))}
	// θ and ξ on each subsample, fanned across the worker pool. ests is the
	// truth ladder; widths is ξ's per-subsample half-width. Every size
	// overwrites all P entries, and a non-nil errs entry ends the run.
	ests := make([]float64, cfg.P)
	widths := make([]float64, cfg.P)
	errs := make([]error, cfg.P)
	for si, b := range cfg.SubsampleSizes {
		subs, err := sample.DisjointSubsamples(s, b, cfg.P)
		if err != nil {
			return Result{}, err
		}
		evalRange := func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				sub := subs[j]
				ests[j] = q.Eval(sub)
				sr := rng.NewWithStream(base, subStream(si, j))
				var iv estimator.Interval
				var err error
				if ce != nil {
					iv, err = ce.IntervalContext(ctx, sr, sub, q, cfg.Alpha)
				} else {
					iv, err = est.Interval(sr, sub, q, cfg.Alpha)
				}
				if err != nil {
					errs[j] = err
					continue
				}
				widths[j] = iv.HalfWidth
			}
		}
		w := cfg.workers()
		if w > cfg.P {
			w = cfg.P
		}
		if w <= 1 {
			evalRange(0, cfg.P)
		} else {
			var wg sync.WaitGroup
			chunk := (cfg.P + w - 1) / w
			for wi := 0; wi < w; wi++ {
				lo, hi := wi*chunk, (wi+1)*chunk
				if hi > cfg.P {
					hi = cfg.P
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					evalRange(lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for _, err := range errs {
			if err != nil {
				return Result{OK: false, Reason: "estimator failed: " + err.Error()}, nil
			}
		}
		res.SubsampleQueries += cfg.P // truth: one θ per subsample
		// ests is rewritten by the next size and not read again at this one.
		x := stats.SymmetricHalfWidthInPlace(ests, t, cfg.Alpha)
		res.SubsampleQueries += cfg.P // ξ costs at least one θ-scale pass per subsample

		st := SizeStats{Size: b, TrueHalfWidth: x}
		switch {
		case math.IsNaN(x):
			// Truly uninformative truth at this size.
			st.Delta = math.NaN()
			st.Sigma = math.NaN()
			st.Pi = math.NaN()
		case x == 0:
			// Zero-width truth: every subsample estimate coincides with
			// θ(S) — common for MIN/MAX over columns with atoms at the
			// extremes. ξ agrees exactly when its intervals are also
			// (numerically) zero-width; anything wider disagrees.
			var m stats.Moments
			close := 0
			for _, w := range widths {
				m.Add(w)
				if w <= 1e-12 {
					close++
				}
			}
			if m.Mean() <= 1e-12 {
				st.Delta, st.Sigma = 0, 0
			} else {
				st.Delta, st.Sigma = math.Inf(1), math.Inf(1)
			}
			st.Pi = float64(close) / float64(cfg.P)
		default:
			var m stats.Moments
			close := 0
			for _, w := range widths {
				m.Add(w)
				if math.Abs(w-x)/x <= cfg.C3 {
					close++
				}
			}
			st.Delta = math.Abs(m.Mean()-x) / x
			st.Sigma = m.Stddev() / x
			st.Pi = float64(close) / float64(cfg.P)
		}
		res.PerSize = append(res.PerSize, st)
	}

	// Acceptance criteria.
	for i := 1; i < len(res.PerSize); i++ {
		cur, prev := res.PerSize[i], res.PerSize[i-1]
		if math.IsNaN(cur.Delta) || math.IsNaN(prev.Delta) {
			res.Reason = fmt.Sprintf("degenerate truth interval at size %d", cur.Size)
			return res, nil
		}
		if !(cur.Delta < prev.Delta || cur.Delta < cfg.C1) {
			res.Reason = fmt.Sprintf(
				"average deviation not improving at size %d (Δ=%.3f, prev %.3f, c1=%.2f)",
				cur.Size, cur.Delta, prev.Delta, cfg.C1)
			return res, nil
		}
		if !(cur.Sigma < prev.Sigma || cur.Sigma < cfg.C2) {
			res.Reason = fmt.Sprintf(
				"spread not improving at size %d (σ=%.3f, prev %.3f, c2=%.2f)",
				cur.Size, cur.Sigma, prev.Sigma, cfg.C2)
			return res, nil
		}
	}
	last := res.PerSize[len(res.PerSize)-1]
	if !(last.Pi >= cfg.Rho) {
		res.Reason = fmt.Sprintf(
			"final proportion acceptable π=%.3f below ρ=%.2f at size %d",
			last.Pi, cfg.Rho, last.Size)
		return res, nil
	}
	res.OK = true
	return res, nil
}
