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

// Algorithm 1's constants, as the paper runs it (appendix): p disjoint
// subsamples per ladder size, the bounds c₁ on the relative deviation Δᵢ and
// c₂ on the relative spread σᵢ, the closeness threshold c₃ entering πᵢ, and
// ρ, the least πₖ accepted at the largest size. ξ's intervals and the true
// ones are taken at estimator.ConfidenceLevel, the level the engine serves.
const (
	P   = 100
	c1  = 0.2
	c2  = 0.2
	c3  = 0.5
	rho = 0.95
)

// Floors on the ladder's largest size b₃, in rows per subsample.
const (
	// planFloor: a sample whose own ladder tops out under 32 rows (under
	// 6,400 rows at p = P) is not diagnosed; its answers carry undiagnosed
	// error bars.
	planFloor = 32
	// filterFloor: a filter that leaves too few rows for b₃ ≥ 16 (under
	// 3,200 at p = P) makes the verdict CauseTooFewRows.
	filterFloor = 16
	// figureFloor: the paper figures diagnose any sample that fills rungs of
	// 1, 2 and 4 rows.
	figureFloor = 4
)

// ladder is the paper's k = 3 ladder in the ratio 1:2:4 (its 50, 100 and
// 200 MB rungs), sized so that p disjoint subsamples of the largest size use
// half of rows; nil when that size is under floor.
func ladder(rows, p, floor int) []int {
	b3 := rows / (2 * p)
	if b3 < floor {
		return nil
	}
	return []int{b3 / 4, b3 / 2, b3}
}

// Ladder returns the subsample sizes Algorithm 1 runs at, p = P, for a query
// over a sample of sampleRows rows of which filteredRows reach the aggregate
// (sampleRows when nothing filters them out), and whether the query is
// diagnosed at all:
//
//   - a sample under 6,400 rows is not diagnosed (nil, false);
//   - the sample's own ladder, sampleRows/2P at the top, is kept while P
//     subsamples of its largest size fit in the filtered rows — while at
//     least half the sample survives;
//   - otherwise the ladder shrinks to filteredRows/2P at the top, and under
//     3,200 filtered rows there is none (nil, true): CauseTooFewRows.
func Ladder(sampleRows, filteredRows int) (sizes []int, diagnosed bool) {
	planned := ladder(sampleRows, P, planFloor)
	switch {
	case planned == nil:
		return nil, false
	case planned[len(planned)-1]*P <= filteredRows:
		return planned, true
	}
	return ladder(filteredRows, P, filterFloor), true
}

// MinFilteredRows is the fewest filtered rows Ladder finds a ladder in on a
// sample it diagnoses. Under it the verdict is TooFewRows.
const MinFilteredRows = 2 * P * filterFloor

// TooFewRows is the verdict on an aggregate over too few filtered rows for
// Ladder: CauseTooFewRows, with nothing run.
func TooFewRows() *Result {
	return &Result{Cause: CauseTooFewRows, Reason: "too few rows after filtering for a diagnosis"}
}

// Config is one run of Algorithm 1: its ladder and p, which the paper
// figures vary, and how the run is carried out.
type Config struct {
	// SubsampleSizes is the increasing ladder b₁ < … < b_k.
	SubsampleSizes []int
	// P is the number of disjoint subsamples drawn at each size.
	P int
	// Workers bounds the parallelism of the per-size subsample queries:
	// at each ladder size the P (truth + ξ) evaluations fan out across at
	// most Workers goroutines. <= 1 runs serially. Every subsample owns
	// its own RNG stream, so the verdict and every per-size statistic are
	// identical at any worker count.
	Workers int

	// noShuffle partitions the sample in the order given instead of
	// re-shuffling it first. Only this package's tests set it, to place
	// rows in chosen subsamples.
	noShuffle bool
}

func (c Config) workers() int {
	if c.Workers <= 1 {
		return 1
	}
	return c.Workers
}

// DefaultConfig returns Algorithm 1 with p subsamples per size on a sample
// of n rows that all reach the aggregate, at the paper figures' floor: the
// ladder is nil, and Run fails validation, when the largest size would hold
// fewer than 4 rows.
func DefaultConfig(n, p int) Config {
	return Config{SubsampleSizes: ladder(n, p, figureFloor), P: p}
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

// Cause says why a diagnosis rejected: the first failing condition the
// ladder met, in the order it looks (largest rung first), or what kept the
// ladder from running at all.
type Cause int

// Reject causes. CauseNone is an accept.
const (
	CauseNone Cause = iota
	// CauseNotApplicable: ξ does not cover the query.
	CauseNotApplicable
	// CauseTooFewRows: the filtered sample cannot supply p disjoint
	// subsamples of a size worth diagnosing (decided by the caller, see
	// Ladder).
	CauseTooFewRows
	// CauseEstimatorFailed: ξ returned an error on a subsample.
	CauseEstimatorFailed
	// CauseDegenerateTruth: Δ is undefined at some size — no usable true
	// half-width, or ξ's widths are not numbers.
	CauseDegenerateTruth
	// CauseDelta: the average deviation Δ neither shrank from one size to
	// the next nor sits under c₁.
	CauseDelta
	// CauseSigma: the spread σ neither shrank nor sits under c₂.
	CauseSigma
	// CausePi: fewer than ρ of ξ's intervals at the largest size are close
	// to the truth.
	CausePi
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return ""
	case CauseNotApplicable:
		return "not_applicable"
	case CauseTooFewRows:
		return "too_few_rows"
	case CauseEstimatorFailed:
		return "estimator_failed"
	case CauseDegenerateTruth:
		return "degenerate_truth"
	case CauseDelta:
		return "delta"
	case CauseSigma:
		return "sigma"
	case CausePi:
		return "pi"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Result is the diagnostic's verdict plus the evidence it was decided on.
//
// The ladder runs from the largest size down and stops at the first
// condition that fails, so a reject's evidence is partial: PerSize holds
// only the sizes whose p subsamples were all evaluated (none, when the
// largest size's π condition failed early), and RungsRun and DecidedAfter
// say where the ladder stopped. An accept has evaluated everything.
type Result struct {
	// OK reports whether ξ's error estimates can be trusted for this
	// query on this sample.
	OK bool
	// Cause types a rejection (CauseNone when OK).
	Cause Cause
	// Reason explains a rejection ("" when OK).
	Reason string
	// PerSize holds the statistics of the completed sizes, smallest first —
	// a suffix of the ladder.
	PerSize []SizeStats
	// RungsRun counts the sizes ξ was run at, the deciding one included.
	RungsRun int
	// DecidedAfter is how many of the deciding size's p subsamples ξ had
	// been run on when the verdict was settled (p for an accept).
	DecidedAfter int
	// SubsampleQueries is Algorithm 1's cost in evaluations of θ's scale —
	// the quantity the paper's systems optimizations exist to make cheap:
	// one per subsample for the truth and one per subsample ξ was run on.
	SubsampleQueries int
	// XiRuns counts the subsamples ξ was run on, across every size.
	XiRuns int
}

// xiBatch is how many subsamples ξ runs on between two looks at the
// evidence. It is a constant, not a function of Workers, so where the ladder
// stops — and with it every field of Result — is the same at any worker
// count. Six far-off intervals settle the paper's π condition (p = 100,
// ρ = 0.95), so one batch usually does; 16 keeps that many workers busy.
const xiBatch = 16

// near reports whether ξ's half-width w counts towards π against the true
// half-width x. A zero-width truth — every subsample estimate coincides with
// θ(S), common for MIN/MAX over columns with atoms at the extremes — is
// matched only by (numerically) zero-width intervals; an undefined truth is
// matched by nothing.
func (cfg Config) near(w, x float64) bool {
	if x == 0 {
		return w <= 1e-12
	}
	return math.Abs(w-x)/x <= c3
}

// maxFar is the largest number of far-off intervals at the top size that
// still leaves π ≥ ρ reachable: p − ⌈ρp⌉, with the ceiling taken by the
// comparison the verdict itself makes, so the early exit and the full count
// cannot disagree by a rounding.
func (cfg Config) maxFar() int {
	need := 0
	for need <= cfg.P && !(float64(need)/float64(cfg.P) >= rho) {
		need++
	}
	return cfg.P - need
}

// sizeStats summarises one completed size: the true half-width x against
// ξ's p half-widths.
func (cfg Config) sizeStats(b int, x float64, widths []float64) SizeStats {
	var m stats.Moments
	near := 0
	for _, w := range widths {
		m.Add(w)
		if cfg.near(w, x) {
			near++
		}
	}
	st := SizeStats{Size: b, TrueHalfWidth: x, Pi: float64(near) / float64(cfg.P)}
	switch {
	case math.IsNaN(x):
		// Truly uninformative truth at this size.
		st.Delta, st.Sigma, st.Pi = math.NaN(), math.NaN(), math.NaN()
	case x == 0:
		// ξ agrees with a zero-width truth exactly when its intervals are
		// zero-width too; anything wider disagrees.
		if !(m.Mean() <= 1e-12) {
			st.Delta, st.Sigma = math.Inf(1), math.Inf(1)
		}
	default:
		st.Delta = math.Abs(m.Mean()-x) / x
		st.Sigma = m.Stddev() / x
	}
	return st
}

// each runs fn(j) for every j in [lo, hi) on up to cfg.Workers goroutines,
// one contiguous chunk apiece, and returns when all have finished. Once done
// is closed the remaining indices are skipped.
func (cfg Config) each(done <-chan struct{}, lo, hi int, fn func(j int)) {
	chunkOf := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			select {
			case <-done:
				return
			default:
			}
			fn(j)
		}
	}
	w := min(cfg.workers(), hi-lo)
	if w <= 1 {
		chunkOf(lo, hi)
		return
	}
	var wg sync.WaitGroup
	chunk := (hi - lo + w - 1) / w
	for ; lo < hi; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			chunkOf(lo, hi)
		}(lo, min(lo+chunk, hi))
	}
	wg.Wait()
}

// Run executes Algorithm 1: it checks whether the error-estimation
// procedure est can be trusted for query q on the given sample.
//
// The verdict is Algorithm 1's — reject when any condition fails — taken on
// the least evidence that settles it. Sizes run from the largest down. At
// each, θ is evaluated on all P subsamples to fix the true half-width, then
// ξ runs over the subsamples in index order, xiBatch at a time; at the
// largest size the run ends as soon as more intervals are far from the truth
// than π ≥ ρ allows, and after every further size the Δ and σ conditions of
// the pair just completed are checked. Only an accept evaluates everything.
//
// Each batch (and each size's θ pass) fans out across cfg.Workers
// goroutines. Each (size, subsample) pair owns an RNG stream derived from a
// single draw off src, and every decision reads a prefix of the subsamples
// fixed by index, never by which goroutine finished first, so the whole
// Result is bit-identical at any worker count.
//
// theta returns θ(S), q.Eval(values): the true interval's centre. The
// caller holds it — it is the answer's own value — or is still computing it
// beside Run, so Run does not fold it again: it calls theta once, after its
// shuffle, which leaves a fold running beside Run the shuffle's time.
//
// Cancellation is checked before every subsample evaluation, and ξ itself
// is cancelled mid-resampling when it implements estimator.ContextEstimator
// (the bootstrap family does). A cancelled run returns ctx's error; all
// worker goroutines exit before Run returns.
func Run(ctx context.Context, src *rng.Source, values []float64, theta func() float64, q estimator.Query, est estimator.Estimator, cfg Config) (Result, error) {
	if err := cfg.Validate(len(values)); err != nil {
		return Result{}, err
	}
	if !est.AppliesTo(q) {
		return Result{Cause: CauseNotApplicable, Reason: "estimator not applicable"}, nil
	}
	ce, _ := est.(estimator.ContextEstimator)
	// The closed forms return θ on the subsample as their interval's center,
	// out of the fold that gives σ̂ (same bits as q.Eval): the truth comes
	// with ξ and there is no separate θ pass. A fold is too cheap to be worth
	// a look at the evidence every xiBatch of them, so a size is one batch.
	_, oneFold := est.(estimator.ClosedForm)
	batch := xiBatch
	if oneFold {
		batch = cfg.P
	}
	done := ctx.Done()

	s := values
	if !cfg.noShuffle {
		s = sample.Shuffled(src, values)
	}
	// Best available estimate of θ(D).
	t := theta()
	// Base seed for the per-(size, subsample) streams.
	base := src.Uint64()

	k := len(cfg.SubsampleSizes)
	maxFar := cfg.maxFar()
	rungs := make([]SizeStats, k)
	var res Result
	reject := func(cause Cause, format string, args ...any) (Result, error) {
		res.Cause, res.Reason = cause, fmt.Sprintf(format, args...)
		return res, nil
	}
	// θ and ξ's half-width on each subsample. Every size overwrites the
	// entries it reads; a non-nil errs entry ends the run.
	ests := make([]float64, cfg.P)
	widths := make([]float64, cfg.P)
	errs := make([]error, cfg.P)
	for si := k - 1; si >= 0; si-- {
		b := cfg.SubsampleSizes[si]
		subs, err := sample.DisjointSubsamples(s, b, cfg.P)
		if err != nil {
			return Result{}, err
		}
		top := si == k-1
		var x float64 // the true half-width, once ests is complete
		if !oneFold {
			cfg.each(done, 0, cfg.P, func(j int) { ests[j] = q.Eval(subs[j]) })
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			// ests is rewritten by the next size and not read again at this one.
			x = stats.SymmetricHalfWidthInPlace(ests, t, estimator.ConfidenceLevel)
		}
		res.SubsampleQueries += cfg.P // truth: one θ per subsample
		res.RungsRun++
		far := 0
		for lo := 0; lo < cfg.P; lo += batch {
			hi := min(lo+batch, cfg.P)
			cfg.each(done, lo, hi, func(j int) {
				sr := rng.NewWithStream(base, subStream(si, j))
				var iv estimator.Interval
				if ce != nil {
					iv, errs[j] = ce.IntervalContext(ctx, sr, subs[j], q, estimator.ConfidenceLevel)
				} else {
					iv, errs[j] = est.Interval(sr, subs[j], q, estimator.ConfidenceLevel)
				}
				widths[j] = iv.HalfWidth
				if oneFold {
					ests[j] = iv.Center
				}
			})
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			res.SubsampleQueries += hi - lo // ξ costs at least one θ-scale pass per subsample
			res.XiRuns += hi - lo
			res.DecidedAfter = hi
			for _, err := range errs[lo:hi] {
				if err != nil {
					return reject(CauseEstimatorFailed, "estimator failed: %v", err)
				}
			}
			if top && !oneFold {
				for _, w := range widths[lo:hi] {
					if !cfg.near(w, x) {
						far++
					}
				}
				if far > maxFar {
					return reject(CausePi, "π below ρ=%.2f at size %d: %d of first %d far off",
						rho, b, far, hi)
				}
			}
		}
		if oneFold {
			x = stats.SymmetricHalfWidthInPlace(ests, t, estimator.ConfidenceLevel)
		}
		rungs[si] = cfg.sizeStats(b, x, widths)
		res.PerSize = rungs[si:]

		// Acceptance criteria, as far as this size settles them.
		if math.IsNaN(rungs[si].Delta) {
			return reject(CauseDegenerateTruth, "degenerate truth interval at size %d", b)
		}
		if top {
			if pi := rungs[si].Pi; !(pi >= rho) {
				return reject(CausePi, "π=%.3f below ρ=%.2f at size %d", pi, rho, b)
			}
			continue
		}
		// This size completes a pair with the one above it.
		cur, prev := rungs[si+1], rungs[si]
		if !(cur.Delta < prev.Delta || cur.Delta < c1) {
			return reject(CauseDelta,
				"average deviation not improving at size %d (Δ=%.3f, prev %.3f, c1=%.2f)",
				cur.Size, cur.Delta, prev.Delta, c1)
		}
		if !(cur.Sigma < prev.Sigma || cur.Sigma < c2) {
			return reject(CauseSigma,
				"spread not improving at size %d (σ=%.3f, prev %.3f, c2=%.2f)",
				cur.Size, cur.Sigma, prev.Sigma, c2)
		}
	}
	res.OK = true
	return res, nil
}
