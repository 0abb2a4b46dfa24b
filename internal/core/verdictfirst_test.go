package core

import (
	"context"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
)

// verdictTable is T(g, p, City): g Gaussian (the diagnostic accepts its
// percentiles), p Pareto with a tail index near 1 (it rejects MAX and AVG).
func verdictTable() *table.Table {
	src := rng.New(4242)
	n := 60000
	g := make(table.Float64Col, n)
	p := make(table.Float64Col, n)
	city := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA"}
	for i := 0; i < n; i++ {
		g[i] = 60 + 20*src.NormFloat64()
		p[i] = src.Pareto(1, 1.05)
		city[i] = names[src.Intn(len(names))]
	}
	return table.MustNew(table.Schema{
		{Name: "g", Type: table.Float64},
		{Name: "p", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, g, p, city)
}

// verdictEngine registers verdictTable and builds one uniform sample.
func verdictEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	return verdictEngineOn(t, cfg, verdictTable())
}

func verdictEngineOn(t *testing.T, cfg Config, tbl *table.Table) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.RegisterTable("T", tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("T", 24000); err != nil {
		t.Fatal(err)
	}
	return e
}

// verdictQueries mixes the cases verdict-first separates: bootstrap
// aggregates the diagnostic accepts, bootstrap aggregates it rejects, both
// in one query, the same under GROUP BY, and a closed-form-only query.
var verdictQueries = []string{
	"SELECT PERCENTILE(g, 0.5) FROM T",
	"SELECT MAX(p) FROM T WHERE p > 0",
	"SELECT PERCENTILE(g, 0.5), MAX(p), AVG(g) FROM T",
	"SELECT MAX(p), PERCENTILE(g, 0.9), AVG(g) FROM T WHERE g > 50",
	"SELECT City, MAX(p), PERCENTILE(g, 0.5) FROM T GROUP BY City",
	"SELECT AVG(p), AVG(g) FROM T",
}

// answerHashes is what the answer goldens pin. answers folds every estimate,
// interval, technique and verdict; full folds the diagnostic's cause and reason
// text as well, so it moves when a reject is reworded or found by another condition
// and answers does not.
type answerHashes struct{ full, answers uint64 }

type answerHasher struct{ full, answers hash.Hash64 }

func newAnswerHasher() answerHasher { return answerHasher{fnv.New64a(), fnv.New64a()} }

func (h answerHasher) sum() answerHashes {
	return answerHashes{full: h.full.Sum64(), answers: h.answers.Sum64()}
}

func (h answerHasher) add(ans *Answer) {
	both := io.MultiWriter(h.full, h.answers)
	u64 := func(v uint64) { hashU64(h.full, v); hashU64(h.answers, v) }
	for _, g := range ans.Groups {
		both.Write([]byte(g.Key))
		for _, a := range g.Aggs {
			both.Write([]byte(a.Name))
			for _, f := range []float64{a.Estimate, a.ErrorBar.Lo(), a.ErrorBar.Hi()} {
				u64(math.Float64bits(f))
			}
			both.Write([]byte(a.Technique))
			h.full.Write([]byte(a.DiagnosticCause))
			h.full.Write([]byte(a.DiagnosticReason))
			flags := uint64(0)
			if a.DiagnosticOK {
				flags |= 1
			}
			if a.Exact {
				flags |= 2
			}
			u64(flags)
		}
	}
}

// verdictGolden is the hash pair of verdictQueries on verdictEngine at Seed 7,
// BootstrapK 40. answers is the value the commit before the decide-first
// diagnostic produces: no estimate, interval, technique or verdict moved. full
// was re-recorded with that change on purpose — a reject now names the
// condition the ladder met first, largest rung first. Both were re-recorded
// when stats.Moments became shifted sums and the diagnostic took θ(S) from
// its caller: the AVG estimates and intervals moved in their last bits
// (relative change under 1e-14), and no technique, verdict or cause moved.
var verdictGolden = answerHashes{full: 0x7814bea7f1605cac, answers: 0xd1eb03a65c49d867}

// TestVerdictFirstAnswersGolden pins every estimate, interval, technique and
// verdict of the mixed query set to the hash recorded from the commit before
// verdict-first error estimation (PR 13), at 1, 2 and 8 workers: skipping the
// bootstrap of rejected aggregates changes no answer.
func TestVerdictFirstAnswersGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		e := verdictEngine(t, Config{Seed: 7, Workers: workers, BootstrapK: 40})
		solo := newAnswerHasher()
		var acceptedBoot, rejectedBoot int
		for _, q := range verdictQueries {
			ans, err := e.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			solo.add(ans)
			for _, g := range ans.Groups {
				for _, a := range g.Aggs {
					switch {
					case a.Technique == "bootstrap" && a.DiagnosticOK:
						acceptedBoot++
					case a.Exact && !a.DiagnosticOK:
						rejectedBoot++
					}
				}
			}
		}
		if acceptedBoot == 0 || rejectedBoot == 0 {
			t.Fatalf("query set lost its coverage: %d accepted bootstrap aggregates, %d rejected",
				acceptedBoot, rejectedBoot)
		}
		if got := solo.sum(); got != verdictGolden {
			t.Errorf("Workers=%d solo: answer hashes %#x, want %#x", workers, got, verdictGolden)
		}
	}
}

// TestVerdictFirstOffWithoutFallback: an engine that does not replace
// rejected aggregates must keep estimating their error — the rejected
// aggregate still carries its bootstrap interval and the full K ran.
func TestVerdictFirstOffWithoutFallback(t *testing.T) {
	const k = 40
	e := verdictEngine(t, Config{Seed: 7, Workers: 2, BootstrapK: k, noFallback: true})
	ans, err := e.Run(context.Background(), "SELECT MAX(p) FROM T WHERE p > 0")
	if err != nil {
		t.Fatal(err)
	}
	a := ans.Groups[0].Aggs[0]
	if a.DiagnosticOK {
		t.Fatal("MAX over the Pareto column was accepted; the test needs a rejection")
	}
	if a.Technique != "bootstrap" || a.Exact || math.IsNaN(a.ErrorBar.HalfWidth) || a.ErrorBar.HalfWidth <= 0 {
		t.Errorf("rejected aggregate lost its bootstrap error bar: %+v", a)
	}
	if ans.BootstrapKUsed != k {
		t.Errorf("BootstrapKUsed = %d, want %d", ans.BootstrapKUsed, k)
	}
	if want := int64(k) * int64(ans.SampleRows); ans.Counters.WeightDraws != want {
		t.Errorf("WeightDraws = %d, want %d", ans.Counters.WeightDraws, want)
	}
}

// TestVerdictFirstSkipsRejectedWork: with fallback on, a query whose every
// aggregate is rejected runs no bootstrap at all — no resample draws, no
// K used, no bootstrap-kernel span — and a mixed query pays for exactly the
// aggregates it keeps.
func TestVerdictFirstSkipsRejectedWork(t *testing.T) {
	const k = 40
	tr := obs.NewTracer(obs.Config{})
	on := verdictEngine(t, Config{Seed: 7, Workers: 2, BootstrapK: k, Obs: tr})
	off := verdictEngine(t, Config{Seed: 7, Workers: 2, BootstrapK: k, noFallback: true})

	ans, err := on.Run(context.Background(), "SELECT MAX(p) FROM T WHERE p > 0")
	if err != nil {
		t.Fatal(err)
	}
	if a := ans.Groups[0].Aggs[0]; a.DiagnosticOK || !a.Exact {
		t.Fatalf("want a rejected aggregate answered exactly, got %+v", a)
	}
	if ans.BootstrapKUsed != 0 || ans.Counters.WeightDraws != 0 {
		t.Errorf("fully rejected query still bootstrapped: K used %d, weight draws %d",
			ans.BootstrapKUsed, ans.Counters.WeightDraws)
	}
	snap, ok := tr.Last()
	if !ok {
		t.Fatal("no trace")
	}
	for _, s := range snap.Spans {
		if s.Stage == obs.StageBootstrap {
			t.Errorf("fully rejected query has a %s span (%.3f ms)", s.Stage, s.Ms)
		}
	}

	// Mixed: MAX(p) is rejected, PERCENTILE(g) and AVG(g) are kept. AVG's
	// bar is its closed form, so neither engine resamples it. Each of the
	// other two costs K draws per filtered row whatever its verdict, so the
	// engine that skips must report exactly 1/2 of the other's draws.
	q := "SELECT PERCENTILE(g, 0.5), MAX(p), AVG(g) FROM T"
	a, err := on.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var rejected int
	for _, agg := range b.Groups[0].Aggs {
		if !agg.DiagnosticOK {
			rejected++
		}
	}
	if rejected != 1 {
		t.Fatalf("want exactly MAX(p) rejected, got %d rejections", rejected)
	}
	rows := b.Counters.RowsAfterFilter
	if want := 2 * int64(k) * rows; b.Counters.WeightDraws != want {
		t.Errorf("without verdict-first: WeightDraws = %d, want 2·K·rows = %d", b.Counters.WeightDraws, want)
	}
	if want := int64(k) * rows; a.Counters.WeightDraws != want {
		t.Errorf("verdict-first: WeightDraws = %d, want K·rows = %d", a.Counters.WeightDraws, want)
	}
	if a.BootstrapKUsed != k {
		t.Errorf("mixed query BootstrapKUsed = %d, want %d", a.BootstrapKUsed, k)
	}
}
