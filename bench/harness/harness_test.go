package harness

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/workload"
)

// TestMain lets the test binary stand in for aqpload: re-executed with
// "serve" as its first argument it is the serving child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(ServeMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestClassSharesAreExact(t *testing.T) {
	for _, w := range Workloads() {
		shares := make([]float64, len(w.Shares))
		for i, cs := range w.Shares {
			shares[i] = cs.Share
		}
		want := apportion(w.N, shares)
		got := map[string]int{}
		slots := w.Slots(7, w.N)
		for _, s := range slots {
			got[s.Class]++
		}
		if len(slots) != w.N {
			t.Errorf("%s: %d slots, want %d", w.Name, len(slots), w.N)
		}
		for i, cs := range w.Shares {
			if got[cs.Class] != want[i] {
				t.Errorf("%s: class %s has %d slots, want %d (share %.4f of %d)",
					w.Name, cs.Class, got[cs.Class], want[i], cs.Share, w.N)
			}
			if exact := cs.Share * float64(w.N); math.Abs(float64(want[i])-exact) >= 1 {
				t.Errorf("%s: class %s apportioned %d, exact share is %.2f", w.Name, cs.Class, want[i], exact)
			}
		}
		if w.N < 240 || w.Passes < 3 || w.Passes%2 == 0 {
			t.Errorf("%s: N=%d P=%d, want N >= 240 and P odd >= 3", w.Name, w.N, w.Passes)
		}
		// The tail percentile needs at least 12 slots beyond it.
		if beyond := w.N - 1 - rank(w.N, 0.95); beyond < 12 {
			t.Errorf("%s: only %d slots beyond p95", w.Name, beyond)
		}
	}
}

func TestApportion(t *testing.T) {
	// The Facebook shares over 240 slots, worked by hand.
	shares := []float64{0.3335, 0.2467, 0.1220, 0.1011, 0.0287, 0.1101, 0.0193, 0.0193, 0.0193}
	want := []int{80, 59, 29, 24, 7, 26, 5, 5, 5}
	if got := apportion(240, shares); !reflect.DeepEqual(got, want) {
		t.Errorf("apportion(240, facebook) = %v, want %v", got, want)
	}
	if got := apportion(3, []float64{1, 1}); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Errorf("ties go to the lower index: got %v", got)
	}
}

func sqlTexts(w *Workload, slots []Slot, pass int) []string {
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = w.QueryFor(s, pass).SQL()
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range Workloads() {
		a, b := w.Slots(3, w.N), w.Slots(3, w.N)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different slots", w.Name)
		}
		if reflect.DeepEqual(sqlTexts(w, a, 1), sqlTexts(w, w.Slots(4, w.N), 1)) {
			t.Errorf("%s: different seeds gave the same query texts", w.Name)
		}
	}
	// Fresh slots change their literal every pass; fixed slots never do.
	w := WorkloadByName("dashboard_repeat")
	for _, s := range w.Slots(3, w.N) {
		if changed := w.QueryFor(s, 1).SQL() != w.QueryFor(s, 2).SQL(); changed != s.Fresh {
			t.Fatalf("slot %d: fresh=%v but text changed across passes=%v", s.ID, s.Fresh, changed)
		}
	}

	dir := t.TempDir()
	var stores [2][]byte
	for i := range stores {
		path := filepath.Join(dir, "s.store")
		if err := table.WriteStore(path, GenData(QuickScale.Rows).Table()); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = raw
	}
	if !reflect.DeepEqual(stores[0], stores[1]) {
		t.Error("two generations of the store differ byte for byte")
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.95, 50}, {1, 50},
	} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("Median of four = %v, want the lower middle 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing should be NaN")
	}
	// 240 slots: p95 is the 228th value, 12 beyond it.
	if r := rank(240, 0.95); r != 227 {
		t.Errorf("rank(240, 0.95) = %d, want 227", r)
	}
}

func TestLocalSpread(t *testing.T) {
	flat := make([]float64, 100)
	step := make([]float64, 100)
	for i := range flat {
		flat[i] = 10 + 0.01*float64(i)
		step[i] = 5
		if i >= 50 {
			step[i] = 150
		}
	}
	if got := localSpread(flat, 0.5); got > 0.01 {
		t.Errorf("a gentle ramp has local spread %v at the median", got)
	}
	if got := localSpread(step, 0.5); got < 10 {
		t.Errorf("a 5 ms / 150 ms step at the median has local spread %v", got)
	}
	if got := localSpread(step, 0.95); got != 0 {
		t.Errorf("the plateau above the step has local spread %v at p95", got)
	}
}

func TestPassesScaleWithSeconds(t *testing.T) {
	w := &Workload{Passes: 5}
	for _, c := range []struct{ seconds, want int }{{20, 5}, {1, 3}, {10, 3}, {40, 9}, {60, 15}} {
		if got := w.PassesFor(c.seconds); got != c.want {
			t.Errorf("PassesFor(%d) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// TestOracleMatchesRunExact holds the plain-loop oracle against the engine's
// exact path on a 10k-row table for every aggregate (UDFs included) under
// every predicate and grouping shape the workloads use.
func TestOracleMatchesRunExact(t *testing.T) {
	data := GenData(10_000)
	eng := core.New(core.Config{Seed: 1, Workers: 2})
	if err := eng.RegisterTable(TableName, data.Table()); err != nil {
		t.Fatal(err)
	}
	aggs := []string{"MIN", "MAX", "COUNT", "AVG", "SUM", "VARIANCE", "STDEV", "PERCENTILE"}
	for _, u := range workload.UDFLibrary {
		eng.RegisterUDF(u.Name, u.Fn)
		aggs = append(aggs, u.Name)
	}
	preds := []Pred{
		{},
		{City: "LA"},
		{HasDay: true, DayLo: 30, DayHi: 38},
		{City: "NYC", UniformLt: 1234},
		{HasDay: true, DayLo: 0, DayHi: 8, UniformLt: 500}, // a cache-buster that does filter
	}
	for ai, agg := range aggs {
		for pi, pred := range preds {
			for _, group := range []string{"", "City", "Device"} {
				q := Query{Agg: agg, Col: Measures[(ai+pi)%len(Measures)].Name, Pct: percentiles[pi%len(percentiles)],
					Pred: pred, GroupBy: group}
				if group == "City" && pred.City != "" {
					continue
				}
				truth, err := data.Truth(q)
				if err != nil {
					t.Fatal(err)
				}
				ans, err := eng.RunExact(context.Background(), q.SQL())
				if err != nil {
					t.Fatalf("%s: %v", q.SQL(), err)
				}
				if len(ans.Groups) != len(truth) {
					t.Errorf("%s: engine has %d groups, oracle %d", q.SQL(), len(ans.Groups), len(truth))
				}
				for _, g := range ans.Groups {
					want, ok := truth[g.Key]
					got := g.Aggs[0].Estimate
					if !ok || math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Errorf("%s group %q: engine %v, oracle %v", q.SQL(), g.Key, got, want)
					}
				}
			}
		}
	}
}

// TestQuickSmoke drives every workload's 10x smaller run end to end through
// a real child process (this test binary in serve mode) and both sockets,
// and the traced run for the cached and an uncached workload.
func TestQuickSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Seed: 5, Seconds: 1, Quick: true, OutDir: t.TempDir(), Exe: exe}
	for _, w := range Workloads() {
		cfg.Workload = w
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed != 0 || len(rep.Problems) > 0 {
			t.Errorf("%s: %d failed, problems %v", w.Name, rep.Failed, rep.Problems)
		}
		n := cfg.slotCount()
		if want := (n+warmStride-1)/warmStride + 3*n; rep.Attempted != want {
			t.Errorf("%s: attempted %d, want %d", w.Name, rep.Attempted, want)
		}
		// At the smoke size grouped queries are all answered exactly, so the
		// quality metrics may read 0; nothing may be negative or not a number.
		for _, ms := range [][]Metric{rep.Metrics, rep.Timing} {
			for _, m := range ms {
				if !(m.Value >= 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v, want finite and not negative", w.Name, m.Name, m.Value)
				}
			}
		}
		for _, name := range []string{"setup_s", "server_rss_peak_mb", "bytes_out_per_query"} {
			if !(rep.Get(name) > 0) {
				t.Errorf("%s: %s = %v, want positive", w.Name, name, rep.Get(name))
			}
		}
	}
	for _, name := range []string{"closed_form", "dashboard_repeat"} {
		cfg.Workload = WorkloadByName(name)
		rep, err := Trace(cfg)
		if err != nil {
			t.Fatalf("trace %s: %v", name, err)
		}
		if len(rep.Problems) > 0 {
			t.Errorf("trace %s: %v", name, rep.Problems)
		}
		cached := name == "dashboard_repeat"
		for _, m := range []string{"cache.answer_hit_rate", "cache.block_hit_rate", "cache.resident_mb"} {
			if v := rep.Get(m); (v > 0) != cached {
				t.Errorf("trace %s: %s = %v", name, m, v)
			}
		}
		if v := rep.Get("trace.unaccounted_frac"); math.IsNaN(v) {
			t.Errorf("trace %s: trace.unaccounted_frac missing", name)
		}
		if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+name+".json")); err != nil {
			t.Errorf("trace %s: %v", name, err)
		}
	}
}
