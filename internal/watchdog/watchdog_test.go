package watchdog

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// rec builds a one-aggregate record; the truth map key is {"", "A"}.
func rec(sql string, rejected bool, iv estimator.Interval) *obs.QueryRecord {
	return &obs.QueryRecord{SQL: sql, Sample: "1000", Aggs: []obs.AggRecord{{
		Name: "A", Center: iv.Center, HalfWidth: iv.HalfWidth,
		Technique: "closed-form", Rejected: rejected,
	}}}
}

// coverAudit returns an AuditFunc whose truth covers the unit interval
// around zero for SQL containing "cover" and misses it otherwise.
func coverAudit() AuditFunc {
	return func(_ context.Context, rec *obs.QueryRecord) (map[AggInstance]float64, error) {
		truth := 10.0
		if strings.Contains(rec.SQL, "cover") {
			truth = 0
		}
		return map[AggInstance]float64{{Agg: "A"}: truth}, nil
	}
}

// withBus returns a watchdog raising on a fresh bus, and the bus.
func withBus(cfg Config) (*Watchdog, *alert.Bus) {
	cfg.Alerts = alert.New(alert.Config{})
	return New(cfg), cfg.Alerts
}

// firing counts the firing transitions in the bus history.
func firing(b *alert.Bus) int {
	n := 0
	for _, ev := range b.History() {
		if ev.State == alert.StateFiring {
			n++
		}
	}
	return n
}

func TestBand(t *testing.T) {
	lo, hi := Band(0.5, 16, 1)
	if lo != 0.375 || hi != 0.625 {
		t.Fatalf("Band(0.5,16,1) = [%v,%v], want [0.375,0.625]", lo, hi)
	}
	if lo, hi := Band(0.95, 0, 3); lo != 0 || hi != 1 {
		t.Fatalf("empty-window band = [%v,%v], want [0,1]", lo, hi)
	}
	if lo, hi := Band(0.95, 4, 3); lo < 0 || hi != 1 {
		t.Fatalf("band not clamped to [0,1]: [%v,%v]", lo, hi)
	}
}

// edgeTolerance returns the tolerance whose band around the nominal level
// over n audits has an edge exactly on k/n.
func edgeTolerance(k, n int) float64 {
	const p = estimator.ConfidenceLevel
	return math.Abs(p-float64(k)/float64(n)) / math.Sqrt(p*(1-p)/float64(n))
}

// TestUndercoverageStrictEdge pins the no-flaky-boundaries contract: a
// coverage landing exactly on the band edge does not alert; one more
// missed audit pushes it strictly outside and does.
func TestUndercoverageStrictEdge(t *testing.T) {
	w, bus := withBus(Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Tolerance: edgeTolerance(14, 16), Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	// 14 covered then 2 missed: at the 16th audit coverage is 14/16 =
	// 0.875, exactly the band's lower edge.
	for i := 0; i < 14; i++ {
		w.Observe(rec("cover", false, iv))
	}
	for i := 0; i < 2; i++ {
		w.Observe(rec("miss", false, iv))
	}
	if k := w.Status().Keys[0]; k.CoverageLo != 0.875 || k.Coverage != k.CoverageLo {
		t.Fatalf("coverage %v not on the band's lower edge %v", k.Coverage, k.CoverageLo)
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("coverage exactly on the band edge alerted: %+v", alerts)
	}
	// One more miss evicts a covered trial: 13/16 < 0.875.
	w.Observe(rec("miss", false, iv))
	alerts := bus.Active()
	if len(alerts) != 1 || alerts[0].Kind != string(Undercoverage) {
		t.Fatalf("alerts = %+v, want one undercoverage", alerts)
	}
	a, k := alerts[0], w.Status().Keys[0]
	if a.Source != "watchdog" || a.Key != "A@1000" || a.Severity != alert.SeverityCritical ||
		a.Labels["agg"] != "A" || a.Labels["sample"] != "1000" {
		t.Fatalf("alert identity off: %+v", a)
	}
	if k.CoverageWindow != 16 || a.Observed != k.Coverage || a.Observed >= k.CoverageLo ||
		a.Expected != estimator.ConfidenceLevel {
		t.Fatalf("alert %+v does not match status %+v", a, k)
	}
	// Covered audits push the misses out until the window re-enters the
	// band; the alert must clear and the episode have fired exactly once.
	for i := 0; i < 16; i++ {
		w.Observe(rec("cover", false, iv))
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("alert did not clear after recovery: %+v", alerts)
	}
	if n := firing(bus); n != 1 {
		t.Fatalf("%d firing transitions, want exactly one undercoverage episode: %+v", n, bus.History())
	}
}

func TestOvercoverageStrictEdge(t *testing.T) {
	w, bus := withBus(Config{
		Window: 40, MinAudits: 40, AuditFraction: 1,
		Tolerance: edgeTolerance(39, 40), Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	// 1 missed then 39 covered: 39/40 = 0.975, exactly the upper edge.
	w.Observe(rec("miss", false, iv))
	for i := 0; i < 39; i++ {
		w.Observe(rec("cover", false, iv))
	}
	if k := w.Status().Keys[0]; k.CoverageHi != 0.975 || k.Coverage != k.CoverageHi {
		t.Fatalf("coverage %v not on the band's upper edge %v", k.Coverage, k.CoverageHi)
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("coverage exactly on the band edge alerted: %+v", alerts)
	}
	// One more covered evicts the miss: 40/40 > 0.975.
	w.Observe(rec("cover", false, iv))
	alerts := bus.Active()
	if len(alerts) != 1 || alerts[0].Kind != string(Overcoverage) ||
		alerts[0].Severity != alert.SeverityWarning {
		t.Fatalf("alerts = %+v, want one overcoverage warning", alerts)
	}
	if k := w.Status().Keys[0]; alerts[0].Observed <= k.CoverageHi {
		t.Fatalf("alert observed %v inside band [%v,%v]", alerts[0].Observed, k.CoverageLo, k.CoverageHi)
	}
}

// TestRejectDriftFloorEdge: with a zero-reject baseline the drift band's
// 5/W floor tolerates exactly half the window at W=10; the 5th reject sits
// on the edge (quiet), the 6th drifts out.
func TestRejectDriftFloorEdge(t *testing.T) {
	w, bus := withBus(Config{Window: 10, Tolerance: 1, Synchronous: true})
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("q", false, iv)) // freeze baseline at 0 rejects
	}
	for i := 0; i < 5; i++ {
		w.Observe(rec("q", true, iv))
	}
	k := w.Status().Keys[0]
	if !k.BaselineSet || k.BaselineRejectRate != 0 || k.RejectHi != 0.5 || k.RejectRate != k.RejectHi {
		t.Fatalf("reject rate not on the drift band's floor edge: %+v", k)
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("reject rate exactly on the floor edge alerted: %+v", alerts)
	}
	w.Observe(rec("q", true, iv)) // 6/10 > 0.5
	alerts := bus.Active()
	if len(alerts) != 1 || alerts[0].Kind != string(RejectDrift) ||
		alerts[0].Severity != alert.SeverityWarning {
		t.Fatalf("alerts = %+v, want one reject-drift warning", alerts)
	}
	if alerts[0].Expected != 0 || alerts[0].Observed != 0.6 {
		t.Fatalf("drift alert off: %+v", alerts[0])
	}
}

// TestOutOfOrderRaiseResolves is the stuck-episode regression. The watchdog
// sends its verdicts to the bus after releasing its lock, so a raise and the
// resolve decided after it, by two concurrent Observe calls, can reach the
// bus in reverse order. The test injects that order rather than racing for
// it: it drives the key out of band and back in, then raises the watchdog's
// own drift alert on the bus once more, late. An edge-triggered watchdog
// never speaks about the key again and the episode fires forever; a
// level-triggered one resolves it at the key's next in-band check.
func TestOutOfOrderRaiseResolves(t *testing.T) {
	w, bus := withBus(Config{Window: 10, Tolerance: 1, Synchronous: true})
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("q", false, iv)) // freeze baseline at 0 rejects
	}
	for i := 0; i < 6; i++ {
		w.Observe(rec("q", true, iv)) // the 6th drifts: 6/10
	}
	if n := len(bus.Active()); n != 1 {
		t.Fatalf("bus active = %d after the drift, want 1", n)
	}
	for i := 0; i < 5; i++ {
		w.Observe(rec("q", false, iv)) // the fifth brings the key back to 5/10
	}
	if n := len(bus.Active()); n != 0 {
		t.Fatalf("bus active = %d back in band, want 0", n)
	}
	var late alert.Alert
	for _, ev := range bus.History() {
		if ev.State == alert.StateFiring {
			late = ev.Alert
		}
	}
	bus.Raise(late) // the raise lands after the resolve
	if n := len(bus.Active()); n != 1 {
		t.Fatalf("bus active = %d after the late raise, want the stuck episode", n)
	}
	w.Observe(rec("q", false, iv)) // 4/10, in band
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("episode still firing after an in-band check: %+v", alerts)
	}
}

// TestBaselineFreezesWithoutBus: a watchdog with no bus sends no verdicts,
// but still freezes each key's reject baseline for /debug/calibration.
func TestBaselineFreezesWithoutBus(t *testing.T) {
	w := New(Config{Window: 4, Synchronous: true})
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for i := 0; i < 4; i++ {
		w.Observe(rec("q", i == 0, iv))
	}
	if k := w.Status().Keys[0]; !k.BaselineSet || k.BaselineRejectRate != 0.25 {
		t.Fatalf("baseline not frozen at 1/4 without a bus: %+v", k)
	}
}

func TestAuditStrideDeterministic(t *testing.T) {
	var calls atomic.Int64
	w := New(Config{Window: 100, AuditFraction: 0.25, Synchronous: true})
	w.Bind(func(context.Context, *obs.QueryRecord) (map[AggInstance]float64, error) {
		calls.Add(1)
		return map[AggInstance]float64{{Agg: "A"}: 0}, nil
	})
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	for i := 0; i < 8; i++ {
		w.Observe(rec("q", false, iv))
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("audited %d of 8 at fraction 1/4, want exactly 2", got)
	}
}

func TestExactAndNaNAggsSkipCoverage(t *testing.T) {
	var calls atomic.Int64
	w, bus := withBus(Config{Window: 10, MinAudits: 1, AuditFraction: 1, Synchronous: true})
	w.Bind(func(context.Context, *obs.QueryRecord) (map[AggInstance]float64, error) {
		calls.Add(1)
		return map[AggInstance]float64{{Agg: "A"}: 1e9}, nil
	})
	w.Observe(&obs.QueryRecord{SQL: "q", Sample: "exact", Aggs: []obs.AggRecord{{
		Name: "A", Exact: true, Center: 1,
	}}})
	w.Observe(&obs.QueryRecord{SQL: "q", Sample: "1000", Aggs: []obs.AggRecord{{
		Name: "A", Center: 1, HalfWidth: math.NaN(),
	}}})
	st := w.Status()
	for _, k := range st.Keys {
		if k.CoverageWindow != 0 {
			t.Fatalf("exact/NaN agg entered the coverage window: %+v", k)
		}
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("unexpected alerts: %+v", alerts)
	}
}

func TestBackgroundAuditsDrainOnClose(t *testing.T) {
	var calls atomic.Int64
	w := New(Config{Window: 100, AuditFraction: 1})
	w.Bind(func(context.Context, *obs.QueryRecord) (map[AggInstance]float64, error) {
		calls.Add(1)
		return map[AggInstance]float64{{Agg: "A"}: 0}, nil
	})
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("cover", false, iv))
	}
	w.Close()
	if got := calls.Load(); got != 10 {
		t.Fatalf("Close drained %d audits, want 10", got)
	}
	w.Close() // idempotent
	w.Observe(rec("cover", false, iv))
	if w.Status().Observations != 10 {
		t.Fatal("Observe after Close mutated state")
	}
}

func TestMetricsRendered(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{
		Window: 4, MinAudits: 1, AuditFraction: 1,
		Tolerance: 1, Synchronous: true, Metrics: reg,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	w.Observe(rec("cover", false, iv))
	w.Observe(rec("miss", true, iv))
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"aqp_calibration_observations_total 2",
		`aqp_calibration_coverage{agg="A",sample="1000"} 0.5`,
		`aqp_calibration_reject_rate{agg="A",sample="1000"} 0.5`,
		"aqp_calibration_nominal 0.95",
		`aqp_calibration_audits_total{result="covered"} 1`,
		`aqp_calibration_audits_total{result="missed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestNilWatchdogIsNoop(t *testing.T) {
	var w *Watchdog
	w.Observe(rec("q", false, estimator.Interval{}))
	w.Bind(nil)
	w.Close()
	if st := w.Status(); len(st.Keys) != 0 {
		t.Fatal("nil watchdog returned keys")
	}
}

func TestHandlerServesStatus(t *testing.T) {
	w := New(Config{Window: 8, MinAudits: 1, AuditFraction: 1, Synchronous: true})
	w.Bind(coverAudit())
	w.Observe(rec("cover", false, estimator.Interval{Center: 0, HalfWidth: 1}))
	st := w.Status()
	if st.Observations != 1 || len(st.Keys) != 1 {
		t.Fatalf("status = %+v", st)
	}
	k := st.Keys[0]
	if k.Coverage != 1 || k.CoverageWindow != 1 || k.AuditsTotal != 1 {
		t.Fatalf("key status = %+v", k)
	}
}

// BenchmarkObserve measures the serving-path cost of one Observe of a
// one-aggregate query on a key past its baseline: without a bus, with a bus
// while the key is in band (each check resolves a key that is not firing),
// and with a bus while it has drifted (each check re-raises into the open
// episode).
func BenchmarkObserve(b *testing.B) {
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for _, mode := range []string{"no-bus", "bus-in-band", "bus-drifted"} {
		b.Run(mode, func(b *testing.B) {
			cfg := Config{Window: 200, Synchronous: true, Metrics: obs.NewRegistry()}
			if mode != "no-bus" {
				cfg.Alerts = alert.New(alert.Config{})
			}
			w := New(cfg)
			for i := 0; i < 200; i++ {
				w.Observe(rec("q", false, iv)) // freeze baseline at 0 rejects
			}
			r := rec("q", false, iv)
			if mode == "bus-drifted" {
				r = rec("q", true, iv)
				for i := 0; i < 200; i++ {
					w.Observe(r)
				}
				if len(cfg.Alerts.Active()) != 1 {
					b.Fatal("key did not drift")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Observe(r)
			}
		})
	}
}
