package watchdog

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/estimator"
	"repro/internal/obs"
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

// TestUndercoverageStrictEdge pins the no-flaky-boundaries contract: a
// coverage landing exactly on the band edge does not alert; one more
// missed audit pushes it strictly outside and does.
func TestUndercoverageStrictEdge(t *testing.T) {
	w := New(Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Nominal: 0.5, Tolerance: 1, Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	// 6 covered then 10 missed: at the 16th audit coverage is 6/16 =
	// 0.375, exactly the band's lower edge for Band(0.5, 16, 1).
	for i := 0; i < 6; i++ {
		w.Observe(rec("cover", false, iv))
	}
	for i := 0; i < 10; i++ {
		w.Observe(rec("miss", false, iv))
	}
	if alerts := w.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("coverage exactly on the band edge alerted: %+v", alerts)
	}
	// One more miss evicts a covered trial: 5/16 = 0.3125 < 0.375.
	w.Observe(rec("miss", false, iv))
	alerts := w.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].Kind != Undercoverage {
		t.Fatalf("alerts = %+v, want one undercoverage", alerts)
	}
	a := alerts[0]
	if a.Window != 16 || a.Lo != 0.375 || a.Observed >= a.Lo {
		t.Fatalf("alert fields off: %+v", a)
	}
	// Refill at the nominal 50% rate until the window re-enters the band;
	// the alert must clear and the episode appear exactly once in history.
	for i := 0; i < 8; i++ {
		w.Observe(rec("cover", false, iv))
		w.Observe(rec("miss", false, iv))
	}
	if alerts := w.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("alert did not clear after recovery: %+v", alerts)
	}
	if h := w.History(); len(h) != 1 || h[0].Kind != Undercoverage {
		t.Fatalf("history = %+v, want exactly one undercoverage episode", h)
	}
}

func TestOvercoverageStrictEdge(t *testing.T) {
	w := New(Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Nominal: 0.5, Tolerance: 1, Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	// 6 missed then 10 covered: 10/16 = 0.625, exactly the upper edge.
	for i := 0; i < 6; i++ {
		w.Observe(rec("miss", false, iv))
	}
	for i := 0; i < 10; i++ {
		w.Observe(rec("cover", false, iv))
	}
	if alerts := w.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("coverage exactly on the band edge alerted: %+v", alerts)
	}
	// One more covered evicts a miss: 11/16 > 0.625.
	w.Observe(rec("cover", false, iv))
	alerts := w.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].Kind != Overcoverage {
		t.Fatalf("alerts = %+v, want one overcoverage", alerts)
	}
}

// TestRejectDriftFloorEdge: with a zero-reject baseline the drift band's
// 5/W floor tolerates exactly half the window at W=10; the 5th reject sits
// on the edge (quiet), the 6th drifts out.
func TestRejectDriftFloorEdge(t *testing.T) {
	w := New(Config{Window: 10, Tolerance: 1, Synchronous: true})
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("q", false, iv)) // freeze baseline at 0 rejects
	}
	for i := 0; i < 5; i++ {
		w.Observe(rec("q", true, iv))
	}
	if alerts := w.ActiveAlerts(); len(alerts) != 0 {
		t.Fatalf("reject rate exactly on the floor edge alerted: %+v", alerts)
	}
	w.Observe(rec("q", true, iv)) // 6/10 > 0.5
	alerts := w.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].Kind != RejectDrift {
		t.Fatalf("alerts = %+v, want one reject-drift", alerts)
	}
	if alerts[0].Expected != 0 || alerts[0].Hi != 0.5 {
		t.Fatalf("drift band off: %+v", alerts[0])
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
	w := New(Config{Window: 10, MinAudits: 1, AuditFraction: 1, Synchronous: true})
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
	if len(w.ActiveAlerts()) != 0 {
		t.Fatalf("unexpected alerts: %+v", w.ActiveAlerts())
	}
}

func TestBackgroundAuditsDrainOnClose(t *testing.T) {
	var calls atomic.Int64
	w := New(Config{Window: 100, AuditFraction: 1, AuditQueue: 64})
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
		Nominal: 0.5, Tolerance: 1, Synchronous: true, Metrics: reg,
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
		"aqp_calibration_nominal 0.5",
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
	if w.ActiveAlerts() != nil || w.History() != nil {
		t.Fatal("nil watchdog returned non-nil state")
	}
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
