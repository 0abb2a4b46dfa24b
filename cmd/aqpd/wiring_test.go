package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/watchdog"
)

// TestWatchdogAlertsReachTheBus checks the daemon's wiring, not the
// watchdog: with -audit-fraction set, an undercoverage the watchdog finds
// must open an episode on the daemon's bus — the one that feeds the log and
// webhook sinks, /debug/alerts and aqp_alerts_total. A watchdog built
// without the bus raises nothing, and its calibration failures leave no
// trace.
func TestWatchdogAlertsReachTheBus(t *testing.T) {
	tel, err := newTelemetry(daemonConfig{auditFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tel.wd == nil {
		t.Fatal("-audit-fraction 1 built no watchdog")
	}
	// Every audit misses: the truth lies far outside each reported interval.
	tel.wd.Bind(func(context.Context, *obs.QueryRecord) (map[watchdog.AggInstance]float64, error) {
		return map[watchdog.AggInstance]float64{{Agg: "AVG(Time)"}: 1e9}, nil
	})
	for i := 0; i < 20; i++ { // the default MinAudits
		tel.wd.Observe(&obs.QueryRecord{Sample: "5000", Aggs: []obs.AggRecord{{
			Name: "AVG(Time)", Center: 1, HalfWidth: 0.1, Technique: "closed-form",
		}}})
	}
	tel.close() // drains the queued audits

	active := tel.bus.Active()
	if len(active) != 1 {
		t.Fatalf("bus active = %+v, want one undercoverage episode", active)
	}
	if a := active[0]; a.Source != "watchdog" || a.Kind != string(watchdog.Undercoverage) ||
		a.Key != "AVG(Time)@5000" || a.Severity != alert.SeverityCritical {
		t.Fatalf("episode = %+v, want the watchdog's critical undercoverage of AVG(Time)@5000", a)
	}
	var b strings.Builder
	tel.tracer.Registry().WritePrometheus(&b)
	if want := `aqp_alerts_total{source="watchdog",kind="undercoverage",severity="critical"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("metrics lack %s", want)
	}
}
