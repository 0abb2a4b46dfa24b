package alert_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/watchdog"
)

// TestAlertPipelineEndToEnd drives the full chain the ISSUE's alert
// smoke requires: induced undercoverage in the calibration watchdog →
// raise on the unified bus → webhook sink delivers a firing event; then
// recovery → clear → the same webhook receives the resolved event.
func TestAlertPipelineEndToEnd(t *testing.T) {
	events := make(chan alert.Event, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev alert.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		events <- ev
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	webhook := alert.NewWebhookSink(srv.URL, alert.WebhookOptions{})
	defer webhook.Close()
	bus := alert.New(alert.Config{Sinks: []alert.Sink{webhook}})

	// The watchdog raises on the bus directly, as aqpd wires it.
	wd := watchdog.New(watchdog.Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Tolerance: 1, Synchronous: true, Alerts: bus,
	})
	defer wd.Close()
	// Truth misses the interval for "miss" queries, covers it otherwise.
	wd.Bind(func(_ context.Context, rec *obs.QueryRecord) (map[watchdog.AggInstance]float64, error) {
		truth := 0.0
		if strings.Contains(rec.SQL, "miss") {
			truth = 10
		}
		return map[watchdog.AggInstance]float64{{Agg: "A"}: truth}, nil
	})

	rec := func(sql string) *obs.QueryRecord {
		return &obs.QueryRecord{SQL: sql, Sample: "1000", Aggs: []obs.AggRecord{{
			Name: "A", Center: 0, HalfWidth: 1, Technique: "closed-form",
		}}}
	}

	// 6 covered + 11 missed: coverage 5/16, far under the 95% intervals'
	// band (Band(0.95,16,1).lo ≈ 0.896) → undercoverage fires.
	for i := 0; i < 6; i++ {
		wd.Observe(rec("cover"))
	}
	for i := 0; i < 11; i++ {
		wd.Observe(rec("miss"))
	}

	var firing alert.Event
	select {
	case firing = <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("webhook never received the firing alert")
	}
	if firing.State != alert.StateFiring || firing.Source != "watchdog" ||
		firing.Kind != "undercoverage" || firing.Key != "A@1000" ||
		firing.Severity != alert.SeverityCritical {
		t.Fatalf("firing event = %+v", firing)
	}
	if len(bus.Active()) != 1 {
		t.Fatalf("bus active = %+v, want the one undercoverage episode", bus.Active())
	}

	// Covered audits push the misses out until the window re-enters the
	// band.
	for i := 0; i < 16; i++ {
		wd.Observe(rec("cover"))
	}

	var resolved alert.Event
	select {
	case resolved = <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("webhook never received the resolved alert")
	}
	if resolved.State != alert.StateResolved || resolved.Key != "A@1000" ||
		resolved.Kind != "undercoverage" {
		t.Fatalf("resolved event = %+v", resolved)
	}
	if len(bus.Active()) != 0 {
		t.Fatalf("bus still active after recovery: %+v", bus.Active())
	}
}
