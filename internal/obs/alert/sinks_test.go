package alert

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWebhookSinkDelivers(t *testing.T) {
	var mu sync.Mutex
	var got []Event
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	sink := NewWebhookSink(srv.URL, WebhookOptions{})
	sink.Notify(Event{Alert: Alert{Source: "watchdog", Kind: "undercoverage",
		Key: "A@1000", Severity: SeverityCritical}, State: StateFiring, Count: 1, Seq: 1})
	sink.Notify(Event{Alert: Alert{Source: "watchdog", Kind: "undercoverage",
		Key: "A@1000"}, State: StateResolved, Count: 1, Seq: 2})
	sink.Close() // drains the queue

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("webhook received %d events, want 2", len(got))
	}
	if got[0].State != StateFiring || got[1].State != StateResolved {
		t.Fatalf("states = %s, %s", got[0].State, got[1].State)
	}
	if got[0].Key != "A@1000" || got[0].Source != "watchdog" {
		t.Fatalf("event fields lost in transit: %+v", got[0])
	}
}

func TestWebhookSinkRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	sink := NewWebhookSink(srv.URL, WebhookOptions{Metrics: reg, retryBackoff: time.Millisecond})
	sink.Notify(Event{Alert: Alert{Source: "s", Kind: "k", Key: "x"}, State: StateFiring})
	sink.Close()

	if calls.Load() != 3 {
		t.Fatalf("webhook saw %d attempts, want 3 (two 502s then a 200)", calls.Load())
	}
	if v := reg.Counter("aqp_alert_webhook_total",
		"Webhook alert deliveries, by result.", "result", "ok").Value(); v != 1 {
		t.Errorf("ok deliveries = %d, want 1", v)
	}
	if v := reg.Counter("aqp_alert_webhook_retries_total",
		"Webhook delivery attempts retried after a failure.").Value(); v != 2 {
		t.Errorf("retries = %d, want 2", v)
	}
}

// TestWebhookSinkNeverBlocks: with the endpoint wedged and the queue
// full, Notify returns immediately and drops are metered.
func TestWebhookSinkNeverBlocks(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	sink := NewWebhookSink(srv.URL, WebhookOptions{Metrics: reg, queueSize: 2})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 20; i++ {
			sink.Notify(Event{Alert: Alert{Source: "s", Kind: "k", Key: "x"}, State: StateFiring})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Notify blocked on a wedged webhook")
	}
	close(release)
	sink.Close()
	if v := reg.Counter("aqp_alert_webhook_total",
		"Webhook alert deliveries, by result.", "result", "dropped").Value(); v == 0 {
		t.Error("overflow was not metered as dropped")
	}
}

func TestLogSink(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	sink := NewLogSink(logger)
	sink.Notify(Event{Alert: Alert{Source: "slo", Kind: "burn", Key: "latency-p99",
		Severity: SeverityCritical, Observed: 2.5, Expected: 1},
		State: StateFiring, Count: 1})
	sink.Notify(Event{Alert: Alert{Source: "slo", Kind: "burn", Key: "latency-p99"},
		State: StateResolved, Count: 1})
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("log sink wrote %d lines, want 2: %s", len(lines), out)
	}
	for i, want := range []string{"firing", "resolved"} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("log line %d not JSON: %v", i, err)
		}
		if rec["state"] != want || rec["key"] != "latency-p99" {
			t.Errorf("line %d = %v", i, rec)
		}
	}
	// Critical firing logs at error level.
	if !strings.Contains(lines[0], `"level":"ERROR"`) {
		t.Errorf("critical firing not at ERROR level: %s", lines[0])
	}
}
