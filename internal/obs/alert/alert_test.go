package alert

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// countingSink tallies transitions by state.
type countingSink struct {
	firing   atomic.Int64
	resolved atomic.Int64
}

func (c *countingSink) Notify(ev Event) {
	switch ev.State {
	case StateFiring:
		c.firing.Add(1)
	case StateResolved:
		c.resolved.Add(1)
	}
}

func TestBusLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &countingSink{}
	b := New(Config{Metrics: reg, Sinks: []Sink{sink}})

	a := Alert{Source: "serve", Kind: "reject_spike", Key: "queue_full",
		Severity: SeverityWarning, Observed: 9, Expected: 8}
	b.Raise(a)
	if got := b.Active(); len(got) != 1 || got[0].State != StateFiring || got[0].Count != 1 {
		t.Fatalf("after first raise: %+v", got)
	}
	if sink.firing.Load() != 1 {
		t.Fatalf("firing notifications = %d, want 1", sink.firing.Load())
	}

	// Re-raises coalesce: count climbs, observed refreshes, no re-notify.
	a.Observed = 12
	b.Raise(a)
	b.Raise(a)
	act := b.Active()
	if len(act) != 1 || act[0].Count != 3 || act[0].Observed != 12 {
		t.Fatalf("after coalescing raises: %+v", act)
	}
	if sink.firing.Load() != 1 {
		t.Fatalf("coalesced raises re-notified: %d", sink.firing.Load())
	}

	b.Resolve("serve", "reject_spike", "queue_full")
	if got := b.Active(); len(got) != 0 {
		t.Fatalf("still active after resolve: %+v", got)
	}
	if sink.resolved.Load() != 1 {
		t.Fatalf("resolved notifications = %d, want 1", sink.resolved.Load())
	}
	hist := b.History()
	if len(hist) != 2 || hist[0].State != StateFiring || hist[1].State != StateResolved {
		t.Fatalf("history = %+v", hist)
	}
	if hist[1].ResolvedAt.IsZero() {
		t.Error("resolved event has zero ResolvedAt")
	}
	if hist[1].Count != 3 {
		t.Errorf("resolved event count = %d, want 3", hist[1].Count)
	}
	if hist[1].Seq <= hist[0].Seq {
		t.Errorf("seq not monotone: %d then %d", hist[0].Seq, hist[1].Seq)
	}

	// Resolving a key that is not firing is a no-op.
	b.Resolve("serve", "reject_spike", "queue_full")
	if sink.resolved.Load() != 1 {
		t.Error("double resolve re-notified")
	}

	if v := reg.Counter("aqp_alerts_total",
		"Alert episodes opened, by source, kind and severity.",
		"source", "serve", "kind", "reject_spike", "severity", "warning").Value(); v != 1 {
		t.Errorf("aqp_alerts_total = %d, want 1", v)
	}
	if v := reg.Gauge("aqp_alerts_active", "Alert episodes currently firing.").Value(); v != 0 {
		t.Errorf("aqp_alerts_active = %d, want 0", v)
	}
}

// TestBusConcurrent hammers raise/coalesce/resolve from many goroutines
// under -race: the invariant is that every firing notification is
// eventually matched by exactly one resolved notification and the bus
// ends empty.
func TestBusConcurrent(t *testing.T) {
	sink := &countingSink{}
	b := New(Config{Sinks: []Sink{sink}, history: 4096})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				b.Raise(Alert{Source: "test", Kind: "load", Key: k,
					Severity: SeverityWarning, Observed: float64(i)})
				if i%3 == 0 {
					b.Resolve("test", "load", k)
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiesce: resolve everything still firing.
	for _, k := range keys {
		b.Resolve("test", "load", k)
	}

	if got := b.Active(); len(got) != 0 {
		t.Fatalf("%d episodes still active after full resolve", len(got))
	}
	f, r := sink.firing.Load(), sink.resolved.Load()
	if f == 0 || f != r {
		t.Fatalf("firing=%d resolved=%d, want equal and nonzero", f, r)
	}
	// History alternates per key: a resolve may only follow a raise.
	state := map[string]State{}
	for _, ev := range b.History() {
		prev := state[ev.Key]
		if ev.State == StateResolved && prev != StateFiring {
			t.Fatalf("resolved %q without a preceding firing", ev.Key)
		}
		state[ev.Key] = ev.State
	}
}

func TestBusHistoryRing(t *testing.T) {
	b := New(Config{history: 4})
	for i := 0; i < 6; i++ {
		b.Raise(Alert{Source: "s", Kind: "k", Key: string(rune('a' + i))})
	}
	hist := b.History()
	if len(hist) != 4 {
		t.Fatalf("history length = %d, want 4 (ring cap)", len(hist))
	}
	// Oldest-first unroll: the two earliest episodes were overwritten.
	if hist[0].Key != "c" || hist[3].Key != "f" {
		t.Fatalf("ring order wrong: %q..%q", hist[0].Key, hist[3].Key)
	}
}

func TestBusHandler(t *testing.T) {
	b := New(Config{})
	b.Raise(Alert{Source: "slo", Kind: "burn", Key: "latency-p99",
		Severity: SeverityCritical, Observed: 2.5, Expected: 1})
	rr := httptest.NewRecorder()
	b.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/alerts", nil))
	var body struct {
		Active  []Event `json:"active"`
		History []Event `json:"history"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("/debug/alerts not JSON: %v", err)
	}
	if len(body.Active) != 1 || body.Active[0].Key != "latency-p99" ||
		body.Active[0].State != StateFiring {
		t.Fatalf("active = %+v", body.Active)
	}
	if len(body.History) != 1 {
		t.Fatalf("history = %+v", body.History)
	}
}

func TestNilBusNoops(t *testing.T) {
	var b *Bus
	b.Raise(Alert{Source: "s", Kind: "k", Key: "x"}) // must not panic
	b.Resolve("s", "k", "x")
	if b.Active() != nil || b.History() != nil {
		t.Error("nil bus returned state")
	}
}
