// Package alert is the unified alert pipeline: one typed stream joining
// the watchdog's calibration alerts (undercoverage / overcoverage /
// reject drift), the SLO monitor's error-budget burn breaches, and the
// serve layer's rejection/queue-saturation spikes — the three "knowing
// when you're wrong" signals the paper's §4 diagnostics motivate, which
// previously lived on disconnected in-process surfaces.
//
// A Bus holds firing alerts keyed by (source, kind, key): the first
// Raise of a key opens a firing episode (counted, recorded, fanned out
// to sinks); repeated raises coalesce into the open episode without
// re-notifying; Resolve closes it and notifies again with
// State=resolved. Sinks are notified outside the bus lock and must not
// block for long — the webhook sink queues and retries on its own
// goroutine. A nil *Bus is a no-op, mirroring the rest of internal/obs.
package alert

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Severity grades an alert.
type Severity string

const (
	SeverityWarning  Severity = "warning"
	SeverityCritical Severity = "critical"
)

// Alert is one condition as reported by a producer.
type Alert struct {
	// Source names the producing subsystem: "watchdog", "slo", "serve".
	Source string `json:"source"`
	// Kind is the condition class within the source ("undercoverage",
	// "burn", "reject_spike", ...).
	Kind string `json:"kind"`
	// Key identifies the specific instance (aggregate×sample key, SLO
	// name, rejection reason). Dedup is by (Source, Kind, Key).
	Key      string   `json:"key"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message,omitempty"`
	// Observed/Expected carry the condition's measurement (coverage vs
	// nominal, burn rate vs 1, rejections vs threshold).
	Observed float64 `json:"observed,omitempty"`
	Expected float64 `json:"expected,omitempty"`
	// Labels carries extra dimensions (table, window, trace IDs...).
	Labels map[string]string `json:"labels,omitempty"`
}

// State is an episode's lifecycle position.
type State string

const (
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// Event is one alert episode transition as delivered to sinks and kept
// in the bus history.
type Event struct {
	Alert
	State State `json:"state"`
	// Count is how many raises coalesced into the episode so far.
	Count int `json:"count"`
	// Seq orders events bus-wide (monotone, 1-based).
	Seq       uint64    `json:"seq"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// ResolvedAt stays the zero time while the episode is firing.
	ResolvedAt time.Time `json:"resolved_at"`
}

// Sink receives episode transitions (firing, then resolved). Notify is
// called outside the bus lock, sequentially per bus.
type Sink interface {
	Notify(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Notify implements Sink.
func (f SinkFunc) Notify(ev Event) { f(ev) }

// Config tunes a Bus.
type Config struct {
	// Metrics receives aqp_alert_* series (nil = unmetered).
	Metrics *obs.Registry
	// Sinks receive every firing/resolved transition.
	Sinks []Sink

	// history, when positive, replaces historySize. Only this package's
	// tests set it.
	history int
}

// historySize bounds the in-memory ring of past transitions.
const historySize = 128

type busKey struct {
	source, kind, key string
}

// Bus is the alert pipeline hub. Nil is a no-op.
type Bus struct {
	cfg Config

	mu      sync.Mutex
	active  map[busKey]*Event
	order   []busKey // insertion order of active episodes
	history []Event  // ring, oldest first once full
	histAt  int
	full    bool
	seq     uint64

	mActive *obs.Gauge
}

// New builds a bus.
func New(cfg Config) *Bus {
	b := &Bus{cfg: cfg, active: make(map[busKey]*Event)}
	b.history = make([]Event, 0, cfg.historyCap())
	b.mActive = cfg.Metrics.Gauge("aqp_alerts_active",
		"Alert episodes currently firing.")
	return b
}

func (c Config) historyCap() int {
	if c.history > 0 {
		return c.history
	}
	return historySize
}

// AddSink registers an additional sink. Not safe to call concurrently
// with Raise/Resolve; wire sinks up before the bus sees traffic.
func (b *Bus) AddSink(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.cfg.Sinks = append(b.cfg.Sinks, s)
}

// Raise reports a condition. The first raise of a (source, kind, key)
// opens a firing episode and notifies sinks; while the episode stays
// open, further raises coalesce into it (Count, Observed, Message,
// LastSeen refresh) without re-notifying.
func (b *Bus) Raise(a Alert) {
	if b == nil {
		return
	}
	now := time.Now()
	k := busKey{a.Source, a.Kind, a.Key}
	b.mu.Lock()
	if ev, ok := b.active[k]; ok {
		ev.Count++
		ev.Observed = a.Observed
		ev.Expected = a.Expected
		if a.Message != "" {
			ev.Message = a.Message
		}
		if a.Severity != "" {
			ev.Severity = a.Severity
		}
		ev.LastSeen = now
		b.mu.Unlock()
		return
	}
	b.seq++
	ev := &Event{
		Alert:     a,
		State:     StateFiring,
		Count:     1,
		Seq:       b.seq,
		FirstSeen: now,
		LastSeen:  now,
	}
	b.active[k] = ev
	b.order = append(b.order, k)
	b.pushHistoryLocked(*ev)
	b.mActive.Set(int64(len(b.active)))
	b.cfg.Metrics.Counter("aqp_alerts_total",
		"Alert episodes opened, by source, kind and severity.",
		"source", a.Source, "kind", a.Kind, "severity", string(a.Severity)).Inc()
	out := *ev
	b.mu.Unlock()
	b.notify(out)
}

// Resolve closes the open episode for (source, kind, key), if any, and
// notifies sinks with State=resolved. Resolving a key that is not
// firing is a no-op, so producers can call it unconditionally on
// recovery.
func (b *Bus) Resolve(source, kind, key string) {
	if b == nil {
		return
	}
	k := busKey{source, kind, key}
	b.mu.Lock()
	ev, ok := b.active[k]
	if !ok {
		b.mu.Unlock()
		return
	}
	delete(b.active, k)
	for i, ord := range b.order {
		if ord == k {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	b.seq++
	ev.State = StateResolved
	ev.Seq = b.seq
	ev.ResolvedAt = time.Now()
	b.pushHistoryLocked(*ev)
	b.mActive.Set(int64(len(b.active)))
	out := *ev
	b.mu.Unlock()
	b.notify(out)
}

func (b *Bus) pushHistoryLocked(ev Event) {
	max := b.cfg.historyCap()
	if len(b.history) < max {
		b.history = append(b.history, ev)
		return
	}
	b.history[b.histAt] = ev
	b.histAt = (b.histAt + 1) % max
	b.full = true
}

func (b *Bus) notify(ev Event) {
	for _, s := range b.cfg.Sinks {
		s.Notify(ev)
	}
}

// Active returns the firing episodes in the order they opened.
func (b *Bus) Active() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.order))
	for _, k := range b.order {
		if ev, ok := b.active[k]; ok {
			out = append(out, *ev)
		}
	}
	return out
}

// History returns past transitions, oldest first.
func (b *Bus) History() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.full {
		return append([]Event(nil), b.history...)
	}
	out := make([]Event, 0, len(b.history))
	out = append(out, b.history[b.histAt:]...)
	out = append(out, b.history[:b.histAt]...)
	return out
}

// Handler serves the bus state as JSON — mounted at /debug/alerts.
func (b *Bus) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Active  []Event `json:"active"`
			History []Event `json:"history"`
		}{Active: b.Active(), History: b.History()})
	})
}
