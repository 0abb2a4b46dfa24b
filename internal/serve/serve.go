// Package serve is the admission-controlled front end for a concurrent AQP
// engine: a bounded number of queries execute at once, excess arrivals wait
// in a strict-FIFO queue (or are rejected when the queue is full), every
// admitted query gets a deadline and a resample budget, and shutdown drains
// in-flight work before returning. The paper's premise — approximations
// with error bars exist to keep interactive latency predictable — only
// holds if the serving layer also bounds queueing and per-query work; this
// package is that bound.
//
// Concurrency-safety rests on the engine invariants proven by the core
// tests: Engine.Run is safe for concurrent use and produces bit-identical
// answers regardless of interleaving, because all randomness derives from
// (seed, stream) pairs owned by the query.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/history"
)

// Rejection and lifecycle errors. Both are permanent for the submitted
// query; callers distinguish them from cancellation via errors.Is.
var (
	// ErrQueueFull reports that the wait queue was at capacity on arrival.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrShuttingDown reports that the server no longer admits queries.
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Classify maps a Submit error to a transport-neutral rejection code, so
// the HTTP and MySQL-wire front ends turn the same admission outcome into
// the same client-visible error class instead of an abrupt connection
// reset. retryable marks load-shedding outcomes a client should back off
// and retry; "bad_query" covers everything the engine itself refused
// (parse errors, unknown tables, ...).
func Classify(err error) (code string, retryable bool) {
	switch {
	case err == nil:
		return "", false
	case errors.Is(err, ErrQueueFull):
		return "queue_full", true
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down", true
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline", false
	case errors.Is(err, context.Canceled):
		return "cancelled", false
	default:
		return "bad_query", false
	}
}

// Config tunes a Server.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (0 = 4).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot (0 = 16;
	// negative = no queue, reject immediately when saturated).
	MaxQueue int
	// Timeout is the per-query deadline applied on admission, layered
	// under whatever deadline the caller's context already carries
	// (0 = none).
	Timeout time.Duration
	// MaxBootstrapK caps each query's resample count below the engine
	// default — the per-query work budget (0 = engine default).
	MaxBootstrapK int
	// Metrics, when non-nil, receives the serving gauges and counters.
	Metrics *obs.Registry
	// History, when non-nil, receives a durable RejectRecord for every
	// query refused admission. Rejected queries never reach the engine's
	// finishQuery path, so this hook is the only place availability SLOs
	// can learn about them.
	History *history.Store
	// Alerts, when non-nil, receives admission-health alerts: a
	// reject-spike alert (source "serve", kind "reject_spike", key =
	// rejection reason) when rejectSpikeThreshold (8) rejections of one
	// reason land inside rejectSpikeWindow (10 s), and a queue-saturation
	// alert (kind "queue_saturation") whenever an arrival is turned away
	// because the wait queue is full. Alerts resolve as admissions resume
	// and the reject windows drain. The server never blocks on the bus.
	Alerts *alert.Bus
}

// Reject-spike detection: rejectSpikeThreshold same-reason rejections
// inside the sliding rejectSpikeWindow raise the alert, and it resolves
// once the window drains to half the threshold.
const (
	rejectSpikeWindow    = 10 * time.Second
	rejectSpikeThreshold = 8
)

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 4
	}
	return c.MaxInFlight
}

func (c Config) maxQueue() int {
	if c.MaxQueue == 0 {
		return 16
	}
	if c.MaxQueue < 0 {
		return 0
	}
	return c.MaxQueue
}

// Server serializes admission to a shared engine. The zero value is not
// usable; construct with New.
type Server struct {
	eng *core.Engine
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []chan error // FIFO waiters; receive nil (slot granted) or a rejection
	draining bool
	drained  chan struct{} // closed when draining and inflight hits zero

	gInflight   *obs.Gauge
	gQueued     *obs.Gauge
	admitted    *obs.Counter
	cancelled   *obs.Counter
	cacheServed *obs.Counter
	hQueueWait  *obs.Histogram

	// Reject-spike tracking for the alert bus. Guarded by amu, never by
	// s.mu: all bus calls happen outside the admission lock so a slow
	// alert sink can never stall admission.
	amu     sync.Mutex
	rejects map[string][]time.Time // per-reason reject times inside the window
}

// New returns a server fronting the engine.
func New(eng *core.Engine, cfg Config) *Server {
	reg := cfg.Metrics
	return &Server{
		eng:     eng,
		cfg:     cfg,
		drained: make(chan struct{}),
		rejects: make(map[string][]time.Time),
		gInflight: reg.Gauge("aqp_serve_inflight",
			"Queries currently executing."),
		gQueued: reg.Gauge("aqp_serve_queued",
			"Queries waiting for an execution slot."),
		admitted: reg.Counter("aqp_serve_admitted_total",
			"Queries granted an execution slot."),
		cancelled: reg.Counter("aqp_serve_cancelled_total",
			"Admitted queries that ended cancelled or past deadline."),
		cacheServed: reg.Counter("aqp_serve_answer_cache_total",
			"Queries answered from the engine's answer cache before admission."),
		hQueueWait: reg.Histogram("aqp_serve_queue_wait_seconds",
			"Time admitted queries spent waiting for an execution slot.",
			obs.LatencyBuckets),
	}
}

func (s *Server) reject(reason string) {
	s.cfg.Metrics.Counter("aqp_serve_rejected_total",
		"Queries refused admission, by reason.", "reason", reason).Inc()
	s.cfg.History.AppendReject(reason)
	s.noteReject(reason)
}

// noteReject feeds one rejection into the alert bus: it slides the
// per-reason window forward and raises reject_spike when the window
// crosses the threshold, plus queue_saturation on every queue_full turn
// -away. Callers never hold s.mu here (every reject() call site runs
// after unlock), so bus sinks cannot stall admission.
func (s *Server) noteReject(reason string) {
	if s.cfg.Alerts == nil {
		return
	}
	now := time.Now()
	s.amu.Lock()
	w := append(s.rejects[reason], now)
	w = pruneBefore(w, now.Add(-rejectSpikeWindow))
	s.rejects[reason] = w
	n := len(w)
	s.amu.Unlock()
	if n >= rejectSpikeThreshold {
		s.cfg.Alerts.Raise(alert.Alert{
			Source:   "serve",
			Kind:     "reject_spike",
			Key:      reason,
			Severity: alert.SeverityWarning,
			Message: fmt.Sprintf("admission rejected %d queries (%s) within %s",
				n, reason, rejectSpikeWindow),
			Observed: float64(n),
			Expected: rejectSpikeThreshold,
		})
	}
	if reason == "queue_full" {
		s.cfg.Alerts.Raise(alert.Alert{
			Source:   "serve",
			Kind:     "queue_saturation",
			Key:      "queue",
			Severity: alert.SeverityWarning,
			Message: fmt.Sprintf("wait queue at capacity (%d); arrivals are being turned away",
				s.cfg.maxQueue()),
			Observed: float64(s.cfg.maxQueue()),
			Expected: float64(s.cfg.maxQueue()),
		})
	}
}

// noteAdmit is noteReject's counterpart on the admission path: it drains
// stale entries from every reject window and resolves alerts whose
// condition has passed (window below half threshold; queue below half
// capacity). Called with no locks held.
func (s *Server) noteAdmit() {
	if s.cfg.Alerts == nil {
		return
	}
	cut := time.Now().Add(-rejectSpikeWindow)
	var calm []string
	s.amu.Lock()
	for reason, w := range s.rejects {
		w = pruneBefore(w, cut)
		s.rejects[reason] = w
		if len(w) <= rejectSpikeThreshold/2 {
			calm = append(calm, reason)
		}
	}
	s.amu.Unlock()
	for _, reason := range calm {
		s.cfg.Alerts.Resolve("serve", "reject_spike", reason)
	}
	if s.Queued() <= s.cfg.maxQueue()/2 {
		s.cfg.Alerts.Resolve("serve", "queue_saturation", "queue")
	}
}

// pruneBefore drops timestamps older than cut from the front of a
// time-ordered slice.
func pruneBefore(w []time.Time, cut time.Time) []time.Time {
	i := 0
	for i < len(w) && w[i].Before(cut) {
		i++
	}
	return w[i:]
}

// Submit answers one query under admission control: it waits for an
// execution slot (strict FIFO among waiters), applies the configured
// deadline and resample budget, and runs the query on the shared engine.
// The caller's ctx governs both the wait and the execution; a query
// cancelled while queued leaves the queue without consuming a slot.
func (s *Server) Submit(ctx context.Context, query string) (*core.Answer, error) {
	arrived := time.Now()
	// Answer reuse happens BEFORE admission: a replayed answer does no
	// physical work, so it must not queue behind — or steal a slot from —
	// queries that do. The engine keys the lookup on its catalog
	// generation, so a replay is always as fresh as a re-execution.
	if s.eng != nil {
		if ans, ok := s.eng.CachedAnswer(ctx, query, s.cfg.MaxBootstrapK); ok {
			s.cacheServed.Inc()
			return ans, nil
		}
	}
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	wait := time.Since(arrived)
	s.hQueueWait.Observe(wait.Seconds())
	s.admitted.Inc()
	s.noteAdmit()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	ans, err := s.eng.RunWithOptions(ctx, query, core.RunOptions{
		BootstrapK: s.cfg.MaxBootstrapK,
		QueueWait:  wait,
	})
	if obs.Outcome(err) == "cancelled" {
		s.cancelled.Inc()
	}
	return ans, err
}

// acquire blocks until an execution slot is free, the queue overflows, ctx
// is done, or the server drains. On nil return the caller holds a slot and
// must release it.
func (s *Server) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject("shutting_down")
		return ErrShuttingDown
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		s.reject("cancelled")
		return fmt.Errorf("serve: while admitting: %w", err)
	}
	if s.inflight < s.cfg.maxInFlight() {
		s.inflight++
		s.gInflight.Set(int64(s.inflight))
		s.mu.Unlock()
		return nil
	}
	if len(s.queue) >= s.cfg.maxQueue() {
		s.mu.Unlock()
		s.reject("queue_full")
		return ErrQueueFull
	}
	// Buffered so release/Shutdown never block handing us the verdict even
	// if we have already given up on ctx.Done.
	w := make(chan error, 1)
	s.queue = append(s.queue, w)
	s.gQueued.Set(int64(len(s.queue)))
	s.mu.Unlock()

	select {
	case err := <-w:
		if err != nil {
			s.reject("shutting_down")
		}
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				s.gQueued.Set(int64(len(s.queue)))
				s.mu.Unlock()
				s.reject("cancelled")
				return fmt.Errorf("serve: while queued: %w", ctx.Err())
			}
		}
		s.mu.Unlock()
		// Not in the queue anymore: a verdict is already in w.
		if err := <-w; err != nil {
			s.reject("shutting_down")
			return err
		}
		// The slot was granted in the same instant the caller gave up;
		// hand it back and report the cancellation.
		s.release()
		s.reject("cancelled")
		return fmt.Errorf("serve: while queued: %w", ctx.Err())
	}
}

// release frees a slot: the oldest waiter inherits it directly (no
// decrement/increment window another arrival could steal through, which
// would break FIFO), otherwise in-flight drops and a drain may complete.
func (s *Server) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining && len(s.queue) > 0 {
		w := s.queue[0]
		s.queue = s.queue[1:]
		s.gQueued.Set(int64(len(s.queue)))
		w <- nil
		return
	}
	s.inflight--
	s.gInflight.Set(int64(s.inflight))
	if s.draining && s.inflight == 0 {
		close(s.drained)
	}
}

// Shutdown stops admitting queries, fails all waiters with
// ErrShuttingDown (each waiter's rejection is metered and recorded in the
// history store, so availability SLOs see drained queries), and waits for
// in-flight queries to finish. It returns ctx.Err() if the drain outlives
// ctx; in-flight queries keep their own contexts and are not
// force-cancelled — pair Shutdown with a per-query Timeout to bound the
// drain. Shutdown is idempotent: concurrent and repeated calls all wait
// for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, w := range s.queue {
			w <- ErrShuttingDown
		}
		s.queue = nil
		s.gQueued.Set(0)
	}
	idle := s.inflight == 0
	s.mu.Unlock()
	if idle {
		return nil
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Draining reports whether Shutdown has begun: the server no longer
// admits queries. Front ends use it to flip health checks before refusing
// traffic.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Queued returns the number of queries waiting for a slot.
func (s *Server) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
