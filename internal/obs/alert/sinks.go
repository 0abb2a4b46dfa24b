package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// NewLogSink returns a sink that emits one structured slog record per
// transition. With a nil logger the default slog logger is used; aqpd
// passes its JSON handler so alerts interleave with query events.
func NewLogSink(logger *slog.Logger) Sink {
	if logger == nil {
		logger = slog.Default()
	}
	return SinkFunc(func(ev Event) {
		level := slog.LevelWarn
		if ev.State == StateResolved {
			level = slog.LevelInfo
		} else if ev.Severity == SeverityCritical {
			level = slog.LevelError
		}
		attrs := []slog.Attr{
			slog.String("state", string(ev.State)),
			slog.String("source", ev.Source),
			slog.String("kind", ev.Kind),
			slog.String("key", ev.Key),
			slog.String("severity", string(ev.Severity)),
			slog.Int("count", ev.Count),
			slog.Float64("observed", ev.Observed),
			slog.Float64("expected", ev.Expected),
		}
		if ev.Message != "" {
			attrs = append(attrs, slog.String("message", ev.Message))
		}
		logger.LogAttrs(context.Background(), level, "alert", attrs...)
	})
}

// WebhookOptions tunes a webhook sink.
type WebhookOptions struct {
	// Metrics receives aqp_alert_webhook_* series.
	Metrics *obs.Registry

	// queueSize and retryBackoff, when positive, replace the constants of
	// the same names. Only this package's tests set them.
	queueSize    int
	retryBackoff time.Duration
}

// Delivery settings. The span exporter (internal/obs/export) retries, backs
// off and times out the same way.
const (
	// queueSize bounds pending deliveries; overflow drops.
	queueSize = 64
	// maxRetries is the extra attempts per delivery after the first.
	maxRetries = 3
	// retryBackoff is the base inter-attempt delay, scaled linearly.
	retryBackoff = 250 * time.Millisecond
	// postTimeout bounds each POST.
	postTimeout = 5 * time.Second
)

func (o WebhookOptions) queue() int {
	if o.queueSize > 0 {
		return o.queueSize
	}
	return queueSize
}

func (o WebhookOptions) backoff() time.Duration {
	if o.retryBackoff > 0 {
		return o.retryBackoff
	}
	return retryBackoff
}

// WebhookSink POSTs each transition as a JSON document to a generic
// endpoint, from its own goroutine with bounded queueing and retries —
// Notify never blocks the bus.
type WebhookSink struct {
	url    string
	opt    WebhookOptions
	client *http.Client
	ch     chan Event
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	mSent    *obs.Counter
	mDropped *obs.Counter
	mRetries *obs.Counter
}

// NewWebhookSink builds a webhook sink and starts its delivery worker.
func NewWebhookSink(url string, opt WebhookOptions) *WebhookSink {
	s := &WebhookSink{
		url:    url,
		opt:    opt,
		client: &http.Client{Timeout: postTimeout},
		ch:     make(chan Event, opt.queue()),
	}
	reg := opt.Metrics
	s.mSent = reg.Counter("aqp_alert_webhook_total",
		"Alert webhook deliveries, by result.", "result", "ok")
	s.mDropped = reg.Counter("aqp_alert_webhook_total",
		"Alert webhook deliveries, by result.", "result", "dropped")
	s.mRetries = reg.Counter("aqp_alert_webhook_retries_total",
		"Webhook POST attempts retried after a failure.")
	s.wg.Add(1)
	go s.worker()
	return s
}

// Notify implements Sink: a non-blocking enqueue.
func (s *WebhookSink) Notify(ev Event) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.mDropped.Inc()
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.mDropped.Inc()
	}
}

// Close drains pending deliveries and stops the worker.
func (s *WebhookSink) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *WebhookSink) worker() {
	defer s.wg.Done()
	for ev := range s.ch {
		if s.deliver(ev) {
			s.mSent.Inc()
		} else {
			s.mDropped.Inc()
		}
	}
}

func (s *WebhookSink) deliver(ev Event) bool {
	body, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	attempts := 1 + maxRetries
	for i := 0; i < attempts; i++ {
		if i > 0 {
			s.mRetries.Inc()
			time.Sleep(time.Duration(i) * s.opt.backoff())
		}
		resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return true
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return false
		}
	}
	return false
}
