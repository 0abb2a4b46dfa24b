// Package export ships finished query traces out of the process as
// OTLP/HTTP JSON (the ExportTraceServiceRequest shape any OpenTelemetry
// collector accepts) and/or as JSON lines appended to a local file for
// air-gapped runs.
//
// The exporter is deliberately decoupled from the query path: Finish
// hands the query's record to ExportTrace, which does one non-blocking send
// into a bounded queue and returns — on overflow the trace is dropped and
// metered (aqp_export_dropped_total) rather than ever delaying a query.
// A single background worker batches records, renders their span trees,
// flushes by size or interval, retries failed posts with linear backoff,
// and drops (again metered) when retries are exhausted. Like the rest of
// internal/obs it consumes no engine randomness, so answers are
// bit-identical with export enabled or disabled.
package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config tunes the exporter.
type Config struct {
	// URL is the OTLP/HTTP traces endpoint (e.g.
	// "http://collector:4318/v1/traces"). Empty disables HTTP posting.
	URL string
	// Path appends OTLP-shaped JSON lines (one ExportTraceServiceRequest
	// per flushed batch) to a file — the filesink fallback. Empty
	// disables it. At least one of URL and Path must be set.
	Path string
	// Metrics receives aqp_export_* series (nil = unmetered).
	Metrics *obs.Registry

	// queueSize and maxBatch, when positive, replace the constants of the
	// same names. Only this package's tests set them, to wedge the worker
	// behind a small queue.
	queueSize, maxBatch int
}

// Delivery settings. The alert webhook (internal/obs/alert) retries, backs
// off and times out the same way.
const (
	// serviceName is the OTLP resource's service.name.
	serviceName = "aqp"
	// maxBatch flushes once this many traces are buffered.
	maxBatch = 64
	// flushInterval flushes a partial batch this often.
	flushInterval = 2 * time.Second
	// queueSize bounds the handoff queue between the query path and the
	// worker; overflow drops, never blocks.
	queueSize = 256
	// maxRetries is how many additional attempts a failed POST gets before
	// its batch is dropped.
	maxRetries = 3
	// retryBackoff is the base delay between attempts, scaled linearly.
	retryBackoff = 250 * time.Millisecond
	// postTimeout bounds each POST.
	postTimeout = 5 * time.Second
)

func (c Config) queue() int {
	if c.queueSize > 0 {
		return c.queueSize
	}
	return queueSize
}

func (c Config) batch() int {
	if c.maxBatch > 0 {
		return c.maxBatch
	}
	return maxBatch
}

// Exporter implements obs.SpanExporter. Construct with New, attach via
// Tracer.SetExporter, and Close on shutdown to flush the tail.
type Exporter struct {
	cfg    Config
	ch     chan *obs.QueryRecord
	flush  chan chan struct{}
	file   *os.File
	client *http.Client

	mu     sync.RWMutex // guards closed vs. sends on ch
	closed bool
	wg     sync.WaitGroup

	mTraces  *obs.Counter
	mDropQ   *obs.Counter
	mDropS   *obs.Counter
	mDropW   *obs.Counter
	mBatchOK *obs.Counter
	mBatchNG *obs.Counter
	mRetries *obs.Counter
	mQueue   *obs.Gauge
}

// New builds an exporter and starts its worker. At least one of
// Config.URL and Config.Path must be set.
func New(cfg Config) (*Exporter, error) {
	if cfg.URL == "" && cfg.Path == "" {
		return nil, errors.New("export: config needs a URL or a Path")
	}
	e := &Exporter{
		cfg:   cfg,
		ch:    make(chan *obs.QueryRecord, cfg.queue()),
		flush: make(chan chan struct{}),
	}
	if cfg.Path != "" {
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("export: open filesink: %w", err)
		}
		e.file = f
	}
	if cfg.URL != "" {
		e.client = &http.Client{Timeout: postTimeout}
	}
	reg := cfg.Metrics
	e.mTraces = reg.Counter("aqp_export_traces_total",
		"Traces accepted into the export queue.")
	e.mDropQ = reg.Counter("aqp_export_dropped_total",
		"Traces dropped by the exporter, by reason.", "reason", "queue_full")
	e.mDropS = reg.Counter("aqp_export_dropped_total",
		"Traces dropped by the exporter, by reason.", "reason", "send_failed")
	e.mDropW = reg.Counter("aqp_export_dropped_total",
		"Traces dropped by the exporter, by reason.", "reason", "write_failed")
	e.mBatchOK = reg.Counter("aqp_export_batches_total",
		"Export batches flushed, by result.", "result", "ok")
	e.mBatchNG = reg.Counter("aqp_export_batches_total",
		"Export batches flushed, by result.", "result", "error")
	e.mRetries = reg.Counter("aqp_export_retries_total",
		"POST attempts retried after a failure.")
	e.mQueue = reg.Gauge("aqp_export_queue_depth",
		"Traces waiting in the export queue.")
	e.wg.Add(1)
	go e.worker()
	return e, nil
}

// ExportTrace enqueues a finished query's record; the worker renders its
// span tree. It never blocks: when the queue is full (or the exporter is
// closed) the trace is dropped and aqp_export_dropped_total{reason="queue_full"}
// is bumped.
func (e *Exporter) ExportTrace(t *obs.QueryRecord) {
	if e == nil {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.mDropQ.Inc()
		return
	}
	select {
	case e.ch <- t:
		e.mTraces.Inc()
		e.mQueue.Set(int64(len(e.ch)))
	default:
		e.mDropQ.Inc()
	}
}

// Flush synchronously drains the queue and sends any buffered batch.
// Intended for tests and shutdown paths; a closed exporter returns
// immediately.
func (e *Exporter) Flush() {
	if e == nil {
		return
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return
	}
	ack := make(chan struct{})
	e.flush <- ack
	e.mu.RUnlock()
	<-ack
}

// Close flushes buffered traces and stops the worker. Traces exported
// after Close are dropped (metered).
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.ch)
	e.mu.Unlock()
	e.wg.Wait()
	if e.file != nil {
		return e.file.Close()
	}
	return nil
}

func (e *Exporter) worker() {
	defer e.wg.Done()
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	var batch []*obs.QueryRecord
	send := func() {
		if len(batch) > 0 {
			e.send(batch)
			batch = batch[:0]
		}
	}
	for {
		select {
		case t, ok := <-e.ch:
			if !ok {
				send()
				return
			}
			e.mQueue.Set(int64(len(e.ch)))
			batch = append(batch, t)
			if len(batch) >= e.cfg.batch() {
				send()
			}
		case <-ticker.C:
			send()
		case ack := <-e.flush:
			// Drain whatever the query path already enqueued, then send.
		drain:
			for {
				select {
				case t, ok := <-e.ch:
					if !ok {
						break drain
					}
					batch = append(batch, t)
				default:
					break drain
				}
			}
			e.mQueue.Set(int64(len(e.ch)))
			send()
			close(ack)
		}
	}
}

func (e *Exporter) send(batch []*obs.QueryRecord) {
	body, err := json.Marshal(otlpRequest(serviceName, batch))
	if err != nil {
		e.mDropS.Add(int64(len(batch)))
		e.mBatchNG.Inc()
		return
	}
	ok := true
	if e.file != nil {
		if _, err := e.file.Write(append(body, '\n')); err != nil {
			e.mDropW.Add(int64(len(batch)))
			ok = false
		}
	}
	if e.client != nil && !e.post(body) {
		e.mDropS.Add(int64(len(batch)))
		ok = false
	}
	if ok {
		e.mBatchOK.Inc()
	} else {
		e.mBatchNG.Inc()
	}
}

// post attempts the OTLP POST with linear-backoff retries; it reports
// whether the collector eventually accepted the batch.
func (e *Exporter) post(body []byte) bool {
	attempts := 1 + maxRetries
	for i := 0; i < attempts; i++ {
		if i > 0 {
			e.mRetries.Inc()
			time.Sleep(time.Duration(i) * retryBackoff)
		}
		resp, err := e.client.Post(e.cfg.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return true
		}
		// 4xx means the payload is unacceptable; retrying cannot help.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return false
		}
	}
	return false
}
