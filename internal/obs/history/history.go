// Package history is the engine's durable telemetry layer: an append-only
// segment log of query, audit and admission records; an online workload
// profiler keyed by (table, sample, aggregate-kind, predicate-signature);
// and a sliding-window latency/availability SLO monitor with error-budget
// burn rates. Open replays existing segments so profiles, lifetime
// counters and the SLO monitor's last five minutes resume across restarts
// instead of resetting.
//
// Like the rest of the obs tree, the layer is inert by construction: it
// only reads finished answers and trace snapshots, consumes no engine
// randomness, and swallows its own I/O errors (counted, never raised), so
// answers and error bars are bit-identical with history on or off.
package history

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// Options configures a Store.
type Options struct {
	// SLOs declares the objectives the monitor evaluates.
	SLOs []SLOSpec
	// Registry, when set, receives aqp_history_* and aqp_slo_* metrics.
	Registry *obs.Registry
	// SampleInterval is the background tick for SLO evaluation (0 = 1s;
	// negative disables the background goroutine — evaluation then only
	// happens on demand).
	SampleInterval time.Duration
	// Alerts, when set, receives SLO burn alerts on the unified bus: a
	// spec transitioning into breach raises a (source="slo", kind="burn",
	// key=spec name) episode; leaving breach resolves it.
	Alerts *alert.Bus

	// maxSegmentBytes, when positive, replaces the constant of the same
	// name, and fsyncEvery, when positive, fsyncs after every that many
	// records. Only this package's tests set them; otherwise the OS
	// flushes, and rotation and Close always sync.
	maxSegmentBytes int64
	fsyncEvery      int
}

// maxSegmentBytes rotates the active segment once it would exceed this
// size.
const maxSegmentBytes = 8 << 20

func (o Options) segmentCap() int64 {
	if o.maxSegmentBytes > 0 {
		return o.maxSegmentBytes
	}
	return maxSegmentBytes
}

// ReplayStats summarizes the startup replay.
type ReplayStats struct {
	Segments     int     `json:"segments"`
	Records      int64   `json:"records"`
	SkippedTails int     `json:"skipped_tails"`
	Ms           float64 `json:"ms"`
}

// Stats is a point-in-time snapshot of the store, served by /debug/history.
type Stats struct {
	Dir           string `json:"dir"`
	ActiveSegment string `json:"active_segment"`
	Segments      int    `json:"segments"`
	// Records counts appends by kind in this process; Lifetime adds the
	// records replayed at Open, so it survives restarts.
	Records     map[string]int64 `json:"records"`
	Lifetime    map[string]int64 `json:"lifetime"`
	Bytes       int64            `json:"bytes_written"`
	Fsyncs      int64            `json:"fsyncs"`
	WriteErrors int64            `json:"write_errors"`
	LastErr     string           `json:"last_err,omitempty"`
	FsyncEvery  int              `json:"fsync_every"`
	Replay      ReplayStats      `json:"replay"`
}

// Store is the persistent history log plus its in-memory derivations
// (profiler, SLO monitor). All methods are nil-safe no-ops, so
// callers thread an optional *Store through hot paths unconditionally.
type Store struct {
	dir string
	opt Options

	mu        sync.Mutex
	f         *os.File
	seq       int
	segBytes  int64
	segments  int
	sinceSync int
	counts    map[string]int64
	replayed  map[string]int64
	bytes     int64
	fsyncs    int64
	werrs     int64
	lastErr   error
	replay    ReplayStats
	closed    bool

	prof *profiler
	mon  *monitor

	tick chan struct{} // closed to stop the sampler
	done chan struct{} // closed when the sampler exits
}

// Open opens (creating if needed) the history directory, replays every
// existing segment into the profiler and the SLO monitor's window, and
// starts a fresh active segment. Replay is fail-soft: a corrupt segment
// tail loses only the records after the tear. A spec whose Kind is neither
// SLOLatency nor SLOAvailability is refused: the monitor has no rule to
// judge it by.
func Open(dir string, opt Options) (*Store, error) {
	for _, spec := range opt.SLOs {
		if spec.Kind != SLOLatency && spec.Kind != SLOAvailability {
			return nil, fmt.Errorf("history: SLO %q: kind %q is neither %q nor %q",
				spec.Name, spec.Kind, SLOLatency, SLOAvailability)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: creating dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		opt:      opt,
		counts:   map[string]int64{},
		replayed: map[string]int64{},
		prof:     newProfiler(),
		mon:      newMonitor(opt.SLOs, opt.Registry, opt.Alerts),
	}
	start := time.Now()
	nowSec := start.Unix()
	maxSeq := -1
	segStats, err := ReplayDir(dir, func(rec *Record) {
		s.replayed[rec.Kind]++
		s.replay.Records++
		s.fold(rec, nowSec)
	})
	if err != nil {
		return nil, err
	}
	for _, st := range segStats {
		s.replay.Segments++
		if st.TailSkipped {
			s.replay.SkippedTails++
		}
		if seq, ok := segmentSeq(st.Name); ok && seq > maxSeq {
			maxSeq = seq
		}
	}
	s.replay.Ms = float64(time.Since(start)) / float64(time.Millisecond)
	s.segments = len(segStats)
	s.seq = maxSeq + 1
	if err := s.openSegmentLocked(); err != nil {
		return nil, err
	}
	s.registerMetrics()
	if opt.SampleInterval >= 0 {
		s.tick = make(chan struct{})
		s.done = make(chan struct{})
		go s.sampler()
	}
	return s, nil
}

// fold feeds a record, appended now or replayed, into the in-memory state.
// Profiles and lifetime counters accept any age; the SLO monitor only sees
// records its window can still count, stamped at their recorded time, so
// the last five minutes survive a quick restart.
func (s *Store) fold(rec *Record, nowSec int64) {
	s.prof.fold(rec)
	sec := rec.TS / int64(time.Second)
	if sec <= nowSec-windowSec-slotSec || sec > nowSec {
		return
	}
	switch {
	case rec.Query != nil:
		s.mon.recordQuery(sec, rec.Query.TotalMs, rec.Query.Outcome)
	case rec.Reject != nil:
		s.mon.recordReject(sec)
	}
}

func (s *Store) openSegmentLocked() error {
	path := filepath.Join(s.dir, segmentName(s.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("history: creating segment: %w", err)
	}
	if err := writeSegmentHeader(f); err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.segBytes = segHeaderLen
	s.segments++
	return nil
}

// AppendQuery records one finished query. rec is only read.
func (s *Store) AppendQuery(rec *obs.QueryRecord) {
	if s == nil {
		return // before sanitizeQuery copies the record
	}
	s.add(&Record{Kind: KindQuery, Query: sanitizeQuery(rec)})
}

// AppendAudit records one watchdog audit outcome; it is the watchdog's
// audit observer when a history store is attached.
func (s *Store) AppendAudit(a obs.AuditRecord) {
	a.Truth = finite(a.Truth)
	a.Lo = finite(a.Lo)
	a.Hi = finite(a.Hi)
	s.add(&Record{Kind: KindAudit, Audit: &a})
}

// AppendReject records one admission rejection.
func (s *Store) AppendReject(reason string) {
	s.add(&Record{Kind: KindReject, Reject: &RejectRecord{Reason: reason}})
}

// add stamps one new record, folds it exactly as a replayed one, and
// persists it.
func (s *Store) add(rec *Record) {
	if s == nil {
		return
	}
	now := time.Now()
	rec.TS = now.UnixNano()
	s.fold(rec, now.Unix())
	s.append(rec)
}

// append frames and persists one record. Write failures are counted and
// remembered, never surfaced to the query path: losing telemetry must not
// fail queries.
func (s *Store) append(rec *Record) {
	frame, err := encodeFrame(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.werrs++
		s.lastErr = err
		return
	}
	if s.closed || s.f == nil {
		return
	}
	if s.segBytes+int64(len(frame)) > s.opt.segmentCap() &&
		s.segBytes > segHeaderLen {
		s.rotateLocked()
	}
	if _, err := s.f.Write(frame); err != nil {
		s.werrs++
		s.lastErr = err
		return
	}
	s.segBytes += int64(len(frame))
	s.bytes += int64(len(frame))
	s.counts[rec.Kind]++
	if s.opt.fsyncEvery > 0 {
		s.sinceSync++
		if s.sinceSync >= s.opt.fsyncEvery {
			if err := s.f.Sync(); err != nil {
				s.werrs++
				s.lastErr = err
			} else {
				s.fsyncs++
			}
			s.sinceSync = 0
		}
	}
	if reg := s.opt.Registry; reg != nil {
		reg.Counter("aqp_history_records_total",
			"History records appended, by kind.", "kind", rec.Kind).Inc()
		reg.Counter("aqp_history_bytes_total",
			"Bytes appended to history segments.").Add(int64(len(frame)))
	}
}

func (s *Store) rotateLocked() {
	if err := s.f.Sync(); err == nil {
		s.fsyncs++
	}
	s.f.Close()
	s.seq++
	s.sinceSync = 0
	if err := s.openSegmentLocked(); err != nil {
		s.werrs++
		s.lastErr = err
		s.f = nil
	}
}

// Sync forces the active segment to stable storage.
func (s *Store) Sync() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		s.werrs++
		s.lastErr = err
		return err
	}
	s.fsyncs++
	s.sinceSync = 0
	return nil
}

// Close stops the background sampler and syncs and closes the active
// segment. The store is unusable afterwards; appends become no-ops.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tick := s.tick
	done := s.done
	s.mu.Unlock()
	if tick != nil {
		close(tick)
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// sampler is the background tick for SLO evaluation.
func (s *Store) sampler() {
	defer close(s.done)
	iv := s.opt.SampleInterval
	if iv == 0 {
		iv = time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-s.tick:
			return
		case now := <-t.C:
			s.mon.evaluate(now.Unix())
		}
	}
}

func (s *Store) registerMetrics() {
	reg := s.opt.Registry
	if reg == nil {
		return
	}
	reg.Counter("aqp_history_replayed_records_total",
		"Records recovered from segments at startup.").Add(s.replay.Records)
	reg.Counter("aqp_history_replay_skipped_tails_total",
		"Segments whose corrupt tail was skipped during replay.").
		Add(int64(s.replay.SkippedTails))
}

// Profiles returns every workload profile, busiest first.
func (s *Store) Profiles() []Profile {
	if s == nil {
		return nil
	}
	return s.prof.snapshot()
}

// SLOStatuses evaluates every declared SLO now.
func (s *Store) SLOStatuses() []SLOStatus {
	if s == nil {
		return nil
	}
	return s.mon.evaluate(time.Now().Unix())
}

// Replay folds every record under path — a single segment file or a
// directory of segments — into workload profiles without opening a
// store, so operators can inspect the telemetry of a dead process.
func Replay(path string) ([]Profile, []SegmentStats, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	prof := newProfiler()
	var stats []SegmentStats
	if info.IsDir() {
		stats, err = ReplayDir(path, prof.fold)
	} else {
		var st SegmentStats
		st, err = ReplaySegment(path, prof.fold)
		stats = []SegmentStats{st}
	}
	if err != nil {
		return nil, nil, err
	}
	return prof.snapshot(), stats, nil
}

// Stats snapshots the store's bookkeeping.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:           s.dir,
		ActiveSegment: segmentName(s.seq),
		Segments:      s.segments,
		Records:       map[string]int64{},
		Lifetime:      map[string]int64{},
		Bytes:         s.bytes,
		Fsyncs:        s.fsyncs,
		WriteErrors:   s.werrs,
		FsyncEvery:    s.opt.fsyncEvery,
		Replay:        s.replay,
	}
	for k, v := range s.counts {
		st.Records[k] = v
		st.Lifetime[k] += v
	}
	for k, v := range s.replayed {
		st.Lifetime[k] += v
	}
	if s.lastErr != nil {
		st.LastErr = s.lastErr.Error()
	}
	return st
}
