// Package watchdog is the engine's online calibration monitor: the
// production analogue of the paper's runtime diagnostic, lifted from one
// query to the aggregate picture. The per-query diagnostic (§4) asks "can
// this error estimate be trusted for this query?"; the watchdog asks the
// operator's question — "are the 95% intervals we have been reporting
// actually covering the truth 95% of the time, and is the reject rate
// drifting?" — and answers it with ground truth, not extrapolation.
//
// It keeps rolling windows of diagnostic verdicts, relative CI widths and
// estimator outcomes keyed by (aggregate, sample), re-executes a
// configurable fraction of served queries exactly in the background (the
// audit ladder: truth is affordable occasionally, so spend it where it
// pays), and compares rolling empirical coverage against the nominal
// level under a binomial tolerance band. Coverage outside the band, or a
// reject rate drifting from its baseline, raises an alert on the unified
// alert bus (internal/obs/alert); the rolling state behind it is exported
// as aqp_calibration_* metrics and on /debug/calibration.
//
// The watchdog consumes no engine randomness and never touches answers:
// it observes finished queries and re-runs them through the engine's
// exact path, whose results are deterministic. Telemetry-on and
// telemetry-off answers are bit-identical (asserted by core's tests).
package watchdog

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// Key identifies one calibration population: an aggregate output (the
// alias, e.g. "AVG(Time)") answered on one sample (the row count as a
// string, or "exact" for full-data answers).
type Key struct {
	Agg    string `json:"agg"`
	Sample string `json:"sample"`
}

func (k Key) String() string { return k.Agg + "@" + k.Sample }

// AggInstance identifies one aggregate output within a query for audit
// matching: the exact re-execution returns one truth value per instance.
type AggInstance struct {
	Group string
	Agg   string
}

// AuditFunc re-executes the query rec records exactly and returns the
// ground-truth value of every aggregate output. The engine binds its exact
// execution path here; tests bind synthetic truths.
type AuditFunc func(ctx context.Context, rec *obs.QueryRecord) (map[AggInstance]float64, error)

// AuditObserver receives every audit outcome. It runs outside the
// watchdog's lock, after the outcome has entered the coverage windows; a
// slow observer delays subsequent audits, never the serving path.
type AuditObserver func(obs.AuditRecord)

// AlertKind types the watchdog's alerts.
type AlertKind string

// Alert kinds. Undercoverage is the dangerous direction — the paper's
// "optimistic and incorrect" intervals (Fig. 1's closed-form-on-MIN/MAX
// failure mode); overcoverage is waste (pessimism); reject-drift means
// the diagnostic's behaviour changed for this key.
const (
	Undercoverage AlertKind = "undercoverage"
	Overcoverage  AlertKind = "overcoverage"
	RejectDrift   AlertKind = "reject-drift"
)

// Config tunes a Watchdog. Zero values select the defaults.
type Config struct {
	// Window is the rolling window length per key, in trials (0 = 200).
	Window int
	// MinAudits is the minimum audited trials in a key's window before
	// coverage alerting engages (0 = 20) — below it the binomial band is
	// too wide to mean anything.
	MinAudits int
	// AuditFraction is the fraction of served queries re-executed
	// exactly: every ceil(1/fraction)-th observation is audited, a
	// deterministic cadence that consumes no randomness (0 = no audits;
	// cap 1 = every query).
	AuditFraction float64
	// Tolerance is the z-multiplier of the binomial standard error that
	// widths the acceptance band (0 = 3, a three-sigma band).
	Tolerance float64
	// Metrics, when non-nil, receives the aqp_calibration_* series.
	Metrics *obs.Registry
	// Synchronous runs audits inline inside Observe instead of on the
	// background worker — deterministic for tests; production keeps the
	// default background mode so audits never add latency to the serving
	// path.
	Synchronous bool
	// Alerts, when non-nil, receives the watchdog's alerts: source
	// "watchdog", key "agg@sample", labels agg and sample; undercoverage
	// is critical, overcoverage and reject drift are warnings. Alerts are
	// level-triggered — every window check raises its (kind, key) while
	// the statistic is out of band and resolves it while in band — and the
	// bus coalesces the repeats into one episode. Nil raises nothing.
	Alerts *alert.Bus
}

// auditQueue bounds the background audit queue; audits beyond it are
// dropped and counted.
const auditQueue = 64

func (c Config) window() int {
	if c.Window <= 0 {
		return 200
	}
	return c.Window
}

func (c Config) minAudits() int {
	if c.MinAudits <= 0 {
		return 20
	}
	return c.MinAudits
}

func (c Config) tolerance() float64 {
	if c.Tolerance <= 0 {
		return 3
	}
	return c.Tolerance
}

// stride converts the audit fraction to a deterministic cadence.
func (c Config) stride() uint64 {
	f := c.AuditFraction
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return 1
	}
	return uint64(math.Ceil(1 / f))
}

// Band returns the binomial tolerance band around an expected proportion
// p for n trials: p ± z·sqrt(p(1−p)/n), clamped to [0,1]. An observed
// proportion strictly outside the band is out of tolerance; landing
// exactly on an edge is within tolerance, so threshold tests at window
// edges are not flaky.
func Band(p float64, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	half := z * math.Sqrt(p*(1-p)/float64(n))
	lo, hi = p-half, p+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// driftBand is the tolerance band for reject-rate drift around baseline
// rate r over a window of n trials: the binomial band with a half-width
// floor of 5/n, so a zero-variance baseline (no rejects ever seen) still
// tolerates a handful of rejects per window before alerting. Clamped to
// [0,1].
func driftBand(r float64, n int, z float64) (lo, hi float64) {
	half := max(z*math.Sqrt(r*(1-r)/float64(n)), 5/float64(n))
	return max(r-half, 0), min(r+half, 1)
}

// boolWindow is a rolling window of boolean trials with lifetime totals.
type boolWindow struct {
	buf   []bool
	next  int
	n     int
	trues int

	total      int64
	truesTotal int64
}

func newBoolWindow(size int) *boolWindow { return &boolWindow{buf: make([]bool, size)} }

func (w *boolWindow) push(v bool) {
	if w.n == len(w.buf) {
		if w.buf[w.next] {
			w.trues--
		}
	} else {
		w.n++
	}
	w.buf[w.next] = v
	if v {
		w.trues++
		w.truesTotal++
	}
	w.next = (w.next + 1) % len(w.buf)
	w.total++
}

// rate returns the windowed proportion of true trials and the window
// count.
func (w *boolWindow) rate() (float64, int) {
	if w.n == 0 {
		return 0, 0
	}
	return float64(w.trues) / float64(w.n), w.n
}

// floatWindow is a rolling window of float trials (relative CI widths).
type floatWindow struct {
	buf  []float64
	next int
	n    int
	sum  float64
}

func newFloatWindow(size int) *floatWindow { return &floatWindow{buf: make([]float64, size)} }

func (w *floatWindow) push(v float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.next]
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += v
	w.next = (w.next + 1) % len(w.buf)
}

func (w *floatWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// keyState is the rolling record for one (aggregate, sample) key.
type keyState struct {
	verdicts *boolWindow // true = diagnostic rejected
	coverage *boolWindow // true = audited interval covered the truth
	relWidth *floatWindow
	// baselineRejects is the reject rate over the key's first full
	// window, frozen once the window fills — the reference that "drift"
	// is measured against.
	baselineRejects float64
	baselineSet     bool
	techniques      map[string]int64
	// id (Key.String()) and labels identify the key's alerts on the bus,
	// built once: a drifted key re-raises at every check.
	id     string
	labels map[string]string
}

// verdict is one window check's outcome for the alert bus: out of band
// raises the alert, in band resolves its (kind, key). Checks run under the
// watchdog's lock and their verdicts are sent after it is released, so a
// slow sink never holds up Observe. Two verdicts racing to the bus may land
// out of order; the key's next check sends the current one again.
type verdict struct {
	alert.Alert
	out bool
}

func inBand(kind AlertKind, st *keyState) verdict {
	return verdict{Alert: alert.Alert{Source: "watchdog", Kind: string(kind), Key: st.id}}
}

func outOfBand(kind AlertKind, st *keyState, observed, expected float64, msg string) verdict {
	sev := alert.SeverityWarning
	if kind == Undercoverage {
		sev = alert.SeverityCritical
	}
	return verdict{out: true, Alert: alert.Alert{
		Source: "watchdog", Kind: string(kind), Key: st.id, Severity: sev,
		Observed: observed, Expected: expected, Message: msg,
		Labels: st.labels,
	}}
}

// send delivers verdicts to the bus; the caller does not hold mu.
func (w *Watchdog) send(vs []verdict) {
	for _, v := range vs {
		if v.out {
			w.cfg.Alerts.Raise(v.Alert)
		} else {
			w.cfg.Alerts.Resolve(v.Source, v.Kind, v.Key)
		}
	}
}

// Watchdog monitors calibration online. Construct with New; a nil
// *Watchdog is a no-op observer, so callers thread it unconditionally.
type Watchdog struct {
	cfg      Config
	audit    AuditFunc
	observer AuditObserver

	mu       sync.Mutex
	keys     map[Key]*keyState
	keyOrder []Key
	seq      uint64

	auditCh chan *obs.QueryRecord
	wg      sync.WaitGroup
	closed  bool

	mObs       *obs.Counter
	mAudits    func(result string) *obs.Counter
	mDropped   *obs.Counter
	mCoverage  func(k Key) *obs.GaugeF
	mReject    func(k Key) *obs.GaugeF
	mRelWidth  func(k Key) *obs.GaugeF
	mAuditLagN *obs.Gauge // queued background audits
}

// New returns a watchdog. Bind an auditor before observing if
// AuditFraction > 0; without one, audits are skipped and counted as
// errors.
func New(cfg Config) *Watchdog {
	reg := cfg.Metrics
	w := &Watchdog{
		cfg:  cfg,
		keys: map[Key]*keyState{},
		mObs: reg.Counter("aqp_calibration_observations_total",
			"Queries observed by the calibration watchdog."),
		mAudits: func(result string) *obs.Counter {
			return reg.Counter("aqp_calibration_audits_total",
				"Audit re-executions, by result.", "result", result)
		},
		mDropped: reg.Counter("aqp_calibration_audit_dropped_total",
			"Audits dropped because the background queue was full."),
		mCoverage: func(k Key) *obs.GaugeF {
			return reg.GaugeFloat("aqp_calibration_coverage",
				"Rolling empirical coverage of reported intervals vs audited truth.",
				"agg", k.Agg, "sample", k.Sample)
		},
		mReject: func(k Key) *obs.GaugeF {
			return reg.GaugeFloat("aqp_calibration_reject_rate",
				"Rolling diagnostic reject rate.", "agg", k.Agg, "sample", k.Sample)
		},
		mRelWidth: func(k Key) *obs.GaugeF {
			return reg.GaugeFloat("aqp_calibration_rel_width",
				"Rolling mean relative CI half-width.", "agg", k.Agg, "sample", k.Sample)
		},
		mAuditLagN: reg.Gauge("aqp_calibration_audit_queue",
			"Background audits waiting to run."),
	}
	reg.GaugeFloat("aqp_calibration_nominal",
		"Nominal coverage level the watchdog holds intervals to.").Set(estimator.ConfidenceLevel)
	if !cfg.Synchronous && cfg.stride() > 0 {
		w.auditCh = make(chan *obs.QueryRecord, auditQueue)
		w.wg.Add(1)
		go w.auditWorker()
	}
	return w
}

// Bind sets the audit executor. Call once, before the first Observe;
// the engine binds its exact path here at construction.
func (w *Watchdog) Bind(fn AuditFunc) {
	if w == nil {
		return
	}
	w.audit = fn
}

// SetAuditObserver registers a sink for audit outcomes. Call once,
// before the first Observe, alongside Bind.
func (w *Watchdog) SetAuditObserver(fn AuditObserver) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.observer = fn
	w.mu.Unlock()
}

// Close stops the background audit worker, draining queued audits.
func (w *Watchdog) Close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	if w.auditCh != nil {
		close(w.auditCh)
		w.wg.Wait()
	}
}

// interval is the aggregate's reported confidence interval.
func interval(a *obs.AggRecord) estimator.Interval {
	return estimator.Interval{Center: a.Center, HalfWidth: a.HalfWidth}
}

// accountable reports whether the aggregate carries an estimated interval an
// audit can hold to account.
func accountable(a *obs.AggRecord) bool {
	return !a.Exact && !math.IsNaN(a.HalfWidth)
}

// Observe records one served query: verdicts, CI widths and technique
// counts enter the rolling windows immediately; if the deterministic
// audit cadence selects this query, it is re-executed exactly (inline
// when Synchronous, otherwise on the background worker) and its coverage
// outcome enters the window when the audit completes. A query in which no
// aggregate is accountable — every one fell back to exact — is never
// audited: the re-execution would be thrown away whole. rec is only read,
// and may be held until its audit completes.
func (w *Watchdog) Observe(rec *obs.QueryRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.seq++
	seq := w.seq
	vs := make([]verdict, 0, 1)
	auditable := false
	for i := range rec.Aggs {
		a := &rec.Aggs[i]
		auditable = auditable || accountable(a)
		k := Key{Agg: a.Name, Sample: rec.Sample}
		st := w.key(k)
		st.verdicts.push(a.Rejected)
		if rel := interval(a).RelativeError(); !math.IsNaN(rel) && !math.IsInf(rel, 0) {
			st.relWidth.push(rel)
		}
		st.techniques[a.Technique]++
		rate, _ := st.verdicts.rate()
		w.mReject(k).Set(rate)
		w.mRelWidth(k).Set(st.relWidth.mean())
		vs = w.checkRejectDriftLocked(vs, k, st)
	}
	stride := w.cfg.stride()
	doAudit := auditable && stride > 0 && seq%stride == 0
	w.mu.Unlock()
	w.send(vs)
	w.mObs.Inc()

	if !doAudit {
		return
	}
	if w.cfg.Synchronous || w.auditCh == nil {
		w.runAudit(rec)
		return
	}
	select {
	case w.auditCh <- rec:
		w.mAuditLagN.Inc()
	default:
		w.mDropped.Inc()
	}
}

// key returns (creating on first use) the state for k; caller holds mu.
func (w *Watchdog) key(k Key) *keyState {
	st, ok := w.keys[k]
	if !ok {
		size := w.cfg.window()
		st = &keyState{
			verdicts:   newBoolWindow(size),
			coverage:   newBoolWindow(size),
			relWidth:   newFloatWindow(size),
			techniques: map[string]int64{},
			id:         k.String(),
			labels:     map[string]string{"agg": k.Agg, "sample": k.Sample},
		}
		w.keys[k] = st
		w.keyOrder = append(w.keyOrder, k)
	}
	return st
}

func (w *Watchdog) auditWorker() {
	defer w.wg.Done()
	for rec := range w.auditCh {
		w.mAuditLagN.Dec()
		w.runAudit(rec)
	}
}

// runAudit re-executes one query exactly and folds per-aggregate coverage
// into the rolling windows.
func (w *Watchdog) runAudit(rec *obs.QueryRecord) {
	if w.audit == nil {
		w.mAudits("error").Inc()
		return
	}
	truths, err := w.audit(context.Background(), rec)
	if err != nil {
		w.mAudits("error").Inc()
		return
	}
	var outcomes []obs.AuditRecord
	vs := make([]verdict, 0, 2)
	w.mu.Lock()
	observer := w.observer
	for i := range rec.Aggs {
		a := &rec.Aggs[i]
		if !accountable(a) {
			continue
		}
		truth, ok := truths[AggInstance{Group: a.Group, Agg: a.Name}]
		if !ok {
			continue
		}
		iv := interval(a)
		covered := iv.Contains(truth)
		k := Key{Agg: a.Name, Sample: rec.Sample}
		st := w.key(k)
		st.coverage.push(covered)
		if covered {
			w.mAudits("covered").Inc()
		} else {
			w.mAudits("missed").Inc()
		}
		cov, _ := st.coverage.rate()
		w.mCoverage(k).Set(cov)
		vs = w.checkCoverageLocked(vs, k, st)
		if observer != nil {
			outcomes = append(outcomes, obs.AuditRecord{
				QID: rec.QID, TraceID: rec.TraceID,
				Table: rec.Table, Sample: rec.Sample, Predicate: rec.Predicate,
				Kind: a.Kind, Agg: a.Name, Group: a.Group,
				Covered: covered, Truth: truth, Lo: iv.Lo(), Hi: iv.Hi(),
			})
		}
	}
	w.mu.Unlock()
	w.send(vs)
	for _, o := range outcomes {
		observer(o)
	}
}

// checkCoverageLocked appends the coverage verdicts for one key, once the
// key's window holds MinAudits audits and there is a bus to send them to;
// caller holds mu.
func (w *Watchdog) checkCoverageLocked(vs []verdict, k Key, st *keyState) []verdict {
	cov, n := st.coverage.rate()
	if n < w.cfg.minAudits() || w.cfg.Alerts == nil {
		return vs
	}
	const nominal = estimator.ConfidenceLevel
	lo, hi := Band(nominal, n, w.cfg.tolerance())
	under, over := inBand(Undercoverage, st), inBand(Overcoverage, st)
	switch {
	case cov < lo:
		under = outOfBand(Undercoverage, st, cov, nominal, fmt.Sprintf(
			"%s: empirical coverage %.3f below binomial tolerance [%.3f, %.3f] of nominal %.2f over %d audits — reported intervals are too narrow",
			k, cov, lo, hi, nominal, n))
	case cov > hi:
		over = outOfBand(Overcoverage, st, cov, nominal, fmt.Sprintf(
			"%s: empirical coverage %.3f above binomial tolerance [%.3f, %.3f] of nominal %.2f over %d audits — reported intervals are wastefully wide",
			k, cov, lo, hi, nominal, n))
	}
	return append(vs, under, over)
}

// checkRejectDriftLocked appends the reject-drift verdict for one key, if
// there is a bus to send it to; caller holds mu. The key's first full window
// freezes the baseline, bus or not; the rolling rate is then held to
// driftBand around it.
func (w *Watchdog) checkRejectDriftLocked(vs []verdict, k Key, st *keyState) []verdict {
	rate, n := st.verdicts.rate()
	if !st.baselineSet {
		if n == w.cfg.window() {
			st.baselineRejects = rate
			st.baselineSet = true
		}
		return vs
	}
	if w.cfg.Alerts == nil {
		return vs
	}
	lo, hi := driftBand(st.baselineRejects, n, w.cfg.tolerance())
	if rate >= lo && rate <= hi {
		return append(vs, inBand(RejectDrift, st))
	}
	return append(vs, outOfBand(RejectDrift, st, rate, st.baselineRejects, fmt.Sprintf(
		"%s: rolling reject rate %.3f drifted outside [%.3f, %.3f] around baseline %.3f over %d queries",
		k, rate, lo, hi, st.baselineRejects, n)))
}
