package history

// The accuracy/latency SLO monitor. Specs are declarative ("p99 latency
// ≤ 250ms over 5 minutes", "empirical coverage ≥ 93% on Sessions");
// evaluation runs over sliding windows on an in-memory multi-resolution
// ring — 1s slots for short windows, 10s and 60s rollups for long ones —
// so a 2-hour window costs the same handful of slot reads as a 1-minute
// one. The exported number is the SRE error-budget burn rate:
//
//	budget    = 1 - Objective            (allowed bad fraction)
//	burn rate = badFraction / budget
//
// burn 1.0 means the window is consuming its budget exactly as fast as
// the objective allows; above 1.0 the SLO is breaching.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// SLO kinds.
const (
	// SLOLatency: a query is good when its end-to-end latency is at most
	// ThresholdMs. "p99 ≤ X ms" is Objective 0.99 with ThresholdMs X.
	SLOLatency = "latency"
	// SLOCoverage: an audit is good when the CI contained ground truth.
	// "coverage ≥ 93%" is Objective 0.93.
	SLOCoverage = "coverage"
	// SLOAvailability: an event is bad when the query failed with an
	// engine error or was rejected at admission. Cancellations (client
	// abandoned) count as good.
	SLOAvailability = "availability"
)

// SLOSpec declares one objective.
type SLOSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "latency" | "coverage" | "availability"
	// Objective is the target good-event fraction in (0,1).
	Objective float64 `json:"objective"`
	// ThresholdMs is the latency cut-off (latency SLOs only). It is
	// effectively rounded up to the nearest latency-bucket bound.
	ThresholdMs float64 `json:"threshold_ms,omitempty"`
	// Table scopes a coverage SLO to one table ("" = all tables).
	Table string `json:"table,omitempty"`
	// WindowSec is the sliding evaluation window (0 = 300).
	WindowSec int `json:"window_sec,omitempty"`
}

func (s SLOSpec) windowSec() int64 {
	if s.WindowSec <= 0 {
		return 300
	}
	return int64(s.WindowSec)
}

// SLOStatus is one spec's current evaluation.
type SLOStatus struct {
	Spec   SLOSpec `json:"spec"`
	Events int64   `json:"events"`
	Bad    int64   `json:"bad"`
	// GoodFraction is 1 when the window holds no events — an idle system
	// burns no budget.
	GoodFraction float64 `json:"good_fraction"`
	// BurnRate is badFraction / (1 - Objective).
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is 1 - BurnRate (negative once the window's budget
	// is overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
	Breaching       bool    `json:"breaching"`
}

// Ring geometry: resolutions and slot counts. Retention is the coarsest
// ring's span: 128 minutes.
var ringRes = []struct {
	step  int64 // seconds per slot
	slots int
}{
	{1, 128},
	{10, 96},
	{60, 128},
}

const maxRetentionSec = 60 * 128

// tsSlot is one time slot of event counts. lat is indexed like
// obs.LatencyBuckets (+Inf tail) and only allocated on the global ring.
type tsSlot struct {
	start     int64 // aligned unix sec; 0 = empty
	n         int64 // finished queries
	errs      int64 // outcome "error"
	rejects   int64 // admission rejections
	audits    int64
	uncovered int64
	lat       []int64
}

// tsRing is one event stream at all resolutions.
type tsRing struct {
	res [][]tsSlot
}

func newTSRing() *tsRing {
	r := &tsRing{res: make([][]tsSlot, len(ringRes))}
	for i, g := range ringRes {
		r.res[i] = make([]tsSlot, g.slots)
	}
	return r
}

// slotAt returns the (reset-if-stale) slot for sec at resolution i.
func (r *tsRing) slotAt(i int, sec int64) *tsSlot {
	step := ringRes[i].step
	aligned := (sec / step) * step
	s := &r.res[i][int(aligned/step)%ringRes[i].slots]
	if s.start != aligned {
		*s = tsSlot{start: aligned}
	}
	return s
}

// window sums the slots covering (now-windowSec, now] at the finest
// resolution that retains the whole window.
func (r *tsRing) window(now, windowSec int64) tsSlot {
	if windowSec > maxRetentionSec {
		windowSec = maxRetentionSec
	}
	ri := len(ringRes) - 1
	for i, g := range ringRes {
		if windowSec <= g.step*int64(g.slots) {
			ri = i
			break
		}
	}
	step := ringRes[ri].step
	var sum tsSlot
	lo := now - windowSec
	for j := range r.res[ri] {
		s := &r.res[ri][j]
		if s.start == 0 || s.start <= lo-step+1 || s.start > now {
			continue
		}
		sum.n += s.n
		sum.errs += s.errs
		sum.rejects += s.rejects
		sum.audits += s.audits
		sum.uncovered += s.uncovered
		if s.lat != nil {
			if sum.lat == nil {
				sum.lat = make([]int64, len(s.lat))
			}
			for b, c := range s.lat {
				sum.lat[b] += c
			}
		}
	}
	return sum
}

// latBoundsMs are obs.LatencyBuckets converted to milliseconds.
var latBoundsMs = func() []float64 {
	out := make([]float64, len(obs.LatencyBuckets))
	for i, s := range obs.LatencyBuckets {
		out[i] = s * 1000
	}
	return out
}()

// monitor is the SLO evaluation state.
type monitor struct {
	mu     sync.Mutex
	specs  []SLOSpec
	global *tsRing
	// tables holds per-table audit rings; the "" key aggregates all.
	tables   map[string]*tsRing
	breached map[string]bool
	reg      *obs.Registry
	alerts   *alert.Bus
}

func newMonitor(specs []SLOSpec, reg *obs.Registry, alerts *alert.Bus) *monitor {
	m := &monitor{
		specs:    append([]SLOSpec(nil), specs...),
		global:   newTSRing(),
		tables:   map[string]*tsRing{},
		breached: map[string]bool{},
		reg:      reg,
		alerts:   alerts,
	}
	for i := range m.specs {
		if m.specs[i].Objective <= 0 || m.specs[i].Objective >= 1 {
			m.specs[i].Objective = 0.99
		}
	}
	return m
}

// recordQuery folds one finished (or failed) query at unix-second sec.
func (m *monitor) recordQuery(sec int64, totalMs float64, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bi := sort.SearchFloat64s(latBoundsMs, totalMs)
	for i := range ringRes {
		s := m.global.slotAt(i, sec)
		s.n++
		if outcome == "error" {
			s.errs++
		}
		if s.lat == nil {
			s.lat = make([]int64, len(latBoundsMs)+1)
		}
		s.lat[bi]++
	}
}

func (m *monitor) recordReject(sec int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range ringRes {
		m.global.slotAt(i, sec).rejects++
	}
}

func (m *monitor) recordAudit(sec int64, table string, covered bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range []string{"", table} {
		r, ok := m.tables[key]
		if !ok {
			r = newTSRing()
			m.tables[key] = r
		}
		for i := range ringRes {
			s := r.slotAt(i, sec)
			s.audits++
			if !covered {
				s.uncovered++
			}
		}
		if table == "" {
			break
		}
	}
}

// goodLatency counts window events with latency ≤ thresholdMs using the
// bucket whose bound first reaches the threshold (i.e. the threshold is
// rounded up to a bucket bound; +Inf never counts).
func goodLatency(lat []int64, thresholdMs float64) int64 {
	if lat == nil {
		return 0
	}
	cut := sort.SearchFloat64s(latBoundsMs, thresholdMs)
	if cut < len(latBoundsMs) {
		cut++ // the bucket containing the threshold counts good
	}
	var good int64
	for i := 0; i < cut && i < len(lat); i++ {
		good += lat[i]
	}
	return good
}

// evaluate computes every spec's status at unix-second now, exporting
// gauges and breach transitions to the registry when one is attached and
// raising/resolving burn alerts on the alert bus when one is attached.
func (m *monitor) evaluate(now int64) []SLOStatus {
	m.mu.Lock()
	out := make([]SLOStatus, 0, len(m.specs))
	var began, ended []SLOStatus // breach transitions, alerted outside mu
	for _, spec := range m.specs {
		st := SLOStatus{Spec: spec, GoodFraction: 1}
		w := spec.windowSec()
		switch spec.Kind {
		case SLOCoverage:
			if r, ok := m.tables[spec.Table]; ok {
				sum := r.window(now, w)
				st.Events = sum.audits
				st.Bad = sum.uncovered
			}
		case SLOAvailability:
			sum := m.global.window(now, w)
			st.Events = sum.n + sum.rejects
			st.Bad = sum.errs + sum.rejects
		default: // SLOLatency
			sum := m.global.window(now, w)
			st.Events = sum.n
			st.Bad = sum.n - goodLatency(sum.lat, spec.ThresholdMs)
		}
		budget := 1 - spec.Objective
		if st.Events > 0 {
			bad := float64(st.Bad) / float64(st.Events)
			st.GoodFraction = 1 - bad
			st.BurnRate = bad / budget
		}
		st.BudgetRemaining = 1 - st.BurnRate
		st.Breaching = st.BurnRate > 1
		if math.IsNaN(st.BurnRate) || math.IsInf(st.BurnRate, 0) {
			st.BurnRate, st.BudgetRemaining = 0, 1
		}
		was := m.breached[st.Spec.Name]
		m.exportLocked(st, was)
		m.breached[st.Spec.Name] = st.Breaching
		if st.Breaching && !was {
			began = append(began, st)
		} else if !st.Breaching && was {
			ended = append(ended, st)
		}
		out = append(out, st)
	}
	m.mu.Unlock()
	for _, st := range began {
		sev := alert.SeverityWarning
		if st.BurnRate >= 2 {
			sev = alert.SeverityCritical
		}
		m.alerts.Raise(alert.Alert{
			Source: "slo", Kind: "burn", Key: st.Spec.Name, Severity: sev,
			Observed: st.BurnRate, Expected: 1,
			Message: fmt.Sprintf(
				"SLO %s (%s, objective %.3g): burn rate %.2f over %ds window — error budget consuming faster than the objective allows",
				st.Spec.Name, st.Spec.Kind, st.Spec.Objective, st.BurnRate, st.Spec.windowSec()),
		})
	}
	for _, st := range ended {
		m.alerts.Resolve("slo", "burn", st.Spec.Name)
	}
	return out
}

func (m *monitor) exportLocked(st SLOStatus, was bool) {
	if m.reg == nil {
		return
	}
	name := st.Spec.Name
	m.reg.GaugeFloat("aqp_slo_burn_rate",
		"Error-budget burn rate per SLO (above 1 = breaching).",
		"slo", name).Set(st.BurnRate)
	m.reg.GaugeFloat("aqp_slo_good_fraction",
		"Good-event fraction in the SLO's sliding window.",
		"slo", name).Set(st.GoodFraction)
	breach := int64(0)
	if st.Breaching {
		breach = 1
	}
	m.reg.Gauge("aqp_slo_breaching",
		"1 while the SLO's burn rate exceeds 1.", "slo", name).Set(breach)
	if st.Breaching && !was {
		m.reg.Counter("aqp_slo_breaches_total",
			"Transitions into breach, per SLO.", "slo", name).Inc()
	}
}
