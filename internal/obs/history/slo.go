package history

// The latency/availability SLO monitor. Specs are declarative ("p99
// latency ≤ 250ms", "99.9% of requests served"); each is evaluated over
// the last five minutes, read from one in-memory ring of 10s slots. The
// exported number is the SRE error-budget burn rate:
//
//	budget    = 1 - Objective            (allowed bad fraction)
//	burn rate = badFraction / budget
//
// burn 1.0 means the window is consuming its budget exactly as fast as
// the objective allows; above 1.0 the SLO is breaching. Interval coverage
// is not an SLO: the calibration watchdog holds it to the nominal level.

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
	// SLOAvailability: an event is bad when the query failed with an
	// engine error or was rejected at admission. Cancellations (client
	// abandoned) count as good.
	SLOAvailability = "availability"
)

// SLOSpec declares one objective.
type SLOSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "latency" | "availability"
	// Objective is the target good-event fraction in (0,1).
	Objective float64 `json:"objective"`
	// ThresholdMs is the latency cut-off (latency SLOs only). It is
	// effectively rounded up to the nearest latency-bucket bound.
	ThresholdMs float64 `json:"threshold_ms,omitempty"`
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

// Ring geometry. Every spec reads the last windowSec seconds: the slots
// whose start lies in (now-windowSec-slotSec+1, now], at most
// windowSec/slotSec+1 of them. ringSlots keeps one more, so a slot that a
// window reads is reused only by an event stamped more than a slot after
// that window's now.
const (
	windowSec = 300
	slotSec   = 10
	ringSlots = windowSec/slotSec + 2
)

// tsSlot is one time slot of event counts. lat is indexed like
// obs.LatencyBuckets (+Inf tail).
type tsSlot struct {
	start   int64 // aligned unix sec; 0 = empty
	n       int64 // finished queries
	errs    int64 // outcome "error"
	rejects int64 // admission rejections
	lat     []int64
}

// tsRing is the event stream, one slot per slotSec seconds.
type tsRing [ringSlots]tsSlot

// slotAt returns the (reset-if-stale) slot for sec.
func (r *tsRing) slotAt(sec int64) *tsSlot {
	aligned := (sec / slotSec) * slotSec
	s := &r[int(aligned/slotSec)%ringSlots]
	if s.start != aligned {
		*s = tsSlot{start: aligned}
	}
	return s
}

// window sums the slots covering (now-windowSec, now].
func (r *tsRing) window(now int64) tsSlot {
	var sum tsSlot
	lo := now - windowSec
	for j := range r {
		s := &r[j]
		if s.start == 0 || s.start <= lo-slotSec+1 || s.start > now {
			continue
		}
		sum.n += s.n
		sum.errs += s.errs
		sum.rejects += s.rejects
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
	mu       sync.Mutex
	specs    []SLOSpec
	ring     tsRing
	breached map[string]bool
	reg      *obs.Registry
	alerts   *alert.Bus
}

func newMonitor(specs []SLOSpec, reg *obs.Registry, alerts *alert.Bus) *monitor {
	m := &monitor{
		specs:    append([]SLOSpec(nil), specs...),
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
	s := m.ring.slotAt(sec)
	s.n++
	if outcome == "error" {
		s.errs++
	}
	if s.lat == nil {
		s.lat = make([]int64, len(latBoundsMs)+1)
	}
	s.lat[sort.SearchFloat64s(latBoundsMs, totalMs)]++
}

func (m *monitor) recordReject(sec int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ring.slotAt(sec).rejects++
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
	sum := m.ring.window(now)
	for _, spec := range m.specs {
		st := SLOStatus{Spec: spec, GoodFraction: 1}
		if spec.Kind == SLOAvailability {
			st.Events = sum.n + sum.rejects
			st.Bad = sum.errs + sum.rejects
		} else { // SLOLatency
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
				st.Spec.Name, st.Spec.Kind, st.Spec.Objective, st.BurnRate, windowSec),
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
