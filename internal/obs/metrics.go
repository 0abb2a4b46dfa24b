package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op, so callers can thread counters
// through hot paths unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (in-flight queries, queue depth).
// Unlike Counter it may go down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set overwrites the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// GaugeF is an atomic float-valued gauge for ratio-scale instantaneous
// values (empirical coverage, reject rates) that the integer Gauge cannot
// represent. A nil *GaugeF is a no-op.
type GaugeF struct {
	v atomic.Uint64 // float64 bits
}

// Set overwrites the gauge value.
func (g *GaugeF) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *GaugeF) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram is a fixed-bucket latency/throughput histogram with atomic
// buckets. Bounds are upper bucket boundaries in ascending order; an
// implicit +Inf bucket catches the tail. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Default bucket layouts for the repo's metric families.
var (
	// LatencyBuckets spans 100µs local stages to minute-scale fallbacks.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
	// ThroughputBuckets covers kernel rates from 10⁴ to 10⁹ rows/s.
	ThroughputBuckets = []float64{
		1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9,
	}
)

// family is one metric name with its help text, type and label series.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "gaugef" | "histogram"
	bounds []float64
	series map[string]any // label string -> *Counter | *Gauge | *GaugeF | *Histogram
	order  []string       // label strings in registration order
}

// Registry holds named counters and histograms and renders them in the
// Prometheus text exposition format. A nil *Registry is a no-op: every
// lookup returns a nil metric whose methods do nothing, so instrumented
// code pays a single branch when telemetry is disabled.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter returns (registering on first use) the counter with the given
// name and label pairs ("key", "value", ...). Help text is set on first
// registration. Mismatched metric types return a nil no-op metric.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.metric(name, help, "counter", nil, labels)
	c, _ := m.(*Counter)
	return c
}

// Gauge returns (registering on first use) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.metric(name, help, "gauge", nil, labels)
	g, _ := m.(*Gauge)
	return g
}

// GaugeFloat returns (registering on first use) the float-valued gauge
// with the given name and label pairs. It shares the Prometheus "gauge"
// type with Gauge but holds a float64 — use it for ratios and rates.
func (r *Registry) GaugeFloat(name, help string, labels ...string) *GaugeF {
	if r == nil {
		return nil
	}
	m := r.metric(name, help, "gaugef", nil, labels)
	g, _ := m.(*GaugeF)
	return g
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket bounds and label pairs. Bounds are fixed at first
// registration of the family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.metric(name, help, "histogram", bounds, labels)
	h, _ := m.(*Histogram)
	return h
}

func (r *Registry) metric(name, help, typ string, bounds []float64, labels []string) any {
	key := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bounds: bounds,
			series: map[string]any{}}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		return nil // type clash: degrade to a no-op rather than corrupt
	}
	s, ok := f.series[key]
	if !ok {
		switch typ {
		case "counter":
			s = &Counter{}
		case "gauge":
			s = &Gauge{}
		case "gaugef":
			s = &GaugeF{}
		default:
			s = newHistogram(f.bounds)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// labelString renders ("k","v","k2","v2") as `k="v",k2="v2"`. Pairs keep
// their given order; an odd trailing key is dropped.
func labelString(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, one line per
// series, cumulative histogram buckets with an explicit +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	// Registration is rare and cheap; hold the lock for the whole render.
	// Series values are atomics, so in-flight Add/Observe never block.
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name,
				strings.ReplaceAll(strings.ReplaceAll(f.help, `\`, `\\`), "\n", `\n`))
		}
		typ := f.typ
		if typ == "gaugef" {
			typ = "gauge" // the exposition format has no float/int split
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ)
		for _, key := range f.order {
			switch m := f.series[key].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabels(key), m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabels(key), m.Value())
			case *GaugeF:
				fmt.Fprintf(w, "%s%s %s\n", f.name, wrapLabels(key), formatFloat(m.Value()))
			case *Histogram:
				cum := int64(0)
				for i, b := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						wrapLabels(joinLabels(key, `le="`+formatFloat(b)+`"`)), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					wrapLabels(joinLabels(key, `le="+Inf"`)), m.Count())
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, wrapLabels(key), formatFloat(m.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrapLabels(key), m.Count())
			}
		}
	}
}

func wrapLabels(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
