package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Pred is a conjunction of up to three simple predicates.
type Pred struct {
	// City, when non-empty, adds City = '<City>'.
	City string
	// HasDay adds Day >= DayLo AND Day <= DayHi.
	HasDay       bool
	DayLo, DayHi int64
	// UniformLt, when positive, adds Uniform < UniformLt. The benchmark
	// only uses values above the column's maximum (999): the conjunct is
	// always true and exists to make the SQL text unique, which busts the
	// answer cache without changing the work.
	UniformLt float64
}

// Query is one single-aggregate query in structured form, so the SQL text
// sent to the server and the plain-loop oracle are derived from the same
// value.
type Query struct {
	// Agg is a built-in aggregate (MIN, MAX, COUNT, AVG, SUM, VARIANCE,
	// STDEV, PERCENTILE) or the name of a workload.UDFLibrary entry.
	Agg string
	// Col is the measure column ("" for COUNT(*)).
	Col string
	// Pct is the PERCENTILE level.
	Pct     float64
	Pred    Pred
	GroupBy string
}

// SQL renders the query text the server receives.
func (q Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch q.Agg {
	case "COUNT":
		b.WriteString("COUNT(*)")
	case "PERCENTILE":
		fmt.Fprintf(&b, "PERCENTILE(%s, %s)", q.Col, strconv.FormatFloat(q.Pct, 'g', -1, 64))
	default:
		fmt.Fprintf(&b, "%s(%s)", q.Agg, q.Col)
	}
	b.WriteString(" FROM " + TableName)
	var conj []string
	if q.Pred.City != "" {
		conj = append(conj, "City = '"+q.Pred.City+"'")
	}
	if q.Pred.HasDay {
		conj = append(conj, fmt.Sprintf("Day >= %d AND Day <= %d", q.Pred.DayLo, q.Pred.DayHi))
	}
	if q.Pred.UniformLt > 0 {
		conj = append(conj, "Uniform < "+strconv.FormatFloat(q.Pred.UniformLt, 'g', -1, 64))
	}
	if len(conj) > 0 {
		b.WriteString(" WHERE " + strings.Join(conj, " AND "))
	}
	if q.GroupBy != "" {
		b.WriteString(" GROUP BY " + q.GroupBy)
	}
	return b.String()
}

// Slot is one position in a workload's replay list. Slot i of a workload is
// the same query on every pass of every run with the same seed, except
// Fresh slots, whose cache-busting literal changes every pass.
type Slot struct {
	ID    int
	Class string
	Query Query
	Fresh bool
}

// Transport names a client connection kind.
type Transport string

const (
	Wire Transport = "wire"
	HTTP Transport = "http"
)

// Workload is one fixed traffic mix.
type Workload struct {
	Name string
	// Conns are the closed-loop client connections; slot i always goes to
	// Conns[i % len(Conns)].
	Conns []Transport
	// CacheMB is the server's block/answer cache budget (0 = caching off).
	CacheMB int
	// N is the slot count; Passes is the number of timed passes P (odd) at
	// the reference run length RefSeconds. Both are sized so that the timed
	// part takes about RefSeconds on a 2-core box.
	N, Passes int
	// MinApproximate is the fewest approximately-answered aggregates a full
	// run must find: about half of what the workload has at the committed
	// code, so that the quality metrics never rest on a handful of values.
	MinApproximate int
	// Shares are the exact class shares the slot list is apportioned to.
	Shares []ClassShare
	build  func(b *slotBuilder, class string, n int) []Slot
}

// ClassShare is one aggregate class and its share of a workload's slots.
type ClassShare struct {
	Class string
	Share float64
}

// RefSeconds is the run length Workload.Passes is sized for; --seconds
// scales the pass count linearly (kept odd, at least 3).
const RefSeconds = 20

// PassesFor returns the timed pass count for a run of the given length.
func (w *Workload) PassesFor(seconds int) int {
	p := (w.Passes*seconds + RefSeconds/2) / RefSeconds
	if p%2 == 0 {
		p--
	}
	if p < 3 {
		p = 3
	}
	return p
}

// QueryFor returns the query slot s issues on the given pass (0 is the
// warm-up pass).
func (w *Workload) QueryFor(s Slot, pass int) Query {
	q := s.Query
	if s.Fresh {
		q.Pred.UniformLt = float64(1001 + pass*w.N + s.ID)
	}
	return q
}

// Every Day range predicate of a workload has one fixed width, so
// selectivity — and with it the work — does not depend on the seed; only the
// window's position does. dayWindow is a tenth of the table;
// closedFormWindow is a third, wide enough for the diagnostic's subsamples to
// hold enough matching rows to accept the query.
const (
	dayWindow        = 9
	closedFormWindow = 30
)

// bigCities is how many of the (Zipf-ordered) cities closed_form's City
// predicates use: NYC, SF and LA hold 41%, 19% and 12% of the rows.
const bigCities = 3

var percentiles = []float64{0.5, 0.9, 0.95, 0.99}

// apportion splits n into integer counts proportional to shares by the
// largest-remainder method (ties to the lower index), so class shares are
// exact rather than sampled.
func apportion(n int, shares []float64) []int {
	total := 0.0
	for _, s := range shares {
		total += s
	}
	counts := make([]int, len(shares))
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, len(shares))
	used := 0
	for i, s := range shares {
		exact := float64(n) * s / total
		counts[i] = int(exact + 1e-9)
		rems[i] = rem{i, exact - float64(counts[i])}
		used += counts[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for k := 0; used < n; k++ {
		counts[rems[k%len(rems)].i]++
		used++
	}
	return counts
}

// slotBuilder hands out columns, cities, UDFs and percentile levels
// round-robin (so their shares are as even as the class shares are exact,
// and the same (aggregate, column, city) combinations — whose diagnostic
// verdicts decide how much work a slot is — occur for every seed) and draws
// only the Day window positions from the seed.
//
// Not even all of those: where a window sits decides whether the diagnostic
// accepts a query it may accept, and how far the estimate lands from the
// truth, so with every window seeded the quality metrics — medians over a
// few dozen to a few hundred aggregates — spread by up to 15% from seed to
// seed. Queries the diagnostic may accept therefore draw their window from
// fixed, a stream that is the same for every seed; queries it always rejects
// (MIN and MAX, anything grouped, VARIANCE/STDEV over LogNormalMild), whose
// answers are exact wherever the window sits, draw theirs from src.
type slotBuilder struct {
	src, fixed                       *rng.Source
	benign, adversarial              []string
	nBenign, nAdv, nCity, nUDF, nPct int
}

func newSlotBuilder(seed uint64) *slotBuilder {
	b := &slotBuilder{src: rng.NewWithStream(seed, 0x5107), fixed: rng.NewWithStream(windowSeed, 0xF1ED)}
	for _, m := range Measures {
		if m.Adversarial {
			b.adversarial = append(b.adversarial, m.Name)
		} else {
			b.benign = append(b.benign, m.Name)
		}
	}
	return b
}

func (b *slotBuilder) column(adversarial bool) string {
	if adversarial {
		b.nAdv++
		return b.adversarial[b.nAdv%len(b.adversarial)]
	}
	b.nBenign++
	return b.benign[b.nBenign%len(b.benign)]
}

// cityPred hands out the first n cities round-robin, starting each round
// one city later so that a column list of the same length does not pair
// every column with one city.
func (b *slotBuilder) cityPred(n int) Pred {
	b.nCity++
	return Pred{City: Cities[(b.nCity+b.nCity/n)%n]}
}

// windowSeed seeds the window positions that do not move with --seed.
const windowSeed = 12

// dayPred draws the position of a Day window of the given width: from the
// seed, or, when the position may decide the diagnostic's verdict, from the
// fixed stream.
func (b *slotBuilder) dayPred(width int, decides bool) Pred {
	src := b.src
	if decides {
		src = b.fixed
	}
	lo := int64(src.Intn(Days - width + 1))
	return Pred{HasDay: true, DayLo: lo, DayHi: lo + int64(width) - 1}
}

// aggregate fills in the aggregate of a class: UDF classes cycle through
// the workload UDF library, PERCENTILE through the fixed levels.
func (b *slotBuilder) aggregate(class, col string) Query {
	q := Query{Agg: class, Col: col}
	switch class {
	case "COUNT":
		q.Col = ""
	case "UDF":
		b.nUDF++
		q.Agg = workload.UDFLibrary[b.nUDF%len(workload.UDFLibrary)].Name
	case "PERCENTILE":
		b.nPct++
		q.Pct = percentiles[b.nPct%len(percentiles)]
	}
	return q
}

// cells expands n slots of one class over the cross product of option
// lists, each option with a share, by nested largest-remainder
// apportionment; fn receives the chosen option index per dimension.
func cells(n int, dims [][]float64, fn func(choice []int)) {
	var rec func(n, d int, choice []int)
	rec = func(n, d int, choice []int) {
		if d == len(dims) {
			for i := 0; i < n; i++ {
				fn(choice)
			}
			return
		}
		for opt, cnt := range apportion(n, dims[d]) {
			rec(cnt, d+1, append(choice, opt))
		}
	}
	rec(n, 0, nil)
}

// Workloads returns the four workloads in reporting order.
func Workloads() []*Workload {
	return []*Workload{fbMix(), closedForm(), groupFanout(), dashboardRepeat()}
}

// WorkloadByName returns the named workload, or nil.
func WorkloadByName(name string) *Workload {
	for _, w := range Workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// fbMix: the paper's §3 Facebook aggregate shares over benign and
// heavy-tailed columns on two connections. Its time is owned by
// kernel.Generic, the diagnostic and exact-fallback scans, so it is where
// bootstrap-path and fallback work shows, and it is the only workload with
// two queries in flight.
func fbMix() *Workload {
	return &Workload{
		Name:  "fb_mix",
		Conns: []Transport{Wire, HTTP},
		N:     240, Passes: 3,
		MinApproximate: 25,
		Shares: []ClassShare{
			{"MIN", 0.3335}, {"COUNT", 0.2467}, {"AVG", 0.1220}, {"SUM", 0.1011},
			{"MAX", 0.0287}, {"UDF", 0.1101}, {"VARIANCE", 0.0193}, {"STDEV", 0.0193},
			{"PERCENTILE", 0.0193},
		},
		build: func(b *slotBuilder, class string, n int) []Slot {
			var out []Slot
			// column: 70% benign / 30% adversarial; predicate: none / City /
			// Day; 30% under GROUP BY City.
			cells(n, [][]float64{{0.7, 0.3}, {0.5, 0.25, 0.25}, {0.7, 0.3}}, func(c []int) {
				q := b.aggregate(class, b.column(c[0] == 1))
				grouped := c[2] == 1
				switch {
				case c[1] == 1 && !grouped:
					q.Pred = b.cityPred(len(Cities))
				case c[1] != 0:
					q.Pred = b.dayPred(dayWindow, !grouped && class != "MIN" && class != "MAX")
				}
				if grouped {
					q.GroupBy = "City"
				}
				out = append(out, Slot{Class: class, Query: q})
			})
			return out
		},
	}
}

// closedForm: closed-form aggregates with Day-window and City predicates on
// one wire connection. Queries take milliseconds, so wire, serve, sql, plan
// and the zone-skipped scan weigh most here; it never enters the bootstrap
// kernel, so a kernel optimisation must show no change.
//
// The diagnostic decides how much work a query is — a reject adds an exact
// scan of the table — and at a 50,000-row sample it accepts AVG/SUM/COUNT
// over the symmetric and exponential columns and VARIANCE/STDEV over the
// symmetric ones, and rejects VARIANCE/STDEV over LogNormalMild every time.
// The columns are handed out accordingly: VARIANCE and STDEV take
// LogNormalMild for a third of their slots, so 2/15 of the workload is the
// fallback path on purpose and the rest are queries the diagnostic accepts
// (bar one in ten). The tail percentile then lies inside the rejected class
// and the median inside the accepted one, for every seed. 70% Day / 30% City.
func closedForm() *Workload {
	return &Workload{
		Name:  "closed_form",
		Conns: []Transport{Wire},
		N:     480, Passes: 5,
		MinApproximate: 120,
		Shares: []ClassShare{
			{"AVG", 0.2}, {"COUNT", 0.2}, {"SUM", 0.2}, {"VARIANCE", 0.2}, {"STDEV", 0.2},
		},
		build: func(b *slotBuilder, class string, n int) []Slot {
			cols := []string{"Gaussian", "Uniform", "Exponential"}
			if class == "VARIANCE" || class == "STDEV" {
				cols[2] = "LogNormalMild"
			}
			var out []Slot
			cells(n, [][]float64{{0.7, 0.3}}, func(c []int) {
				q := b.aggregate(class, cols[len(out)%len(cols)])
				if c[0] == 0 {
					q.Pred = b.dayPred(closedFormWindow, q.Col != "LogNormalMild")
				} else {
					q.Pred = b.cityPred(bigCities)
				}
				out = append(out, Slot{Class: class, Query: q})
			})
			return out
		},
	}
}

// groupFanout: closed-form and MIN/MAX aggregates under GROUP BY Device (40
// groups) and City (6) on one HTTP connection. A result waits for every
// group's estimator and diagnostic, and answers are 40 rows, so the group
// table and resultset/JSON encoding do real work here and almost none in
// closedForm. 60% carry a Day window so the median slot lies inside the
// windowed class, not between the two.
func groupFanout() *Workload {
	return &Workload{
		Name:  "group_fanout",
		Conns: []Transport{HTTP},
		N:     240, Passes: 3,
		MinApproximate: 6,
		Shares: []ClassShare{
			{"AVG", 0.25}, {"COUNT", 0.20}, {"SUM", 0.15}, {"MIN", 0.25}, {"MAX", 0.15},
		},
		build: func(b *slotBuilder, class string, n int) []Slot {
			var out []Slot
			cells(n, [][]float64{{0.5, 0.5}, {0.4, 0.6}}, func(c []int) {
				q := b.aggregate(class, b.column(false))
				q.GroupBy = "Device"
				if c[0] == 1 {
					q.GroupBy = "City"
				}
				if c[1] == 1 {
					q.Pred = b.dayPred(dayWindow, false)
				}
				out = append(out, Slot{Class: class, Query: q})
			})
			return out
		},
	}
}

// dashboardPanels is the number of fixed panel queries dashboard_repeat
// replays verbatim.
const dashboardPanels = 20

// panelQueries are dashboard_repeat's panels: the same twenty queries for
// every seed, as a dashboard's are from one day to the next. (With their Day
// windows drawn from the seed, the sixty-odd approximate aggregates behind
// the quality metrics changed from seed to seed, and coverage with them,
// between 0.74 and 1.)
func panelQueries() []Query {
	b := newSlotBuilder(dashboardPanels)
	aggs := []string{"AVG", "COUNT", "SUM", "STDEV", "MAX"}
	var panels []Query
	for k := 0; k < dashboardPanels; k++ {
		q := b.aggregate(aggs[k%len(aggs)], Measures[k%len(Measures)].Name)
		switch {
		case k%4 == 3:
			q.GroupBy = "City"
			q.Pred = b.dayPred(dayWindow, true)
		case k%2 == 0:
			q.Pred = b.cityPred(len(Cities))
		default:
			q.Pred = b.dayPred(dayWindow, true)
		}
		panels = append(panels, q)
	}
	return panels
}

// dashboardRepeat: an 8 MiB cache (holds the decoded sample, not the decoded
// table), 70% verbatim repeats of 20 panel queries (answer replay before
// admission) beside 30% cache-busting variants of the same panels
// (answer-cache miss, block-cache hit on the sample, fallback scan of the
// table through the cache): the same table/cache/exec code used two ways, so
// a gain for repeats that costs misses shows. The seed drives the slot order
// and the cache-busting literals.
func dashboardRepeat() *Workload {
	panels := panelQueries()
	return &Workload{
		Name:    "dashboard_repeat",
		Conns:   []Transport{HTTP},
		CacheMB: 8,
		N:       480, Passes: 9,
		MinApproximate: 25,
		Shares:         []ClassShare{{"repeat", 0.7}, {"miss", 0.3}},
		build: func(b *slotBuilder, class string, n int) []Slot {
			out := make([]Slot, n)
			for i := range out {
				out[i] = Slot{Class: class, Query: panels[i%len(panels)], Fresh: class == "miss"}
			}
			return out
		},
	}
}

// Slots generates the workload's slot list from seed: class counts are
// apportioned exactly, attributes within a class are stratified, and the
// seed drives literal positions and the slot order.
//
// The order is a seeded shuffle within each connection's share, not of the
// whole list: slots are generated cell by cell (neighbours cost alike) and
// dealt round-robin to the connections before shuffling, so every
// connection gets the same mix for every seed. A free shuffle left fb_mix's
// ten ~150 ms slots split unevenly between its two connections, and the
// pass — as long as the busier connection — moved qps by 8–11% across seeds.
func (w *Workload) Slots(seed uint64, n int) []Slot {
	b := newSlotBuilder(seed)
	shares := make([]float64, len(w.Shares))
	for i, cs := range w.Shares {
		shares[i] = cs.Share
	}
	var slots []Slot
	for i, cnt := range apportion(n, shares) {
		slots = append(slots, w.build(b, w.Shares[i].Class, cnt)...)
	}
	conns := len(w.Conns)
	for c := 0; c < conns; c++ {
		// Positions c, c+conns, c+2·conns, … are connection c's.
		m := (len(slots) - c + conns - 1) / conns
		b.src.Shuffle(m, func(i, j int) {
			slots[c+i*conns], slots[c+j*conns] = slots[c+j*conns], slots[c+i*conns]
		})
	}
	for i := range slots {
		slots[i].ID = i
	}
	return slots
}
