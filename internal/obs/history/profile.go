package history

// The online workload profiler. Every finished query folds into one
// profile per (table, sample, aggregate-kind, predicate-signature) key;
// every watchdog audit folds its coverage outcome into the same key.
// Profiles are exactly the priors a constraint planner needs: "for a median
// over Sessions' 1%-sample with predicate shape (time > ?), selectivity
// is ~0.3 (p99 0.5), relative CI width ~1.2% at sample fraction 0.01,
// the bootstrap ran 100 replicates, and audited coverage is 94%".
// Distributions are tracked as mean + Greenwald–Khanna sketch quantiles,
// so memory per profile is bounded regardless of query count.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Key identifies one workload profile.
type Key struct {
	Table string `json:"table"`
	// Sample is the sample-size label ("exact" or the row count).
	Sample string `json:"sample"`
	// Agg is the aggregate kind ("AVG", "SUM", ..., or a UDF name).
	Agg string `json:"agg"`
	// Predicate is the canonical predicate signature.
	Predicate string `json:"predicate"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", k.Table, k.Sample, k.Agg, k.Predicate)
}

// Dist summarizes one tracked distribution: observation count, mean, and
// GK-sketch quantiles (each within the sketch's rank guarantee).
type Dist struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// Profile is the exported snapshot of one profile key.
type Profile struct {
	Key     Key   `json:"key"`
	Queries int64 `json:"queries"`
	// Selectivity is the observed fraction of inspected rows passing the
	// predicate.
	Selectivity Dist `json:"selectivity"`
	// RelWidth is the relative CI half-width of this aggregate kind's
	// estimates (undefined-rel-err aggregates excluded).
	RelWidth Dist `json:"rel_width"`
	// SampleFraction is the mean sample-rows/population-rows ratio, the
	// x-axis against which RelWidth is the y.
	SampleFraction float64 `json:"sample_fraction"`
	// KBudgetMean/KUsedMean/KUsedMax track the bootstrap replicate count
	// plans allowed versus the count their aggregates ran.
	KBudgetMean float64 `json:"k_budget_mean"`
	KUsedMean   float64 `json:"k_used_mean"`
	KUsedMax    int     `json:"k_used_max"`
	// StagesMs is the per-stage latency distribution in milliseconds.
	StagesMs map[string]Dist `json:"stages_ms,omitempty"`
	// Audits/Covered/Coverage are the watchdog's ground-truth verdicts for
	// this key; Coverage is 0 until the first audit lands. It is a count,
	// held to no target (the watchdog judges coverage), and the only view
	// of it that Replay can rebuild for a process that is gone.
	Audits   int64   `json:"audits"`
	Covered  int64   `json:"covered"`
	Coverage float64 `json:"coverage"`
	// Rejected counts aggregates the runtime diagnostic rejected; FellBack
	// counts queries that fell back to exact execution.
	Rejected   int64            `json:"rejected"`
	FellBack   int64            `json:"fell_back"`
	Techniques map[string]int64 `json:"techniques,omitempty"`
}

// distAcc accumulates one distribution online.
type distAcc struct {
	n   int64
	sum float64
	gk  *stats.GKSketch
}

// profileEpsilon is the GK-sketch rank error of profile quantiles.
const profileEpsilon = 0.02

func newDistAcc() *distAcc {
	return &distAcc{gk: stats.NewGKSketch(profileEpsilon)}
}

func (d *distAcc) add(v float64) {
	d.n++
	d.sum += v
	d.gk.Add(v)
}

func (d *distAcc) snapshot() Dist {
	if d == nil || d.n == 0 {
		return Dist{}
	}
	return Dist{
		N:    d.n,
		Mean: d.sum / float64(d.n),
		P50:  d.gk.Quantile(0.50),
		P90:  d.gk.Quantile(0.90),
		P99:  d.gk.Quantile(0.99),
	}
}

// profAcc is the mutable per-key state behind a Profile.
type profAcc struct {
	queries    int64
	sel        *distAcc
	rel        *distAcc
	fracSum    float64
	fracN      int64
	kBudgetSum int64
	kUsedSum   int64
	kUsedN     int64
	kUsedMax   int
	stages     map[string]*distAcc
	audits     int64
	covered    int64
	rejected   int64
	fellBack   int64
	techniques map[string]int64
}

// profiler folds records into keyed profiles. It has its own lock so the
// HTTP surfaces never contend with the store's write path beyond a map
// read.
type profiler struct {
	mu   sync.Mutex
	accs map[Key]*profAcc
}

func newProfiler() *profiler {
	return &profiler{accs: map[Key]*profAcc{}}
}

func (p *profiler) acc(k Key) *profAcc {
	a, ok := p.accs[k]
	if !ok {
		a = &profAcc{
			sel:        newDistAcc(),
			rel:        newDistAcc(),
			stages:     map[string]*distAcc{},
			techniques: map[string]int64{},
		}
		p.accs[k] = a
	}
	return a
}

// fold folds one record into its profile; rejections carry no profile key.
func (p *profiler) fold(rec *Record) {
	switch {
	case rec.Query != nil:
		p.foldQuery(rec.Query)
	case rec.Audit != nil:
		p.foldAudit(rec.Audit)
	}
}

// foldQuery folds one finished query. Queries with several aggregate
// kinds contribute to several keys: query-level facts (selectivity,
// stage latencies, sample fraction, K) fold once per distinct kind,
// aggregate-level facts once per aggregate.
func (p *profiler) foldQuery(q *obs.QueryRecord) {
	if q.Outcome != "ok" || q.Table == "" {
		return // failed queries carry no calibrated shape to learn from
	}
	byKind := map[string][]*obs.AggRecord{}
	order := []string{}
	for i := range q.Aggs {
		a := &q.Aggs[i]
		if _, ok := byKind[a.Kind]; !ok {
			order = append(order, a.Kind)
		}
		byKind[a.Kind] = append(byKind[a.Kind], a)
	}
	if len(order) == 0 {
		order = append(order, "")
		byKind[""] = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, kind := range order {
		acc := p.acc(Key{Table: q.Table, Sample: q.Sample, Agg: kind,
			Predicate: q.Predicate})
		acc.queries++
		if q.Selectivity >= 0 {
			acc.sel.add(q.Selectivity)
		}
		if q.SampleFraction > 0 {
			acc.fracSum += q.SampleFraction
			acc.fracN++
		}
		if q.KBudget > 0 {
			acc.kBudgetSum += int64(q.KBudget)
		}
		if q.KUsed > 0 {
			acc.kUsedSum += int64(q.KUsed)
			acc.kUsedN++
			if q.KUsed > acc.kUsedMax {
				acc.kUsedMax = q.KUsed
			}
		}
		for stage, ms := range q.StagesMs {
			d, ok := acc.stages[stage]
			if !ok {
				d = newDistAcc()
				acc.stages[stage] = d
			}
			d.add(ms)
		}
		if q.FellBack {
			acc.fellBack++
		}
		for _, a := range byKind[kind] {
			if a.RelErr >= 0 {
				acc.rel.add(a.RelErr)
			}
			if a.Technique != "" {
				acc.techniques[a.Technique]++
			}
			if a.Rejected {
				acc.rejected++
			}
		}
	}
}

// foldAudit folds one watchdog audit outcome.
func (p *profiler) foldAudit(a *obs.AuditRecord) {
	if a.Table == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	acc := p.acc(Key{Table: a.Table, Sample: a.Sample, Agg: a.Kind,
		Predicate: a.Predicate})
	acc.audits++
	if a.Covered {
		acc.covered++
	}
}

func (a *profAcc) snapshot(k Key) Profile {
	pr := Profile{
		Key:         k,
		Queries:     a.queries,
		Selectivity: a.sel.snapshot(),
		RelWidth:    a.rel.snapshot(),
		KUsedMax:    a.kUsedMax,
		Audits:      a.audits,
		Covered:     a.covered,
		Rejected:    a.rejected,
		FellBack:    a.fellBack,
	}
	if a.fracN > 0 {
		pr.SampleFraction = a.fracSum / float64(a.fracN)
	}
	if a.queries > 0 {
		pr.KBudgetMean = float64(a.kBudgetSum) / float64(a.queries)
	}
	if a.kUsedN > 0 {
		pr.KUsedMean = float64(a.kUsedSum) / float64(a.kUsedN)
	}
	if a.audits > 0 {
		pr.Coverage = float64(a.covered) / float64(a.audits)
	}
	if len(a.stages) > 0 {
		pr.StagesMs = make(map[string]Dist, len(a.stages))
		for s, d := range a.stages {
			pr.StagesMs[s] = d.snapshot()
		}
	}
	if len(a.techniques) > 0 {
		pr.Techniques = make(map[string]int64, len(a.techniques))
		for t, n := range a.techniques {
			pr.Techniques[t] = n
		}
	}
	return pr
}

// snapshot returns every profile, busiest first (ties broken by key so
// the ordering is deterministic).
func (p *profiler) snapshot() []Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Profile, 0, len(p.accs))
	for k, a := range p.accs {
		out = append(out, a.snapshot(k))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Queries != out[j].Queries {
			return out[i].Queries > out[j].Queries
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}

// FormatWorkload renders profiles as the text table shown by aqpshell's
// \profile command and -history mode — the same data /debug/workload
// serves as JSON.
func FormatWorkload(profiles []Profile) string {
	if len(profiles) == 0 {
		return "no profiles (no finished queries recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %8s %8s %9s %8s %7s %9s\n",
		"profile (table/sample/agg/predicate)", "queries", "sel.p50",
		"relw.p50", "k.used", "audits", "coverage")
	for _, p := range profiles {
		cov := "-"
		if p.Audits > 0 {
			cov = fmt.Sprintf("%.1f%%", 100*p.Coverage)
		}
		fmt.Fprintf(&b, "%-52s %8d %8.4f %9.5f %8.1f %7d %9s\n",
			truncKey(p.Key.String(), 52), p.Queries, p.Selectivity.P50,
			p.RelWidth.P50, p.KUsedMean, p.Audits, cov)
		if p.Rejected > 0 || p.FellBack > 0 {
			fmt.Fprintf(&b, "%-52s %8s rejected=%d fell_back=%d\n",
				"", "", p.Rejected, p.FellBack)
		}
	}
	return b.String()
}

func truncKey(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
