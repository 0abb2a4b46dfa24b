package workload

import (
	"fmt"

	"repro/internal/estimator"
	"repro/internal/rng"
)

// Kind selects which production trace's marginal statistics to reproduce.
type Kind int

// Trace kinds.
const (
	// Facebook mimics the week of Hive production queries from §3.
	Facebook Kind = iota
	// Conviva mimics the month of Conviva Hive queries from §3.
	Conviva
)

func (k Kind) String() string {
	switch k {
	case Facebook:
		return "facebook"
	case Conviva:
		return "conviva"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// aggMix is a cumulative-probability table over aggregate kinds.
type aggMixEntry struct {
	cum float64
	agg estimator.AggKind
}

// Facebook marginal mix (§3): MIN 33.35%, COUNT 24.67%, AVG 12.20%, SUM
// 10.11%, MAX 2.87%, UDF 11.01%; the remaining 5.79% is spread over
// VARIANCE, STDEV and PERCENTILES.
var facebookMix = []aggMixEntry{
	{0.3335, estimator.Min},
	{0.5802, estimator.Count},
	{0.7022, estimator.Avg},
	{0.8033, estimator.Sum},
	{0.8320, estimator.Max},
	{0.9421, estimator.UDF},
	{0.9621, estimator.Variance},
	{0.9821, estimator.Stdev},
	{1.0001, estimator.Percentile},
}

// Conviva marginal mix (§3): AVG, COUNT, PERCENTILES and MAX are the most
// popular with a combined 32.3% share; 42.07% of queries carry a UDF; the
// remainder is spread over SUM, MIN, VARIANCE and STDEV.
var convivaMix = []aggMixEntry{
	{0.1200, estimator.Avg},
	{0.2200, estimator.Count},
	{0.2800, estimator.Percentile},
	{0.3230, estimator.Max},
	{0.7437, estimator.UDF},
	{0.8337, estimator.Sum},
	{0.8937, estimator.Min},
	{0.9437, estimator.Variance},
	{1.0001, estimator.Stdev},
}

func (k Kind) mix() []aggMixEntry {
	if k == Facebook {
		return facebookMix
	}
	return convivaMix
}

// adversarialFraction is the probability that a query's underlying column
// is drawn from a heavy-tailed/outlier-contaminated distribution. Conviva's
// video-delivery metrics (bitrates, buffer times) are substantially more
// skewed than Facebook's mix.
func (k Kind) adversarialFraction() float64 {
	if k == Facebook {
		return 0.30
	}
	return 0.40
}

// QuerySpec is one synthetic query: the aggregation θ plus the population
// column it runs over and the size metadata the cluster simulator uses.
type QuerySpec struct {
	ID    int
	Trace Kind
	// Dist is the distribution the population column was drawn from.
	Dist DataDist
	// Population is the post-filter aggregation column of the full
	// dataset D (COUNT queries see an indicator column).
	Population []float64
	// Query is the θ to evaluate, ready for the estimator package.
	Query estimator.Query
	// UDFName is set when Query.Kind == UDF.
	UDFName string
	// BytesPerRow sizes the query's input rows for the cost model.
	BytesPerRow int
	// GroupFanout models the number of groups a production GROUP BY
	// would produce (1 = plain aggregate); the simulator charges
	// aggregation cost proportional to it.
	GroupFanout int
}

// Name renders a short identifier such as "facebook/q17/AVG".
func (q QuerySpec) Name() string {
	return fmt.Sprintf("%s/q%d/%s", q.Trace, q.ID, q.Query.Name())
}

// ClosedFormOK reports whether the query is amenable to closed-form error
// estimation (QSet-1 membership).
func (q QuerySpec) ClosedFormOK() bool { return q.Query.ClosedFormApplicable() }

// TraceConfig parameterizes trace generation.
type TraceConfig struct {
	Kind       Kind
	NumQueries int
	// PopulationSize is |D| per query (default 200,000).
	PopulationSize int
	// Seed makes the trace reproducible.
	Seed uint64
	// AdversarialFraction overrides the trace's default heavy-tail rate
	// when non-negative (set to -1 to use the default).
	AdversarialFraction float64
}

// Generate produces a reproducible synthetic trace with the configured
// marginal statistics.
func Generate(cfg TraceConfig) []QuerySpec {
	if cfg.NumQueries <= 0 {
		return nil
	}
	popSize := cfg.PopulationSize
	if popSize <= 0 {
		popSize = 200000
	}
	pAdv := cfg.AdversarialFraction
	if pAdv < 0 {
		pAdv = cfg.Kind.adversarialFraction()
	}
	out := make([]QuerySpec, 0, cfg.NumQueries)
	for i := 0; i < cfg.NumQueries; i++ {
		src := rng.NewWithStream(cfg.Seed, uint64(cfg.Kind)<<32|uint64(i))
		out = append(out, generateQuery(src, cfg.Kind, i, popSize, pAdv))
	}
	return out
}

func generateQuery(src *rng.Source, kind Kind, id, popSize int, pAdv float64) QuerySpec {
	// Pick the aggregate from the trace's mix.
	u := src.Float64()
	agg := estimator.Avg
	for _, e := range kind.mix() {
		if u < e.cum {
			agg = e.agg
			break
		}
	}

	spec := QuerySpec{
		ID:          id,
		Trace:       kind,
		BytesPerRow: 64 + src.Intn(448), // 64–512 bytes/row
		GroupFanout: 1,
	}
	// ~30% of production aggregates sit under a GROUP BY; model the
	// fan-out for the cost model (each group is treated as a separate
	// query in the statistical experiments, per §2.1).
	if src.Float64() < 0.3 {
		spec.GroupFanout = 1 + src.Intn(32)
	}

	switch agg {
	case estimator.Count:
		// Indicator column with random selectivity; COUNT = scaled SUM.
		sel := 0.01 + 0.89*src.Float64()
		xs := make([]float64, popSize)
		for j := range xs {
			if src.Float64() < sel {
				xs[j] = 1
			}
		}
		spec.Dist = Uniform
		spec.Population = xs
		spec.Query = estimator.Query{Kind: estimator.Count, PopN: popSize,
			Bounds: &[2]float64{0, 1}}
	case estimator.UDF:
		// Production UDFs are mostly well-behaved statistics; fragile
		// functionals (range widths, tail means) are the minority — the
		// paper measures bootstrap failure on 23.19% of UDF queries, not
		// a majority.
		udf := pickUDF(src, 0.25)
		// UDF inputs skew benign: production UDFs mostly digest rates and
		// ratios, not raw heavy-tailed bytes.
		dist := pickDist(src, pAdv*0.5)
		spec.Dist = dist
		spec.UDFName = udf.Name
		spec.Population = GenerateColumn(src, dist, popSize)
		spec.Query = estimator.Query{Kind: estimator.UDF, Fn: udf.Fn, FnName: udf.Name}
	default:
		dist := pickDist(src, pAdv)
		spec.Dist = dist
		spec.Population = GenerateColumn(src, dist, popSize)
		q := estimator.Query{Kind: agg}
		switch agg {
		case estimator.Sum:
			q.PopN = popSize
		case estimator.Percentile:
			q.Pct = []float64{0.5, 0.9, 0.95, 0.99}[src.Intn(4)]
		}
		spec.Query = q
	}
	return spec
}

// SQL renders the query as engine SQL over a table holding the population
// in a single numeric column. COUNT queries (whose populations are
// indicator columns) render as a filtered COUNT(*); UDFs render by their
// library name and must be registered with the engine first.
func (q QuerySpec) SQL(tableName, col string) string {
	switch q.Query.Kind {
	case estimator.Count:
		return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = 1", tableName, col)
	case estimator.Percentile:
		return fmt.Sprintf("SELECT PERCENTILE(%s, %g) FROM %s", col, q.Query.Pct, tableName)
	case estimator.UDF:
		return fmt.Sprintf("SELECT %s(%s) FROM %s", q.UDFName, col, tableName)
	case estimator.Sum:
		return fmt.Sprintf("SELECT SUM(%s) FROM %s", col, tableName)
	default:
		return fmt.Sprintf("SELECT %s(%s) FROM %s", q.Query.Kind, col, tableName)
	}
}
