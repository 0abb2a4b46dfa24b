package experiments

import (
	"io"
	"sync"

	"repro/internal/estimator"
	"repro/internal/workload"
	"repro/paper/internal/protocol"
)

// TechSummary is one bar of Fig. 3: how a technique behaved across a
// trace, as fractions of all queries.
type TechSummary struct {
	NotApplicable float64
	Optimistic    float64
	Correct       float64
	Pessimistic   float64
}

// S3Stats reproduces the §3 headline numbers.
type S3Stats struct {
	// BootstrapTooWide / BootstrapTooNarrow are the fractions of Facebook
	// queries where the bootstrap's error bars were far too wide
	// (pessimistic; paper: 23.94%) or too narrow (optimistic; paper:
	// 12.2%).
	BootstrapTooWide   float64
	BootstrapTooNarrow float64
	// CLTApplicable is the fraction of Facebook queries amenable to
	// closed forms (paper: 56.78% including COUNT/SUM/AVG/VARIANCE).
	CLTApplicable float64
	// BootstrapFailMinMax is the bootstrap failure rate on MIN/MAX
	// queries (paper: 86.17%).
	BootstrapFailMinMax float64
	// BootstrapFailUDF is the bootstrap failure rate on UDF queries
	// (paper: 23.19%).
	BootstrapFailUDF float64
}

// Fig3Result holds per-trace, per-technique accuracy summaries (the four
// stacked bars of Fig. 3) and the §3 text statistics.
type Fig3Result struct {
	Traces     []string
	Techniques []string
	Bars       map[string]map[string]TechSummary // trace → technique → summary
	S3         S3Stats
}

// Fig3 reproduces Fig. 3 (and the §3 text statistics): evaluate bootstrap
// and closed-form error estimation on synthetic Facebook and Conviva
// traces using the δ-based protocol, and classify each (query, technique)
// as not-applicable / optimistic / correct / pessimistic.
func Fig3(cfg Config) *Fig3Result {
	res := &Fig3Result{
		Traces:     []string{"facebook", "conviva"},
		Techniques: []string{"bootstrap", "closed-form"},
		Bars:       map[string]map[string]TechSummary{},
	}
	type verdictRec struct {
		spec workload.QuerySpec
		tech string
		v    protocol.Verdict
	}
	var all []verdictRec

	for _, kind := range []workload.Kind{workload.Facebook, workload.Conviva} {
		trace := workload.Generate(workload.TraceConfig{
			Kind:                kind,
			NumQueries:          cfg.QueriesPerSet,
			PopulationSize:      cfg.PopulationSize,
			Seed:                cfg.Seed,
			AdversarialFraction: -1,
		})
		evalCfg := protocol.EvalConfig{
			SampleSize: cfg.SampleSize,
			Trials:     cfg.Trials,
			TruthP:     cfg.truthP(),
			Alpha:      estimator.ConfidenceLevel,
			DeltaTol:   0.2,
			FailFrac:   0.05,
		}
		recs := evaluateTrace(cfg, trace, evalCfg)
		all = append(all, func() []verdictRec {
			var out []verdictRec
			for _, r := range recs {
				out = append(out, verdictRec{spec: r.spec, tech: r.tech, v: r.v})
			}
			return out
		}()...)

		bars := map[string]TechSummary{}
		for _, tech := range res.Techniques {
			var s TechSummary
			n := 0.0
			for _, r := range recs {
				if r.tech != tech {
					continue
				}
				n++
				switch r.v {
				case protocol.NotApplicable:
					s.NotApplicable++
				case protocol.Optimistic:
					s.Optimistic++
				case protocol.Correct:
					s.Correct++
				case protocol.Pessimistic:
					s.Pessimistic++
				}
			}
			if n > 0 {
				s.NotApplicable /= n
				s.Optimistic /= n
				s.Correct /= n
				s.Pessimistic /= n
			}
			bars[tech] = s
		}
		res.Bars[kind.String()] = bars
	}

	// §3 statistics from the Facebook records.
	var fbBoot, fbBootWide, fbBootNarrow float64
	var fbCLTApplicable, fbCLTTotal float64
	var minMaxTotal, minMaxFail, udfTotal, udfFail float64
	for _, r := range all {
		if r.spec.Trace != workload.Facebook {
			continue
		}
		switch r.tech {
		case "bootstrap":
			fbBoot++
			if r.v == protocol.Pessimistic {
				fbBootWide++
			}
			if r.v == protocol.Optimistic {
				fbBootNarrow++
			}
			switch r.spec.Query.Kind {
			case estimator.Min, estimator.Max:
				minMaxTotal++
				if r.v != protocol.Correct {
					minMaxFail++
				}
			case estimator.UDF:
				udfTotal++
				if r.v != protocol.Correct {
					udfFail++
				}
			}
		case "closed-form":
			fbCLTTotal++
			if r.v != protocol.NotApplicable {
				fbCLTApplicable++
			}
		}
	}
	res.S3 = S3Stats{
		BootstrapTooWide:    frac(fbBootWide, fbBoot),
		BootstrapTooNarrow:  frac(fbBootNarrow, fbBoot),
		CLTApplicable:       frac(fbCLTApplicable, fbCLTTotal),
		BootstrapFailMinMax: frac(minMaxFail, minMaxTotal),
		BootstrapFailUDF:    frac(udfFail, udfTotal),
	}
	return res
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type traceRec struct {
	spec workload.QuerySpec
	tech string
	v    protocol.Verdict
}

// evaluateTrace runs the §3 protocol for both techniques over every query
// of the trace, in parallel across queries.
func evaluateTrace(cfg Config, trace []workload.QuerySpec, evalCfg protocol.EvalConfig) []traceRec {
	type job struct{ qi int }
	out := make([][]traceRec, len(trace))
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec := trace[j.qi]
				src := cfg.stream("fig3/"+spec.Trace.String(), j.qi)
				boot := protocol.Evaluate(src, spec.Population, spec.Query,
					estimator.Bootstrap{K: cfg.BootstrapK}, evalCfg)
				cf := protocol.Evaluate(src, spec.Population, spec.Query,
					estimator.ClosedForm{}, evalCfg)
				out[j.qi] = []traceRec{
					{spec: spec, tech: "bootstrap", v: boot.Verdict},
					{spec: spec, tech: "closed-form", v: cf.Verdict},
				}
			}
		}()
	}
	for qi := range trace {
		jobs <- job{qi}
	}
	close(jobs)
	wg.Wait()
	var flat []traceRec
	for _, recs := range out {
		flat = append(flat, recs...)
	}
	return flat
}

// Render writes the figure as a text table.
func (r *Fig3Result) Render(w io.Writer) {
	fprintf(w, "Fig. 3 — estimation accuracy by trace and technique (fractions of queries)\n")
	fprintf(w, "%-24s %-14s %-14s %-10s %-12s\n",
		"trace/technique", "not-applicable", "optimistic", "correct", "pessimistic")
	for _, trace := range r.Traces {
		for _, tech := range r.Techniques {
			s := r.Bars[trace][tech]
			fprintf(w, "%-24s %-14.1f %-14.1f %-10.1f %-12.1f\n",
				trace+"/"+tech, 100*s.NotApplicable, 100*s.Optimistic,
				100*s.Correct, 100*s.Pessimistic)
		}
	}
	fprintf(w, "\n§3 statistics (Facebook trace; paper values in parentheses):\n")
	fprintf(w, "  bootstrap too wide:   %5.1f%%  (23.94%%)\n", 100*r.S3.BootstrapTooWide)
	fprintf(w, "  bootstrap too narrow: %5.1f%%  (12.2%%)\n", 100*r.S3.BootstrapTooNarrow)
	fprintf(w, "  CLT applicable:       %5.1f%%  (56.78%%)\n", 100*r.S3.CLTApplicable)
	fprintf(w, "  bootstrap fails on MIN/MAX: %5.1f%%  (86.17%%)\n", 100*r.S3.BootstrapFailMinMax)
	fprintf(w, "  bootstrap fails on UDFs:    %5.1f%%  (23.19%%)\n", 100*r.S3.BootstrapFailUDF)
}
