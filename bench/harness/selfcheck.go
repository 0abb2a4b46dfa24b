package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Spec is the part of BENCHMARK.json the self-check reads.
type Spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summary is a set of runs' median, quartiles (nearest-rank, like every
// quantile here) and interquartile range as a share of the median.
type summary struct{ q1, med, q3, spread float64 }

func summarize(xs []float64) summary {
	s := summary{q1: Quantile(xs, 0.25), med: Median(xs), q3: Quantile(xs, 0.75)}
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	}
	return s
}

// SelfCheck runs every workload as two interleaved sets (A,B,B,A,…) of
// `runs` runs each — run i of both sets uses seed base.Seed+i — and prints,
// per workload, each end-to-end metric's median and quartiles in both sets,
// the spread of the pooled runs and |median A − median B| as a share of the
// metric's bound, followed by the ungated timings. It fails when a
// difference exceeds half its bound.
func SelfCheck(out io.Writer, base RunConfig, workloads []*Workload, runs int, spec *Spec) (bool, error) {
	ok := true
	for _, w := range workloads {
		cfg := base
		cfg.Workload = w
		sets := [2]map[string][]float64{{}, {}}
		var timingNames []Metric
		for i := 0; i < runs; i++ {
			cfg.Seed = base.Seed + uint64(i)
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // A,B then B,A
				rep, err := Run(cfg)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.Name, cfg.Seed, err)
				}
				if len(rep.Problems) > 0 {
					return false, fmt.Errorf("%s seed %d: %s", w.Name, cfg.Seed, rep.Problems[0])
				}
				for _, ms := range [][]Metric{rep.Metrics, rep.Timing} {
					for _, m := range ms {
						sets[set][m.Name] = append(sets[set][m.Name], m.Value)
					}
				}
				timingNames = rep.Timing
			}
		}
		fmt.Fprintf(out, "\n### %s (%d runs per set, seeds %d..%d)\n\n", w.Name, runs, base.Seed, base.Seed+uint64(runs)-1)
		fmt.Fprintln(out, "| metric | unit | A median [q1, q3] | B median [q1, q3] | pooled spread | \\|A−B\\| | bound | \\|A−B\\| ÷ bound | |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
		row := func(name, unit string, bound float64) {
			a, b := summarize(sets[0][name]), summarize(sets[1][name])
			pooled := summarize(append(append([]float64(nil), sets[0][name]...), sets[1][name]...))
			// A metric whose median is 0 has no relative difference: the
			// two sets agree only if both are 0.
			diff := math.Abs(a.med-b.med) / math.Abs(a.med)
			if a.med == 0 {
				diff = 0
				if b.med != 0 {
					diff = math.Inf(1)
				}
			}
			boundCol, ratioCol, verdict := "—", "—", "not gated"
			if bound > 0 {
				boundCol, ratioCol, verdict = fmt.Sprintf("%.0f%%", 100*bound), fmt.Sprintf("%.2f", diff/bound), "ok"
				if diff/bound > 0.5 {
					verdict, ok = "FAIL", false
				}
			}
			fmt.Fprintf(out, "| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.1f%% | %.1f%% | %s | %s | %s |\n",
				name, unit, a.med, a.q1, a.q3, b.med, b.q1, b.q3, 100*pooled.spread, 100*diff, boundCol, ratioCol, verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Unit, m.Bound)
		}
		for _, m := range timingNames {
			row(m.Name, m.Unit, 0)
		}
	}
	return ok, nil
}
