package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/table"
	"repro/internal/workload"
)

// TestTraceQueriesThroughEngine drives synthetic trace queries through the
// full engine: each query's population becomes a registered table, UDFs
// come from the workload library, and every answer must be a sane estimate
// of the exact answer — the workload → SQL → plan → exec → estimate chain
// end to end.
func TestTraceQueriesThroughEngine(t *testing.T) {
	trace := workload.Generate(workload.TraceConfig{
		Kind:                workload.Conviva,
		NumQueries:          16,
		PopulationSize:      50000,
		Seed:                909,
		AdversarialFraction: 0, // benign data: estimates should be tight
	})
	e := New(Config{Seed: 909, Workers: 2, skipDiagnostics: true, BootstrapK: 30})
	for _, u := range workload.UDFLibrary {
		e.RegisterUDF(u.Name, u.Fn)
	}
	ran := 0
	for i, spec := range trace {
		tblName := fmt.Sprintf("t%d", i)
		tbl := table.MustNew(table.Schema{{Name: "v", Type: table.Float64}},
			table.Float64Col(spec.Population))
		if err := e.RegisterTable(tblName, tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples(tblName, 10000); err != nil {
			t.Fatal(err)
		}
		q := spec.SQL(tblName, "v")
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := ans.Groups[0].Aggs[0].Estimate
		want := spec.Query.Eval(spec.Population)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: degenerate estimate %v", q, got)
			continue
		}
		// On benign data a 10k/50k sample estimate should land within 15%
		// of the exact answer — except MIN/MAX, whose sample extremes
		// systematically undershoot population extremes on unbounded
		// data (precisely the sensitivity §2.3.1 warns about); for those
		// only the ordering sanity is checked.
		switch spec.Query.Kind {
		case estimator.Min:
			if got < want {
				t.Errorf("%s: sample MIN %v below population MIN %v", q, got, want)
			}
		case estimator.Max:
			if got > want {
				t.Errorf("%s: sample MAX %v above population MAX %v", q, got, want)
			}
		default:
			if want != 0 && math.Abs(got-want)/math.Abs(want) > 0.15 {
				t.Errorf("%s: estimate %v vs exact %v (>15%% off)", q, got, want)
			}
		}
		ran++
	}
	if ran < 10 {
		t.Fatalf("only %d trace queries ran", ran)
	}
}
