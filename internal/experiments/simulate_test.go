package experiments

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/table"
)

// simulatedSessions answers q on a sample of a 100k-row Sessions table and
// returns the production-scale breakdown of that answer at a 20 GB sample.
func simulatedSessions(t *testing.T, cfg core.Config, sampleRows int, q string) cluster.Breakdown {
	t.Helper()
	src := rng.New(999)
	const n = 100000
	times := make(table.Float64Col, n)
	cities := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < n; i++ {
		times[i] = 60 + 20*src.NormFloat64()
		cities[i] = names[src.Intn(len(names))]
	}
	e := core.New(cfg)
	if err := e.RegisterTable("Sessions", table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("Sessions", sampleRows); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return SimulateAnswer(mustCluster(cluster.Default()), cfg.Seed, ans, 20000)
}

// TestSimulatedBreakdownOfAnswer checks that the engine's answers — a
// closed-form AVG, and a PERCENTILE that forces the bootstrap path (QSet-2
// flavour) — simulate to interactive latencies at a 20 GB sample. The naive
// plan's minutes are the simulator's own claim (TestFig7NaiveIsSlowAndDiagDominated).
func TestSimulatedBreakdownOfAnswer(t *testing.T) {
	b := simulatedSessions(t, core.Config{Seed: 13}, 20000, "SELECT AVG(Time) FROM Sessions")
	if b.Total() <= 0 || b.Total() > 60 {
		t.Errorf("simulated total = %v s, want interactive-scale", b.Total())
	}
	p := simulatedSessions(t, core.Config{Seed: 30, BootstrapK: 30, DisableFallback: true}, 40000,
		"SELECT PERCENTILE(Time, 0.9) FROM Sessions WHERE City = 'NYC'")
	if p.Total() > 20 {
		t.Errorf("bootstrap-path simulated total = %.1fs, want interactive", p.Total())
	}
}
