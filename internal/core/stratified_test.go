package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

// skewedCities builds a table where one city dominates and one is rare, so
// uniform samples starve the rare group.
func skewedCities(t *testing.T, cfg Config, n int) (*Engine, *table.Table) {
	t.Helper()
	src := rng.New(555)
	times := make(table.Float64Col, n)
	cities := make(table.StringCol, n)
	for i := 0; i < n; i++ {
		u := src.Float64()
		switch {
		case u < 0.97:
			cities[i] = "BIG"
			times[i] = 50 + 10*src.NormFloat64()
		case u < 0.995:
			cities[i] = "MID"
			times[i] = 80 + 10*src.NormFloat64()
		default:
			cities[i] = "RARE"
			times[i] = 120 + 10*src.NormFloat64()
		}
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)
	e := New(cfg)
	if err := e.RegisterTable("Sessions", tbl); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func TestBuildStratifiedSampleValidation(t *testing.T) {
	e, _ := skewedCities(t, Config{Seed: 1}, 1000)
	if err := e.BuildStratifiedSample("nope", "City", 10); err == nil {
		t.Error("unknown table accepted")
	}
	if err := e.BuildStratifiedSample("Sessions", "nope", 10); err == nil {
		t.Error("unknown column accepted")
	}
	if err := e.BuildStratifiedSample("Sessions", "Time", 10); err == nil {
		t.Error("numeric key column accepted")
	}
	if err := e.BuildStratifiedSample("Sessions", "City", 0); err == nil {
		t.Error("zero cap accepted")
	}
	if err := e.BuildStratifiedSample("Sessions", "City", 50); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedSampleKeepsRareGroups(t *testing.T) {
	e, tbl := skewedCities(t, Config{Seed: 2, skipDiagnostics: true, BootstrapK: 30}, 200000)
	// Uniform sample of 2000 rows: RARE (~0.5%) gets ~10 rows.
	if err := e.BuildSamples("Sessions", 2000); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildStratifiedSample("Sessions", "City", 1500); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT City, AVG(Time) FROM Sessions GROUP BY City")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(ans.Groups))
	}
	// Stratified: every group has at least min(groupSize, cap) rows in the
	// sample, so the RARE group's error bar should be tight and correct.
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	var rare stats.Moments
	for i := range cities {
		if cities[i] == "RARE" {
			rare.Add(times[i])
		}
	}
	for _, g := range ans.Groups {
		if g.Key != "RARE" {
			continue
		}
		a := g.Aggs[0]
		if !a.ErrorBar.Contains(rare.Mean()) {
			t.Errorf("RARE error bar %v misses truth %v", a.ErrorBar, rare.Mean())
		}
		if a.RelErr > 0.02 {
			t.Errorf("RARE relative error %v too loose; stratification not used?", a.RelErr)
		}
	}
	// The stratified sample holds ~1500 rows for BIG (capped) plus all of
	// MID/RARE.
	if ans.SampleRows > 6000 || ans.SampleRows < 2500 {
		t.Errorf("stratified sample rows = %d, want a few thousand", ans.SampleRows)
	}
}

func TestStratifiedNotUsedForScaledAggregates(t *testing.T) {
	e, _ := skewedCities(t, Config{Seed: 3, skipDiagnostics: true}, 50000)
	if err := e.BuildSamples("Sessions", 10000); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildStratifiedSample("Sessions", "City", 100); err != nil {
		t.Fatal(err)
	}
	// COUNT per group is biased under stratification; the engine must fall
	// back to the uniform sample.
	ans, err := e.Run(context.Background(), "SELECT City, COUNT(*) FROM Sessions GROUP BY City")
	if err != nil {
		t.Fatal(err)
	}
	if ans.SampleRows != 10000 {
		t.Errorf("scaled aggregate used %d-row sample, want the 10000-row uniform one",
			ans.SampleRows)
	}
	// And an ungrouped query must not pick the stratified sample either.
	ans2, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions")
	if err != nil {
		t.Fatal(err)
	}
	if ans2.SampleRows != 10000 {
		t.Errorf("ungrouped query used %d-row sample", ans2.SampleRows)
	}
}

func TestStratifiedGroupMeansUnbiased(t *testing.T) {
	e, tbl := skewedCities(t, Config{Seed: 4, skipDiagnostics: true, BootstrapK: 20}, 100000)
	if err := e.BuildStratifiedSample("Sessions", "City", 800); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Run(context.Background(), "SELECT City, AVG(Time) FROM Sessions GROUP BY City")
	if err != nil {
		t.Fatal(err)
	}
	cities := tbl.ColumnByName("City").(table.StringCol)
	times := tbl.ColumnByName("Time").(table.Float64Col)
	for _, g := range ans.Groups {
		var m stats.Moments
		for i := range cities {
			if cities[i] == g.Key {
				m.Add(times[i])
			}
		}
		if rel := math.Abs(g.Aggs[0].Estimate-m.Mean()) / m.Mean(); rel > 0.03 {
			t.Errorf("group %s estimate %v vs truth %v (%.1f%% off)",
				g.Key, g.Aggs[0].Estimate, m.Mean(), 100*rel)
		}
	}
}
