package core

import (
	"context"
	"testing"
	"time"
)

func TestEstimateRequiredRows(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 20, skipDiagnostics: true}, 200000)
	if err := e.BuildSamples("Sessions", 2000, 50000); err != nil {
		t.Fatal(err)
	}
	loose, err := e.EstimateRequiredRows("SELECT AVG(Time) FROM Sessions", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := e.EstimateRequiredRows("SELECT AVG(Time) FROM Sessions", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	// Tightening the bound 10x should require ~100x the rows.
	ratio := float64(tight) / float64(loose)
	if ratio < 50 || ratio > 200 {
		t.Errorf("rows ratio for 10x tighter bound = %v, want ~100", ratio)
	}
	// Sanity: the prediction should be actionable — for Time with CV
	// ~0.33, 5% error needs only a few hundred rows.
	if loose < 20 || loose > 5000 {
		t.Errorf("loose-bound rows = %d, implausible", loose)
	}
}

func TestEstimateRequiredRowsErrors(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 21, skipDiagnostics: true}, 50000)
	if _, err := e.EstimateRequiredRows("SELECT AVG(Time) FROM Sessions", -1); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := e.EstimateRequiredRows("SELECT AVG(Time) FROM Sessions", 0.01); err == nil {
		t.Error("sampleless table accepted")
	}
	if err := e.BuildSamples("Sessions", 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EstimateRequiredRows("SELECT MAX(Time) FROM Sessions", 0.01); err == nil {
		t.Error("non-closed-form aggregate accepted")
	}
	if _, err := e.EstimateRequiredRows("SELECT AVG(Time), SUM(Time) FROM Sessions", 0.01); err == nil {
		t.Error("multi-aggregate query accepted")
	}
}

func TestTimeBudget(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 22, skipDiagnostics: true}, 400000)
	if err := e.BuildSamples("Sessions", 2000, 20000, 200000); err != nil {
		t.Fatal(err)
	}
	// A generous budget should pick a large sample.
	generous, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if generous.SampleRows < 20000 {
		t.Errorf("generous budget used only %d rows", generous.SampleRows)
	}
	// A microscopic budget sticks with the pilot sample.
	tiny, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.SampleRows != 2000 {
		t.Errorf("tiny budget used %d rows, want pilot 2000", tiny.SampleRows)
	}
	// Zero is "no budget" now that the budget is a field of the request; the
	// value the request rejects is a negative one.
	if _, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: -time.Second}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestTimeBudgetNoSamples(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 23}, 10000)
	ans, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions", RunOptions{TimeBudget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Groups[0].Aggs[0].Exact {
		t.Error("sampleless table should answer exactly")
	}
}

func TestRequiredSampleSizeForErrorReexport(t *testing.T) {
	n := RequiredSampleSizeForError(10, 5, 0.1, 0.95)
	if n < 90 || n > 102 {
		t.Errorf("n = %d, want ~96", n)
	}
}
