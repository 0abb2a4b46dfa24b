package experiments

import (
	"testing"

	"repro/internal/workload"
)

func TestQSetSplit(t *testing.T) {
	trace := workload.Generate(workload.TraceConfig{Kind: workload.Facebook, NumQueries: 500,
		PopulationSize: 100, Seed: 15, AdversarialFraction: -1})
	q1, q2 := splitQSets(trace)
	if len(q1)+len(q2) != len(trace) {
		t.Fatalf("QSet split loses queries: %d + %d != %d", len(q1), len(q2), len(trace))
	}
	for _, q := range q1 {
		if !q.ClosedFormOK() {
			t.Fatal("QSet1 contains a non-closed-form query")
		}
	}
	for _, q := range q2 {
		if q.ClosedFormOK() {
			t.Fatal("QSet2 contains a closed-form query")
		}
	}
}

func TestGenerateQSetsExactCounts(t *testing.T) {
	q1, q2 := generateQSets(workload.Conviva, 50, 1000, 16)
	if len(q1) != 50 || len(q2) != 50 {
		t.Fatalf("generateQSets sizes = %d, %d", len(q1), len(q2))
	}
}
