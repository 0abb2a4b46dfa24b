package experiments

import "repro/internal/workload"

// splitQSets splits a trace into the paper's two query sets. QSet-1 holds
// the queries whose error bars admit closed forms (simple AVG, COUNT, SUM,
// STDEV, VARIANCE aggregates); QSet-2 those that only the bootstrap can
// handle (UDFs, percentiles, MIN/MAX: the paper's "multiple aggregate
// operators, nested subqueries or UDFs" set).
func splitQSets(trace []workload.QuerySpec) (qset1, qset2 []workload.QuerySpec) {
	for _, q := range trace {
		if q.ClosedFormOK() {
			qset1 = append(qset1, q)
		} else {
			qset2 = append(qset2, q)
		}
	}
	return qset1, qset2
}

// generateQSets generates a trace and keeps drawing until both query sets
// contain at least want queries each, then truncates both to exactly want.
// This mirrors the paper's "two different sets of 100 real-world queries".
func generateQSets(kind workload.Kind, want int, popSize int, seed uint64) (qset1, qset2 []workload.QuerySpec) {
	batch := want * 4
	for tries := 0; tries < 8; tries++ {
		trace := workload.Generate(workload.TraceConfig{
			Kind:                kind,
			NumQueries:          batch,
			PopulationSize:      popSize,
			Seed:                seed,
			AdversarialFraction: -1,
		})
		qset1, qset2 = splitQSets(trace)
		if len(qset1) >= want && len(qset2) >= want {
			return qset1[:want], qset2[:want]
		}
		batch *= 2
	}
	return qset1, qset2
}
