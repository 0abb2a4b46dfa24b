package cluster

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestBreakdownObserve(t *testing.T) {
	reg := obs.NewRegistry()
	b := Breakdown{QuerySec: 1.5, ErrorSec: 0.5, DiagSec: 2.0}
	b.Observe(reg, 10*time.Millisecond)

	for _, comp := range []string{"query", "error", "diag", "total"} {
		h := reg.Histogram("aqp_cluster_sim_seconds", "", simSecondsBuckets,
			"component", comp)
		if h.Count() != 1 {
			t.Errorf("component %q observed %d times, want 1", comp, h.Count())
		}
	}
	total := reg.Histogram("aqp_cluster_sim_seconds", "", simSecondsBuckets,
		"component", "total")
	if total.Sum() != 4.0 {
		t.Errorf("total sum = %v, want 4.0", total.Sum())
	}
	ratio := reg.Histogram("aqp_cluster_sim_wall_ratio", "", ratioBuckets)
	if ratio.Count() != 1 {
		t.Fatalf("ratio observed %d times, want 1", ratio.Count())
	}
	if got := ratio.Sum(); got < 399 || got > 401 {
		t.Errorf("sim/wall ratio = %v, want ~400 (4s simulated / 10ms wall)", got)
	}

	// Nil registry and zero wall time must be safe no-ops.
	b.Observe(nil, time.Second)
	b.Observe(reg, 0)
	if ratio.Count() != 1 {
		t.Error("zero wall time must not observe a ratio")
	}
}

// Breakdown telemetry is test-only: no figure publishes it.

var (
	// simSecondsBuckets extends the latency layout to the cost model's
	// minutes-long naive pipelines.
	simSecondsBuckets = []float64{
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
	}
	// ratioBuckets covers the simulated-vs-wall inflation factor.
	ratioBuckets = []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 1e5, 1e6}
)

// Observe publishes the breakdown into a metrics registry: per-component
// simulated seconds (aqp_cluster_sim_seconds) and, when the wall-clock time
// spent simulating is known, the simulated-vs-wall ratio — how many seconds
// of cluster time one second of simulation covers. Nil registry is a no-op.
func (b Breakdown) Observe(reg *obs.Registry, wall time.Duration) {
	if reg == nil {
		return
	}
	const help = "Simulated cluster seconds per query, by pipeline component."
	reg.Histogram("aqp_cluster_sim_seconds", help, simSecondsBuckets,
		"component", "query").Observe(b.QuerySec)
	reg.Histogram("aqp_cluster_sim_seconds", help, simSecondsBuckets,
		"component", "error").Observe(b.ErrorSec)
	reg.Histogram("aqp_cluster_sim_seconds", help, simSecondsBuckets,
		"component", "diag").Observe(b.DiagSec)
	reg.Histogram("aqp_cluster_sim_seconds", help, simSecondsBuckets,
		"component", "total").Observe(b.Total())
	if secs := wall.Seconds(); secs > 0 {
		reg.Histogram("aqp_cluster_sim_wall_ratio",
			"Simulated cluster seconds per wall-clock second of simulation.",
			ratioBuckets).Observe(b.Total() / secs)
	}
}
