// Package cluster is a cost-model simulator of the distributed execution
// environment the paper evaluates on: 100 EC2 m1.large machines running a
// Spark/Shark-style engine over 17 TB of data with ~600 GB of aggregate
// RAM cache (§7). It converts the work a query plan performs — full-sample
// scans, small diagnostic subqueries, per-row CPU, weight draws — into
// simulated wall-clock seconds, reproducing the *shape* of the paper's
// systems results:
//
//   - the naive UNION-ALL pipeline takes minutes while the consolidated
//     single-scan pipeline takes seconds (Figs. 7 vs 9);
//   - end-to-end latency is U-shaped in the degree of parallelism with an
//     optimum around 20 machines (Fig. 8(c)): scan time shrinks with more
//     machines but serialized task launch and many-to-one partial-aggregate
//     collection grow linearly;
//   - latency is U-shaped in the fraction of inputs cached with an optimum
//     around 30–40% (Fig. 8(d)): cache hits speed scans until input cache
//     crowds out execution memory and intermediate data spills;
//   - straggler mitigation (10% speculative clones, don't wait for the
//     slowest 10%) shaves the heavy tail off wave completion (§6.3).
//
// This simulator is the documented substitution for the proprietary EC2
// testbed (see DESIGN.md): absolute seconds are calibrated only loosely,
// orderings and crossover locations are the reproduction target.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Config describes the simulated cluster and its tuning knobs.
type Config struct {
	// Machines is the number of machines the query may use — the Fig. 8(c)
	// degree-of-parallelism knob.
	Machines int
	// StorageMachines is the number of machines the samples (and the RAM
	// cache) are spread across; it stays fixed while Machines varies.
	// Zero means "same as Machines".
	StorageMachines int
	// SlotsPerMachine is the number of parallel task slots per machine
	// (m1.large: 2 cores).
	SlotsPerMachine int

	// DiskMBps and MemMBps are per-machine scan bandwidths.
	DiskMBps float64
	MemMBps  float64

	// CacheFraction is the fraction of stored sample bytes kept in the
	// cluster's RAM cache (the Fig. 8(d) knob). Raising it improves scan
	// hit ratio but shrinks execution memory.
	CacheFraction float64
	// RAMPerMachineMB is the usable memory per machine.
	RAMPerMachineMB float64
	// StoredSampleMB is the total size of all stored samples competing
	// for cache (the denominator of the hit ratio).
	StoredSampleMB float64

	// TaskOverheadMs is the fixed cost a task pays before useful work
	// (JVM/executor dispatch in the real system).
	TaskOverheadMs float64
	// TaskLaunchMs is the serialized per-task scheduling cost at the
	// driver.
	TaskLaunchMs float64
	// PartialAggMs is the serialized collector-side cost of receiving and
	// merging ONE partial aggregate column from ONE task. The consolidated
	// scan ships 1+K partials per task, so this many-to-one step is what
	// punishes excessive parallelism (Fig. 8(c)).
	PartialAggMs float64
	// CollectorPartialMs prices one batched absolute partial (the
	// consolidated diagnostic's per-subsample results), which arrive
	// pre-aggregated and are far cheaper than per-task columns.
	CollectorPartialMs float64
	// SubqueryOverheadMs is the serialized driver cost of planning and
	// dispatching one subquery (the §5.2 naive rewrite pays it tens of
	// thousands of times).
	SubqueryOverheadMs float64

	// CPURowNanos is the per-row per-operation processing cost.
	CPURowNanos float64
	// WeightDrawNanos is the cost of one Poisson weight draw.
	WeightDrawNanos float64

	// TargetPartitionMB bounds how finely input splits into tasks.
	TargetPartitionMB float64

	// StragglerProb is the probability a task straggles; a straggling
	// task's duration is multiplied by 1+Exp(1)*StragglerFactor.
	StragglerProb   float64
	StragglerFactor float64
	// Mitigation enables §6.3: 10% speculative duplicates, wave completes
	// at the 90th percentile of task finish times instead of the max.
	Mitigation bool
}

// Default returns the calibration used for the paper-scale experiments:
// 100 m1.large machines, 600 GB aggregate RAM over ~600 GB of stored
// samples, Spark-era scheduling constants.
func Default() Config {
	return Config{
		Machines:           100,
		StorageMachines:    100,
		SlotsPerMachine:    2,
		DiskMBps:           200,
		MemMBps:            1500,
		CacheFraction:      0.35,
		RAMPerMachineMB:    6000,
		StoredSampleMB:     600000,
		TaskOverheadMs:     45,
		TaskLaunchMs:       2.5,
		PartialAggMs:       0.3,
		CollectorPartialMs: 0.08,
		SubqueryOverheadMs: 18,
		CPURowNanos:        1.5,
		WeightDrawNanos:    1.5,
		TargetPartitionMB:  64,
		StragglerProb:      0.05,
		StragglerFactor:    4,
		Mitigation:         true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Machines < 1 || c.SlotsPerMachine < 1 {
		return fmt.Errorf("cluster: need at least one machine and slot")
	}
	if c.DiskMBps <= 0 || c.MemMBps <= 0 {
		return fmt.Errorf("cluster: bandwidths must be positive")
	}
	if c.CacheFraction < 0 || c.CacheFraction > 1 {
		return fmt.Errorf("cluster: cache fraction %v outside [0,1]", c.CacheFraction)
	}
	if c.TargetPartitionMB <= 0 {
		return fmt.Errorf("cluster: target partition size must be positive")
	}
	return nil
}

// Cluster is a simulated cluster ready to cost workloads.
type Cluster struct {
	cfg Config
}

// New validates the configuration and returns a Cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg}, nil
}

func (cl *Cluster) slots() int { return cl.cfg.Machines * cl.cfg.SlotsPerMachine }

// tasksFor returns how many tasks a scan of mb input splits into: one per
// target partition, capped at the cluster's slot count (a single wave).
func (cl *Cluster) tasksFor(mb float64) int {
	tasks := int(math.Ceil(mb / cl.cfg.TargetPartitionMB))
	if tasks < 1 {
		tasks = 1
	}
	if tasks > cl.slots() {
		tasks = cl.slots()
	}
	return tasks
}

// storageMachines returns the fleet the samples are spread across.
func (cl *Cluster) storageMachines() int {
	if cl.cfg.StorageMachines > 0 {
		return cl.cfg.StorageMachines
	}
	return cl.cfg.Machines
}

// hitRatio returns the fraction of scanned bytes served from RAM cache.
func (cl *Cluster) hitRatio() float64 {
	cacheMB := cl.cfg.CacheFraction * cl.cfg.RAMPerMachineMB * float64(cl.storageMachines())
	if cl.cfg.StoredSampleMB <= 0 {
		return 1
	}
	h := cacheMB / cl.cfg.StoredSampleMB
	if h > 1 {
		h = 1
	}
	return h
}

// scanSecPerMB is the per-machine time to scan one MB at the current hit
// ratio.
func (cl *Cluster) scanSecPerMB() float64 {
	h := cl.hitRatio()
	return h/cl.cfg.MemMBps + (1-h)/cl.cfg.DiskMBps
}

// execMemPerMachineMB is the memory left for execution after the input
// cache takes its share.
func (cl *Cluster) execMemPerMachineMB() float64 {
	return cl.cfg.RAMPerMachineMB * (1 - cl.cfg.CacheFraction)
}

// spillSec charges the per-task cost of spilling intermediate data (weight
// columns, resample aggregation state) that exceeds execution memory:
// spilled bytes are written and re-read at disk bandwidth, shared among
// the machine's slots.
func (cl *Cluster) spillSec(intermediateMBPerMachine float64) float64 {
	excess := intermediateMBPerMachine - cl.execMemPerMachineMB()
	if excess <= 0 {
		return 0
	}
	return 2 * excess / cl.cfg.DiskMBps / float64(cl.cfg.SlotsPerMachine)
}

// Subquery describes one subquery's work: a scan of Bytes across the
// cluster plus RowOps per scanned row of CPU.
type Subquery struct {
	Count  int     // how many identical subqueries of this shape run
	MB     float64 // input scanned per subquery
	Rows   int64   // rows scanned per subquery
	RowOps float64 // CPU operations per row (1 = plain aggregate)
	// IntermediateMBPerMachine sizes this subquery's in-flight state for
	// the spill model (only the consolidated multi-weight scan has a
	// meaningful value).
	IntermediateMBPerMachine float64
	// Fanout multiplies the partial-aggregate collection cost (GROUP BY
	// result width).
	Fanout int
}

// Workload is everything one query pipeline asks of the cluster.
type Workload struct {
	Subqueries []Subquery
	// ExtraCPURowOps is computation not attached to any scan (e.g. the
	// consolidated diagnostic's subsample math); it parallelizes across
	// all slots.
	ExtraCPURowOps float64
	// ExtraWeightDraws counts Poisson draws performed outside scans.
	ExtraWeightDraws float64
	// CollectorMB and CollectorCols charge the many-to-one collection of
	// extra partial-aggregate columns piggybacking on a scan of
	// CollectorMB input: each of that scan's tasks ships CollectorCols
	// additional partials to the collector. The consolidated pipeline's
	// error-estimation component uses this to account for its share of
	// result collection without owning a scan.
	CollectorMB   float64
	CollectorCols float64
	// CollectorPartials charges an absolute number of partial results
	// arriving at the collector, for work whose partials are not
	// replicated across every task (the consolidated diagnostic's
	// per-subsample estimates, which live in the few tasks holding each
	// subsample).
	CollectorPartials float64
}

// Simulate returns the simulated wall-clock seconds to run the workload.
// src drives straggler sampling; pass a query-specific stream for
// reproducibility.
func (cl *Cluster) Simulate(src *rng.Source, w Workload) float64 {
	slots := float64(cl.slots())
	scanPerMB := cl.scanSecPerMB()

	var driverSec float64   // serialized: subquery dispatch + task launch + partial collection
	var taskWorkSec float64 // parallelizable task-seconds
	var maxWaveSec float64  // no workload finishes before its longest wave

	for _, sq := range w.Subqueries {
		if sq.Count <= 0 {
			continue
		}
		fanout := sq.Fanout
		if fanout < 1 {
			fanout = 1
		}
		tasks := cl.tasksFor(sq.MB)
		perTaskMB := sq.MB / float64(tasks)
		perTaskRows := float64(sq.Rows) / float64(tasks)
		base := cl.cfg.TaskOverheadMs/1e3 +
			perTaskMB*scanPerMB +
			perTaskRows*sq.RowOps*cl.cfg.CPURowNanos/1e9 +
			cl.spillSec(sq.IntermediateMBPerMachine)

		// Straggler tail for one representative wave of this shape.
		tail := cl.waveTail(src, tasks)
		wave := base * tail
		if wave > maxWaveSec {
			maxWaveSec = wave
		}

		n := float64(sq.Count)
		taskWorkSec += n * float64(tasks) * base
		driverSec += n * (cl.cfg.SubqueryOverheadMs/1e3 +
			float64(tasks)*(cl.cfg.TaskLaunchMs+cl.cfg.PartialAggMs*float64(fanout))/1e3)
	}

	taskWorkSec += (w.ExtraCPURowOps*cl.cfg.CPURowNanos +
		w.ExtraWeightDraws*cl.cfg.WeightDrawNanos) / 1e9

	if w.CollectorCols > 0 && w.CollectorMB > 0 {
		driverSec += float64(cl.tasksFor(w.CollectorMB)) * w.CollectorCols *
			cl.cfg.PartialAggMs / 1e3
	}
	driverSec += w.CollectorPartials * cl.cfg.CollectorPartialMs / 1e3

	execSec := taskWorkSec / slots
	if execSec < maxWaveSec {
		execSec = maxWaveSec
	}
	return driverSec + execSec
}

// waveTail samples the wave-completion multiplier for a wave of n tasks:
// the max (or, under mitigation, the 90th percentile) of per-task
// inflation factors.
func (cl *Cluster) waveTail(src *rng.Source, n int) float64 {
	if n <= 0 {
		return 1
	}
	if n > 4096 {
		n = 4096
	}
	mults := make([]float64, n)
	for i := range mults {
		m := 1.0
		if src.Float64() < cl.cfg.StragglerProb {
			m = 1 + src.ExpFloat64()*cl.cfg.StragglerFactor
		}
		mults[i] = m
	}
	if !cl.cfg.Mitigation {
		return max64(mults)
	}
	// Speculative duplicates let the wave complete at the 90th
	// percentile.
	sort.Float64s(mults)
	idx := int(0.9*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	return mults[idx]
}

func max64(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
