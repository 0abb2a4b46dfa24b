// Package work declares the physical-work counters an execution meters. The
// executor fills them (exec.Counters) and the telemetry records each stage's
// share of them (obs.StageRecord.Work); the package imports nothing, so the
// producers and the telemetry that reads them share one declaration without
// importing each other.
package work

// Counters meters the work a plan performed.
type Counters struct {
	// Subqueries is the number of logical queries run against the stored
	// sample: one per plan, however many resamples it evaluates.
	Subqueries int
	// Scans is the number of physical passes over the sample this
	// process actually performed.
	Scans int
	// RowsScanned and BytesScanned total the base-table rows/bytes read
	// across all physical scans.
	RowsScanned  int64
	BytesScanned int64
	// RowsAfterFilter is the number of rows surviving the filter in one
	// pass.
	RowsAfterFilter int64
	// BlocksSkipped is the number of zone-map blocks the scan proved empty
	// and never evaluated the predicate over. Skipping is pure saving: it
	// does not reduce RowsScanned/BytesScanned (which meter the logical
	// pass the cost model prices) and never changes RowsAfterFilter.
	BlocksSkipped int64
	// BlocksDecoded counts storage blocks decoded from block-compressed or
	// mmap-backed columns during this execution; raw tables report zero.
	// DecodeNanos is the wall time spent inside those decodes. Together
	// with BlocksSkipped they make the decode-after-admission invariant
	// observable: skipped blocks never appear in BlocksDecoded.
	BlocksDecoded int64
	DecodeNanos   int64
	// CacheHits counts storage blocks served from the cross-query decoded-
	// block cache instead of being decoded; CacheBytes totals the bytes
	// those hits copied out of the cache. A cached block appears in
	// CacheHits, a decoded one in BlocksDecoded — the two never double
	// count. Always zero when no cache is attached.
	CacheHits  int64
	CacheBytes int64
	// WeightDraws is the number of Poisson bootstrap weight draws: K per
	// value surviving the filter.
	WeightDraws int64
	// DiagSubqueries counts the diagnostic's subsample query executions.
	DiagSubqueries int
	// Tasks is the number of parallel tasks launched locally.
	Tasks int
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Subqueries += o.Subqueries
	c.Scans += o.Scans
	c.RowsScanned += o.RowsScanned
	c.BytesScanned += o.BytesScanned
	c.RowsAfterFilter += o.RowsAfterFilter
	c.BlocksSkipped += o.BlocksSkipped
	c.BlocksDecoded += o.BlocksDecoded
	c.DecodeNanos += o.DecodeNanos
	c.CacheHits += o.CacheHits
	c.CacheBytes += o.CacheBytes
	c.WeightDraws += o.WeightDraws
	c.DiagSubqueries += o.DiagSubqueries
	c.Tasks += o.Tasks
}
