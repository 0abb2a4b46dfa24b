package table

// Zone maps: per-block min/max summaries of numeric columns, built once per
// stored table and consulted by the executor's predicate-range analyzer to
// skip blocks that provably cannot satisfy a filter. The block size matches
// the bootstrap kernel's streaming unit (8 KiB of float64 values), so a
// skipped block is exactly one unit of scan work avoided.
//
// Zone maps are conservative by construction: a block is only skippable
// when its [min, max] envelope is disjoint from the predicate's feasible
// range for some column, so skipping never changes which rows survive the
// filter (pinned by TestZoneSkipPreservesSelection). Envelope b is always
// the extrema of block b's own rows: a scan reads row ranges of the stored
// table, whose block numbering is the envelopes', and a gathered table gets
// envelopes of its own or none.
//
// Block columns (block.go) capture per-block min/max during encoding, so
// BuildZones on a compressed or mmap-backed table adopts the stored
// envelopes instead of re-scanning.

// ZoneBlockRows is the number of rows summarized per zone-map block: 1024
// float64 values = 8 KiB, the same block the resampling kernel streams.
const ZoneBlockRows = 1024

// ColumnZones is one numeric column's per-block envelope. Blocks b covers
// rows [b*ZoneBlockRows, min((b+1)*ZoneBlockRows, rows)).
type ColumnZones struct {
	// Mins and Maxs hold the per-block extrema, len = ceil(rows/block).
	Mins, Maxs []float64
}

// Zones summarizes a table's numeric columns block-wise. Nil means "no zone
// maps built" and disables skipping.
type Zones struct {
	rows int
	// byCol maps column index -> envelope; string columns are absent.
	byCol map[int]ColumnZones
}

// NumBlocks returns the number of zone-map blocks covering the table.
func (z *Zones) NumBlocks() int {
	if z == nil {
		return 0
	}
	return (z.rows + ZoneBlockRows - 1) / ZoneBlockRows
}

// Column returns the envelope for column index i, if it is numeric.
func (z *Zones) Column(i int) (ColumnZones, bool) {
	if z == nil {
		return ColumnZones{}, false
	}
	cz, ok := z.byCol[i]
	return cz, ok
}

// HidesNaN reports whether block b of numeric column c may hold a NaN that
// the block's zone envelope does not show. An envelope is folded as
// Moments folds a minimum and maximum: from the block's first value on, a
// NaN is ignored unless it comes first. That cannot matter for an int64
// column, a float64 block whose codec admits no NaN (integral values) or
// shows it (one constant), and it can for any other float64 block — raw
// columns included — which only a decode could rule out.
func HidesNaN(c Column, b int) bool {
	switch v := c.(type) {
	case Int64Col, *I64BlockCol:
		return false
	case *F64BlockCol:
		return v.codecs[b] != codecIntF64 && v.codecs[b] != codecConstF64
	}
	return true
}

// BuildZones computes per-block min/max envelopes for every numeric column
// and attaches them to the table. It is idempotent and cheap relative to a
// single scan (one pass per numeric column); call it once at registration
// or sample-build time, before the table is shared across queries — the
// Table is immutable afterwards, so concurrent readers are safe.
func (t *Table) BuildZones() {
	if t.zones != nil || t.rows == 0 {
		return
	}
	z := &Zones{rows: t.rows, byCol: map[int]ColumnZones{}}
	nb := (t.rows + ZoneBlockRows - 1) / ZoneBlockRows
	for ci, col := range t.cols {
		if cz, ok := envelopeFor(col, nb); ok {
			z.byCol[ci] = cz
		}
	}
	t.zones = z
}

// zoneSource is implemented by block columns that captured per-block
// envelopes during encoding.
type zoneSource interface {
	zoneEnvelope() (ColumnZones, bool)
}

// envelopeFor computes (or adopts) the per-block envelope of a numeric
// column spanning nb blocks.
func envelopeFor(col Column, nb int) (ColumnZones, bool) {
	switch c := col.(type) {
	case Float64Col:
		return buildZonesF64(c, nb), true
	case Int64Col:
		return buildZonesI64(c, nb), true
	}
	if zs, ok := col.(zoneSource); ok {
		return zs.zoneEnvelope()
	}
	return ColumnZones{}, false
}

// Zones returns the table's zone maps, or nil when none were built
// (unregistered tables).
func (t *Table) Zones() *Zones { return t.zones }

// DropZones detaches the table's zone maps: Compress attaches envelopes
// as an encoding by-product, and a test that needs a compressed table
// without them calls this. Call before sharing the table across queries —
// Tables are treated as immutable once published.
func (t *Table) DropZones() { t.zones = nil }

func buildZonesF64(c Float64Col, nb int) ColumnZones {
	mins := make([]float64, nb)
	maxs := make([]float64, nb)
	for b := 0; b < nb; b++ {
		lo := b * ZoneBlockRows
		hi := lo + ZoneBlockRows
		if hi > len(c) {
			hi = len(c)
		}
		mn, mx := c[lo], c[lo]
		for _, v := range c[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mins[b], maxs[b] = mn, mx
	}
	return ColumnZones{Mins: mins, Maxs: maxs}
}

func buildZonesI64(c Int64Col, nb int) ColumnZones {
	mins := make([]float64, nb)
	maxs := make([]float64, nb)
	for b := 0; b < nb; b++ {
		lo := b * ZoneBlockRows
		hi := lo + ZoneBlockRows
		if hi > len(c) {
			hi = len(c)
		}
		mn, mx := c[lo], c[lo]
		for _, v := range c[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mins[b], maxs[b] = float64(mn), float64(mx)
	}
	return ColumnZones{Mins: mins, Maxs: maxs}
}
