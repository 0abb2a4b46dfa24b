package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Test-only table helpers: the engine stores, gathers and partitions
// tables through GatherStored and PartitionAligned; these build the
// fixtures and the reference forms the tests compare against.

// ParseBacking converts a knob string ("raw", "compressed", "mmap") to a
// Backing.
func ParseBacking(s string) (Backing, error) {
	switch s {
	case "", "raw":
		return BackingRaw, nil
	case "compressed":
		return BackingCompressed, nil
	case "mmap":
		return BackingMmap, nil
	}
	return BackingRaw, fmt.Errorf("table: unknown backing %q", s)
}

// Partition splits the table into k contiguous, zero-copy views of
// near-equal size. Remainder rows are spread across the leading
// partitions. k must be >= 1; partitions beyond the row count are empty.
func (t *Table) Partition(k int) []*Table {
	if k < 1 {
		panic("table: Partition with k < 1")
	}
	parts := make([]*Table, k)
	base := t.rows / k
	rem := t.rows % k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		parts[i] = t.Slice(start, start+size)
		start += size
	}
	return parts
}

// WithColumn returns a new table view with an extra column appended. The
// column must match the table's row count.
func (t *Table) WithColumn(f Field, c Column) (*Table, error) {
	if c.Len() != t.rows {
		return nil, fmt.Errorf("table: new column %q has %d rows, want %d",
			f.Name, c.Len(), t.rows)
	}
	if c.Type() != f.Type {
		return nil, fmt.Errorf("table: new column %q type mismatch", f.Name)
	}
	schema := make(Schema, 0, len(t.schema)+1)
	schema = append(schema, t.schema...)
	schema = append(schema, f)
	cols := make([]Column, 0, len(t.cols)+1)
	cols = append(cols, t.cols...)
	cols = append(cols, c)
	out := &Table{schema: schema, cols: cols, rows: t.rows}
	// Row numbering is unchanged, so existing envelopes stay valid; extend
	// them with an envelope for the new column when it is numeric.
	out.zones = t.zones.withColumn(len(t.cols), c)
	return out, nil
}

// withColumn extends the zones with an envelope for a newly appended
// column at index ci (numeric columns only). Nil receiver stays nil.
func (z *Zones) withColumn(ci int, c Column) *Zones {
	if z == nil {
		return nil
	}
	out := &Zones{rows: z.rows, byCol: make(map[int]ColumnZones, len(z.byCol)+1), wideTail: z.wideTail}
	for k, v := range z.byCol {
		out.byCol[k] = v
	}
	if cz, ok := envelopeFor(c, z.NumBlocks()); ok {
		out.byCol[ci] = cz
	}
	return out
}

// Gather returns a new raw table containing the rows at idx, in order.
// Indices may repeat (sampling with replacement). The result carries no
// zone maps.
func (t *Table) Gather(idx []int) *Table {
	cols := t.gatherColumns(idx, 1, func(_ int, raw Column) Column { return raw })
	return &Table{schema: t.schema, cols: cols, rows: len(idx)}
}

// WriteCSV writes the table as CSV with a header row.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.NumCols())
	for i, f := range t.Schema() {
		header[i] = f.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	// Raw columns only: the round-trip test is its one caller.
	type colWriter func(r int) string
	writers := make([]colWriter, t.NumCols())
	for c := 0; c < t.NumCols(); c++ {
		switch col := t.Column(c).(type) {
		case Float64Col:
			writers[c] = func(r int) string {
				return strconv.FormatFloat(col[r], 'g', -1, 64)
			}
		case Int64Col:
			writers[c] = func(r int) string { return strconv.FormatInt(col[r], 10) }
		case StringCol:
			writers[c] = func(r int) string { return col[r] }
		default:
			return fmt.Errorf("table: WriteCSV of a %T column", col)
		}
	}
	rec := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c := range writers {
			rec[c] = writers[c](r)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
