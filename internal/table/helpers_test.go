package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Test-only table helpers: the engine stores and gathers tables through
// GatherStored; these build the fixtures and the reference forms the tests
// compare against.

// WithColumn returns a new table with an extra column appended. The
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
	out := &Zones{rows: z.rows, byCol: make(map[int]ColumnZones, len(z.byCol)+1)}
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
