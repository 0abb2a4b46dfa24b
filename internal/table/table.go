// Package table implements the in-memory columnar storage substrate of the
// engine: typed columns, schemas, immutable tables, block storage with zone
// maps, and row gathering.
//
// Tables are append-built with a Builder and immutable afterwards. A scan
// addresses a run of rows as a row range of the one stored table (the
// executor's block walk), never as a table of its own, so a block index
// always means the same rows of the same column.
package table

import (
	"fmt"
	"strings"
)

// Type enumerates column types supported by the engine.
type Type int

// Column types.
const (
	Float64 Type = iota
	Int64
	String
)

func (t Type) String() string {
	switch t {
	case Float64:
		return "FLOAT64"
	case Int64:
		return "INT64"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Field is a named, typed column slot in a schema.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema []Field

// Index returns the position of the named field, or -1 if absent. Lookup is
// case-insensitive, matching the SQL layer.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// String renders the schema as "name TYPE, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Name + " " + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Column is a typed vector of values.
type Column interface {
	Len() int
	Type() Type
	// gather returns a new raw column of the rows at p.idx (see gather.go).
	gather(p *gatherPlan) Column
	// sizeBytes is the LOGICAL size: what the decoded values occupy. It is
	// backing-invariant, so BytesScanned stays comparable across backings.
	sizeBytes() int64
	// physBytes is the resident size of the physical representation
	// (encoded payloads + block metadata for block columns).
	physBytes() int64
	// lazy reports whether access decodes blocks rather than reading a raw
	// slice; the executor uses it to pick the block-walk path.
	lazy() bool
}

// Float64Col is a vector of float64 values.
type Float64Col []float64

// Len returns the number of rows.
func (c Float64Col) Len() int { return len(c) }

// Type returns Float64.
func (c Float64Col) Type() Type { return Float64 }

func (c Float64Col) gather(p *gatherPlan) Column {
	out := make(Float64Col, len(p.idx))
	for k, i := range p.idx {
		out[k] = c[i]
	}
	return out
}

func (c Float64Col) sizeBytes() int64 { return int64(len(c)) * 8 }

// Int64Col is a vector of int64 values.
type Int64Col []int64

// Len returns the number of rows.
func (c Int64Col) Len() int { return len(c) }

// Type returns Int64.
func (c Int64Col) Type() Type { return Int64 }

func (c Int64Col) gather(p *gatherPlan) Column {
	out := make(Int64Col, len(p.idx))
	for k, i := range p.idx {
		out[k] = c[i]
	}
	return out
}

func (c Int64Col) sizeBytes() int64 { return int64(len(c)) * 8 }

// StringCol is a vector of string values.
type StringCol []string

// Len returns the number of rows.
func (c StringCol) Len() int { return len(c) }

// Type returns String.
func (c StringCol) Type() Type { return String }

func (c StringCol) gather(p *gatherPlan) Column {
	out := make(StringCol, len(p.idx))
	for k, i := range p.idx {
		out[k] = c[i]
	}
	return out
}

func (c StringCol) sizeBytes() int64 {
	var n int64
	for _, s := range c {
		n += int64(len(s)) + 16
	}
	return n
}

// Table is an immutable columnar table.
type Table struct {
	schema Schema
	cols   []Column
	rows   int
	// zones holds per-block min/max envelopes for numeric columns, built
	// once via BuildZones on stored tables. A gathered table without a
	// rebuilt envelope leaves it nil, which simply disables skipping.
	zones *Zones
	// storeDigest and storeDir are set by OpenStore on the table it returns:
	// the digest its store file records and the directory that file is in.
	// See StoreIdentity.
	storeDigest, storeDir string
	// tag is set by OpenStore from the file's metadata. See Tag.
	tag string
}

// StoreIdentity reports, for a table that OpenStore returned from a file
// carrying a digest, that digest (a hex SHA-256 that covers the file's
// content, see store.go) and the file's directory. Equal digests mean equal tables
// whatever the files are called, which is what lets something derived from
// the table — a sample — be stored beside it under a name made from the
// digest and found again by any process that opens the same content. Tables
// built in memory and stores written before digests existed report "", "".
func (t *Table) StoreIdentity() (digest, dir string) {
	if t.storeDigest == "" {
		return "", ""
	}
	return t.storeDigest, t.storeDir
}

// Tag returns the text the store file the table was opened from records: what
// its writer (WriteStoreTagged) said the file holds. "" for any other table.
func (t *Table) Tag() string { return t.tag }

// New assembles a table from a schema and matching columns. All columns
// must have equal length and types matching the schema.
func New(schema Schema, cols ...Column) (*Table, error) {
	if len(schema) != len(cols) {
		return nil, fmt.Errorf("table: schema has %d fields but %d columns given",
			len(schema), len(cols))
	}
	rows := 0
	for i, c := range cols {
		if c.Type() != schema[i].Type {
			return nil, fmt.Errorf("table: column %q is %v but schema says %v",
				schema[i].Name, c.Type(), schema[i].Type)
		}
		if i == 0 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("table: column %q has %d rows, want %d",
				schema[i].Name, c.Len(), rows)
		}
	}
	return &Table{schema: schema, cols: cols, rows: rows}, nil
}

// MustNew is New but panics on error; for tests and generators with static
// shape.
func MustNew(schema Schema, cols ...Column) *Table {
	t, err := New(schema, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// Column returns the i-th column.
func (t *Table) Column(i int) Column { return t.cols[i] }

// ColumnByName returns the named column, or nil if absent.
func (t *Table) ColumnByName(name string) Column {
	i := t.schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.cols[i]
}

// SizeBytes estimates the LOGICAL in-memory footprint of the table's data —
// what the decoded values occupy. It is deliberately backing-invariant so
// BytesScanned (and the cluster cost model built on it) reads the same for
// raw, compressed and mmap backings of the same data.
func (t *Table) SizeBytes() int64 {
	var n int64
	for _, c := range t.cols {
		n += c.sizeBytes()
	}
	return n
}

// PhysicalSizeBytes reports the resident footprint of the table's physical
// representation: raw slices for raw columns, encoded payloads plus block
// metadata for compressed and mmap-backed columns.
func (t *Table) PhysicalSizeBytes() int64 {
	var n int64
	for _, c := range t.cols {
		n += c.physBytes()
	}
	return n
}

// Lazy reports whether any column decodes on access (block-compressed or
// mmap-backed).
func (t *Table) Lazy() bool {
	for _, c := range t.cols {
		if c.lazy() {
			return true
		}
	}
	return false
}

// Builder accumulates rows for a schema and produces an immutable Table.
type Builder struct {
	schema Schema
	f64s   map[int][]float64
	i64s   map[int][]int64
	strs   map[int][]string
	rows   int
}

// NewBuilder returns a builder for the given schema.
func NewBuilder(schema Schema) *Builder {
	b := &Builder{
		schema: schema,
		f64s:   map[int][]float64{},
		i64s:   map[int][]int64{},
		strs:   map[int][]string{},
	}
	for i, f := range schema {
		switch f.Type {
		case Float64:
			b.f64s[i] = nil
		case Int64:
			b.i64s[i] = nil
		case String:
			b.strs[i] = nil
		}
	}
	return b
}

// AppendRow appends one row. vals must match the schema arity and types
// (float64, int64 or string per field). It panics on mismatch, since
// builders are driven by generators with static shape.
func (b *Builder) AppendRow(vals ...any) {
	if len(vals) != len(b.schema) {
		panic(fmt.Sprintf("table: AppendRow got %d values for %d fields",
			len(vals), len(b.schema)))
	}
	for i, v := range vals {
		switch b.schema[i].Type {
		case Float64:
			b.f64s[i] = append(b.f64s[i], v.(float64))
		case Int64:
			b.i64s[i] = append(b.i64s[i], v.(int64))
		case String:
			b.strs[i] = append(b.strs[i], v.(string))
		}
	}
	b.rows++
}

// Build finalizes the builder into a Table. The builder must not be used
// afterwards.
func (b *Builder) Build() *Table {
	cols := make([]Column, len(b.schema))
	for i, f := range b.schema {
		switch f.Type {
		case Float64:
			cols[i] = Float64Col(b.f64s[i])
		case Int64:
			cols[i] = Int64Col(b.i64s[i])
		case String:
			cols[i] = StringCol(b.strs[i])
		}
	}
	return MustNew(b.schema, cols...)
}
