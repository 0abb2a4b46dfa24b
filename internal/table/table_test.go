package table

import (
	"strings"
	"testing"
)

func demoTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(
		Schema{{"time", Float64}, {"user", Int64}, {"city", String}},
		Float64Col{1.5, 2.5, 3.5, 4.5, 5.5},
		Int64Col{10, 20, 30, 40, 50},
		StringCol{"NYC", "SF", "NYC", "LA", "SF"},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tbl
}

func TestNewValidation(t *testing.T) {
	_, err := New(Schema{{"a", Float64}}, Float64Col{1}, Int64Col{2})
	if err == nil {
		t.Error("arity mismatch not rejected")
	}
	_, err = New(Schema{{"a", Float64}}, Int64Col{1})
	if err == nil {
		t.Error("type mismatch not rejected")
	}
	_, err = New(Schema{{"a", Float64}, {"b", Float64}},
		Float64Col{1, 2}, Float64Col{1})
	if err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestSchemaIndexCaseInsensitive(t *testing.T) {
	tbl := demoTable(t)
	if i := tbl.Schema().Index("CITY"); i != 2 {
		t.Errorf("Index(CITY) = %d, want 2", i)
	}
	if i := tbl.Schema().Index("missing"); i != -1 {
		t.Errorf("Index(missing) = %d, want -1", i)
	}
}

func TestSchemaString(t *testing.T) {
	got := Schema{{"a", Float64}, {"b", String}}.String()
	if got != "a FLOAT64, b STRING" {
		t.Errorf("Schema.String() = %q", got)
	}
	if !strings.Contains(Type(99).String(), "99") {
		t.Error("unknown type String() should include the code")
	}
}

func TestAccessors(t *testing.T) {
	tbl := demoTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if c := tbl.ColumnByName("user"); c == nil || c.Type() != Int64 {
		t.Error("ColumnByName(user) wrong")
	}
	if c := tbl.ColumnByName("nope"); c != nil {
		t.Error("ColumnByName(nope) should be nil")
	}
	if tbl.Column(0).Len() != 5 {
		t.Error("Column(0) length wrong")
	}
}

func TestFloat64ColumnByName(t *testing.T) {
	// A numeric column read by name comes back as float64 values, int64
	// widened; a string column is not readable as numbers.
	tbl := demoTable(t)
	read := func(name string) []float64 {
		r, ok := tbl.ColumnByName(name).(F64Reader)
		if !ok {
			return nil
		}
		out := make([]float64, r.Len())
		r.ReadF64(out, 0)
		return out
	}
	if f := read("time"); len(f) != 5 || f[2] != 3.5 {
		t.Errorf("float column: %v", f)
	}
	if g := read("user"); len(g) != 5 || g[4] != 50 {
		t.Errorf("int widening: %v", g)
	}
	if read("city") != nil {
		t.Error("string column read as numbers")
	}
	if tbl.ColumnByName("zzz") != nil {
		t.Error("missing column found")
	}
}

func TestGather(t *testing.T) {
	tbl := demoTable(t)
	g := tbl.Gather([]int{4, 0, 0})
	if g.NumRows() != 3 {
		t.Fatalf("gather rows = %d", g.NumRows())
	}
	times := g.Column(0).(Float64Col)
	if times[0] != 5.5 || times[1] != 1.5 || times[2] != 1.5 {
		t.Errorf("gather values = %v", times)
	}
	cities := g.Column(2).(StringCol)
	if cities[0] != "SF" {
		t.Errorf("gather strings = %v", cities)
	}
	ints := g.Column(1).(Int64Col)
	if ints[0] != 50 {
		t.Errorf("gather ints = %v", ints)
	}
}

func TestWithColumn(t *testing.T) {
	tbl := demoTable(t)
	w, err := tbl.WithColumn(Field{"w", Float64}, Float64Col{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatalf("WithColumn: %v", err)
	}
	if w.NumCols() != 4 || w.Schema().Index("w") != 3 {
		t.Error("WithColumn shape wrong")
	}
	// Original table is untouched.
	if tbl.NumCols() != 3 {
		t.Error("WithColumn mutated the receiver")
	}
	if _, err := tbl.WithColumn(Field{"bad", Float64}, Float64Col{1}); err == nil {
		t.Error("row-count mismatch not rejected")
	}
	if _, err := tbl.WithColumn(Field{"bad", Int64}, Float64Col{1, 2, 3, 4, 5}); err == nil {
		t.Error("type mismatch not rejected")
	}
}

func TestSizeBytes(t *testing.T) {
	tbl := demoTable(t)
	if tbl.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	// Float64 and Int64 columns contribute 8 bytes per row.
	numeric := MustNew(Schema{{"a", Float64}, {"b", Int64}},
		Float64Col{1, 2}, Int64Col{3, 4})
	if numeric.SizeBytes() != 32 {
		t.Errorf("numeric SizeBytes = %d, want 32", numeric.SizeBytes())
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(Schema{{"x", Float64}, {"n", Int64}, {"s", String}})
	b.AppendRow(1.0, int64(2), "three")
	b.AppendRow(4.0, int64(5), "six")
	if b.rows != 2 {
		t.Fatalf("builder rows = %d", b.rows)
	}
	tbl := b.Build()
	if tbl.NumRows() != 2 {
		t.Fatalf("built rows = %d", tbl.NumRows())
	}
	if tbl.Column(0).(Float64Col)[1] != 4.0 {
		t.Error("builder float payload wrong")
	}
	if tbl.Column(1).(Int64Col)[0] != 2 {
		t.Error("builder int payload wrong")
	}
	if tbl.Column(2).(StringCol)[1] != "six" {
		t.Error("builder string payload wrong")
	}
}

func TestBuilderPanicsOnArity(t *testing.T) {
	b := NewBuilder(Schema{{"x", Float64}})
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity AppendRow did not panic")
		}
	}()
	b.AppendRow(1.0, 2.0)
}

func TestEmptyTable(t *testing.T) {
	tbl := MustNew(Schema{{"x", Float64}}, Float64Col{})
	if tbl.NumRows() != 0 {
		t.Error("empty table rows != 0")
	}
	if g := tbl.Gather(nil); g.NumRows() != 0 {
		t.Error("empty gather should be empty")
	}
}
