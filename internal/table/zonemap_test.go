package table

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

func zoneTestTable(n int) *Table {
	f := make(Float64Col, n)
	i64 := make(Int64Col, n)
	s := make(StringCol, n)
	for i := 0; i < n; i++ {
		// Clustered: values grow with the row index, so each block's
		// envelope is tight and distinct from its neighbours'.
		f[i] = float64(i) + math.Sin(float64(i))
		i64[i] = int64(n - i)
		s[i] = "x"
	}
	return MustNew(Schema{
		{Name: "f", Type: Float64},
		{Name: "n", Type: Int64},
		{Name: "s", Type: String},
	}, f, i64, s)
}

func TestBuildZonesEnvelopes(t *testing.T) {
	// A size that does not divide evenly by ZoneBlockRows exercises the
	// short final block.
	n := 3*ZoneBlockRows + 137
	tbl := zoneTestTable(n)
	if tbl.Zones() != nil {
		t.Fatal("zones present before BuildZones")
	}
	tbl.BuildZones()
	z := tbl.Zones()
	if z == nil {
		t.Fatal("BuildZones left nil zones")
	}
	wantBlocks := (n + ZoneBlockRows - 1) / ZoneBlockRows
	if z.NumBlocks() != wantBlocks {
		t.Fatalf("NumBlocks = %d, want %d", z.NumBlocks(), wantBlocks)
	}

	f := tbl.ColumnByName("f").(Float64Col)
	i64 := tbl.ColumnByName("n").(Int64Col)
	for ci, col := range []int{tbl.Schema().Index("f"), tbl.Schema().Index("n")} {
		cz, ok := z.Column(col)
		if !ok {
			t.Fatalf("numeric column %d has no envelope", col)
		}
		if len(cz.Mins) != wantBlocks || len(cz.Maxs) != wantBlocks {
			t.Fatalf("envelope length %d/%d, want %d", len(cz.Mins), len(cz.Maxs), wantBlocks)
		}
		for b := 0; b < wantBlocks; b++ {
			lo := b * ZoneBlockRows
			hi := lo + ZoneBlockRows
			if hi > n {
				hi = n
			}
			mn, mx := math.Inf(1), math.Inf(-1)
			for i := lo; i < hi; i++ {
				var v float64
				if ci == 0 {
					v = f[i]
				} else {
					v = float64(i64[i])
				}
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}
			if cz.Mins[b] != mn || cz.Maxs[b] != mx {
				t.Fatalf("col %d block %d envelope [%v, %v], want [%v, %v]",
					col, b, cz.Mins[b], cz.Maxs[b], mn, mx)
			}
		}
	}

	if _, ok := z.Column(tbl.Schema().Index("s")); ok {
		t.Error("string column has a zone-map envelope")
	}
}

func TestBuildZonesIdempotent(t *testing.T) {
	tbl := zoneTestTable(2 * ZoneBlockRows)
	tbl.BuildZones()
	z1 := tbl.Zones()
	tbl.BuildZones()
	if tbl.Zones() != z1 {
		t.Error("second BuildZones replaced the zone maps")
	}
}

// TestViewZoneInheritance: a gather renumbers rows, so it does not carry
// the source's zones; appending a column keeps the row numbering, so the
// table keeps its envelopes and gains one for the new column.
func TestViewZoneInheritance(t *testing.T) {
	tbl := zoneTestTable(2*ZoneBlockRows + 10)
	tbl.BuildZones()

	if v := tbl.Gather([]int{3, 1, 2}); v.Zones() != nil {
		t.Error("Gather inherited zones")
	}

	// WithColumn keeps row numbering, so it inherits and extends.
	wv, err := tbl.WithColumn(Field{Name: "f2", Type: Float64},
		Float64Col(make([]float64, tbl.NumRows())))
	if err != nil {
		t.Fatal(err)
	}
	wz := wv.Zones()
	if wz == nil {
		t.Fatal("WithColumn did not keep the zones")
	}
	ncz, ok := wz.Column(wv.Schema().Index("f2"))
	if !ok {
		t.Fatal("WithColumn did not build an envelope for the new column")
	}
	if ncz.Mins[0] != 0 || ncz.Maxs[0] != 0 {
		t.Error("new column envelope wrong for all-zero column")
	}
}

func TestBuildZonesEmptyTable(t *testing.T) {
	tbl := MustNew(Schema{{Name: "x", Type: Float64}}, Float64Col{})
	tbl.BuildZones()
	if z := tbl.Zones(); z.NumBlocks() != 0 {
		t.Errorf("empty table has %d blocks", z.NumBlocks())
	}
}

// TestEnvelopesAreBlockExtrema: every block's envelope is, bit for bit,
// Moments.Min and Moments.Max over the block's decoded values, for every
// internal/workload generator's column and an int64 column, on the raw,
// compressed, stored and gathered backings — the identity that lets the
// executor answer MIN and MAX off a block it does not decode.
func TestEnvelopesAreBlockExtrema(t *testing.T) {
	n := 4*BlockRows + 321
	src := rng.New(11)
	var schema Schema
	var cols []Column
	for d := workload.Gaussian; d <= workload.Bimodal; d++ {
		schema = append(schema, Field{Name: d.String(), Type: Float64})
		cols = append(cols, Float64Col(workload.GenerateColumn(src, d, n)))
	}
	ids := make(Int64Col, n)
	for i := range ids {
		ids[i] = int64(src.Intn(1 << 20))
	}
	schema = append(schema, Field{Name: "id", Type: Int64})
	raw := MustNew(schema, append(cols, ids)...)
	raw.BuildZones()
	path := filepath.Join(t.TempDir(), "t.store")
	if err := WriteStore(path, raw); err != nil {
		t.Fatal(err)
	}
	stored, closer, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	idx := make([]int, n/2)
	for i := range idx {
		idx[i] = src.Intn(n)
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for name, tbl := range map[string]*Table{"raw": raw, "compressed": Compress(raw), "stored": stored,
		"gathered": raw.GatherStored(idx, BackingCompressed, 2)} {
		z := tbl.Zones()
		for ci, f := range tbl.Schema() {
			cz, ok := z.Column(ci)
			if !ok {
				t.Fatalf("%s %s: no envelope", name, f.Name)
			}
			vals := make([]float64, tbl.NumRows())
			tbl.Column(ci).(F64Reader).ReadF64(vals, 0)
			for b := 0; b < z.NumBlocks(); b++ {
				var m stats.Moments
				for _, v := range vals[b*BlockRows : min((b+1)*BlockRows, len(vals))] {
					m.Add(v)
				}
				if bits(cz.Mins[b]) != bits(m.Min()) || bits(cz.Maxs[b]) != bits(m.Max()) {
					t.Fatalf("%s %s block %d: envelope [%v, %v], Moments [%v, %v]", name, f.Name, b,
						cz.Mins[b], cz.Maxs[b], m.Min(), m.Max())
				}
			}
		}
	}
}

// TestZonesExactAndHidesNaN: only int64 columns and integral or constant
// float64 blocks rule out a NaN their envelope does not show. (That every
// envelope is its own block's extrema is TestEnvelopesAreBlockExtrema.)
func TestZonesExactAndHidesNaN(t *testing.T) {
	f := make(Float64Col, 3*BlockRows)
	for i := range f {
		f[i] = float64(i % 7) // integral: block 0
	}
	for i := BlockRows; i < 2*BlockRows; i++ {
		f[i] = 0.5 + float64(i%7) // fractional: raw or XOR
	}
	for i := 2 * BlockRows; i < 3*BlockRows; i++ {
		f[i] = 2.5 // constant
	}
	comp := Compress(MustNew(Schema{{Name: "f", Type: Float64}, {Name: "i", Type: Int64}},
		f, make(Int64Col, len(f))))
	fc, ic := comp.Column(0), comp.Column(1)
	for b, want := range []bool{false, true, false} {
		if got := HidesNaN(fc, b); got != want {
			t.Errorf("float block %d: HidesNaN %v, want %v", b, got, want)
		}
		if HidesNaN(ic, b) {
			t.Errorf("int64 block %d may hide a NaN", b)
		}
	}
	if !HidesNaN(f, 0) {
		t.Error("a raw float64 column rules out a NaN without a decode")
	}
}
