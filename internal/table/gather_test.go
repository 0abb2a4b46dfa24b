package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// gatherSource is blockTestTable plus a float column of the values codecs
// and envelopes are most likely to mishandle.
func gatherSource(t *testing.T, n int) *Table {
	t.Helper()
	wild := make(Float64Col, n)
	rng := rand.New(rand.NewSource(11))
	specials := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324}
	for i := range wild {
		wild[i] = rng.ExpFloat64()
		if rng.Intn(50) == 0 {
			wild[i] = specials[rng.Intn(len(specials))]
		}
	}
	src, err := blockTestTable(n).WithColumn(Field{Name: "wild", Type: Float64}, wild)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// gatherRowByRow is the reference: one AppendRow per drawn row, each value
// read straight from the raw source at row idx[k].
func gatherRowByRow(raw *Table, idx []int) *Table {
	b := NewBuilder(raw.Schema())
	vals := make([]any, raw.NumCols())
	for _, r := range idx {
		for ci := range vals {
			switch c := raw.Column(ci).(type) {
			case Float64Col:
				vals[ci] = c[r]
			case Int64Col:
				vals[ci] = c[r]
			case StringCol:
				vals[ci] = c[r]
			}
		}
		b.AppendRow(vals...)
	}
	return b.Build()
}

func f64Bits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// assertSameStorage fails unless got and want hold the same physical
// columns: payload bytes, block offsets, codecs, dictionaries — and the same
// zone envelopes, bit for bit.
func assertSameStorage(t *testing.T, label string, got, want *Table) {
	t.Helper()
	for ci := range want.cols {
		switch w := want.cols[ci].(type) {
		case *F64BlockCol:
			g, ok := got.cols[ci].(*F64BlockCol)
			if !ok || !bytes.Equal(g.data, w.data) || !reflect.DeepEqual(g.offs, w.offs) ||
				!bytes.Equal(g.codecs, w.codecs) || g.rows != w.rows {
				t.Fatalf("%s: float64 column %d encoded differently", label, ci)
			}
		case *I64BlockCol:
			g, ok := got.cols[ci].(*I64BlockCol)
			if !ok || !bytes.Equal(g.data, w.data) || !reflect.DeepEqual(g.offs, w.offs) ||
				!bytes.Equal(g.codecs, w.codecs) || g.rows != w.rows {
				t.Fatalf("%s: int64 column %d encoded differently", label, ci)
			}
		case *StrBlockCol:
			g, ok := got.cols[ci].(*StrBlockCol)
			if !ok || !bytes.Equal(g.data, w.data) || !reflect.DeepEqual(g.offs, w.offs) ||
				!bytes.Equal(g.widths, w.widths) || !reflect.DeepEqual(g.dict, w.dict) ||
				g.rows != w.rows || g.logical != w.logical {
				t.Fatalf("%s: string column %d encoded differently", label, ci)
			}
		default:
			if reflect.TypeOf(got.cols[ci]) != reflect.TypeOf(w) {
				t.Fatalf("%s: column %d is %T, want %T", label, ci, got.cols[ci], w)
			}
		}
		gz, gok := got.Zones().Column(ci)
		wz, wok := want.Zones().Column(ci)
		if gok != wok || !reflect.DeepEqual(f64Bits(gz.Mins), f64Bits(wz.Mins)) ||
			!reflect.DeepEqual(f64Bits(gz.Maxs), f64Bits(wz.Maxs)) {
			t.Fatalf("%s: column %d zone envelope differs", label, ci)
		}
	}
	if (got.Zones() == nil) != (want.Zones() == nil) {
		t.Fatalf("%s: zones presence differs", label)
	}
}

// TestGatherDifferential checks Gather and GatherStored against a
// row-at-a-time reference over every source backing, for the
// index patterns that stress the block-bucketed visiting order, at 1, 2 and
// 8 workers. GatherStored must equal what the parent pipeline produced:
// Compress (or BuildZones) applied to the plainly gathered rows.
func TestGatherDifferential(t *testing.T) {
	const n = 3*BlockRows + 137
	raw := gatherSource(t, n)
	comp := Compress(raw)
	path := filepath.Join(t.TempDir(), "gather.store")
	if err := WriteStore(path, raw); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	// A block-backed table with a raw column appended.
	extra := make(Float64Col, n)
	for i := range extra {
		extra[i] = float64(i) / 3
	}
	mixedRaw, err := raw.WithColumn(Field{Name: "extra", Type: Float64}, extra)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := comp.WithColumn(Field{Name: "extra", Type: Float64}, extra)
	if err != nil {
		t.Fatal(err)
	}

	sources := []struct {
		name string
		tbl  *Table
		ref  *Table // raw twin of tbl
	}{
		{"raw", raw, raw},
		{"compressed", comp, raw},
		{"mmap", mapped, raw},
		{"block columns plus raw column", mixed, mixedRaw},
	}
	rng := rand.New(rand.NewSource(5))
	for _, src := range sources {
		rows := src.tbl.NumRows()
		dup := make([]int, 1500)
		for i := range dup {
			dup[i] = rng.Intn(rows)
		}
		oneBlock := make([]int, 300)
		for i := range oneBlock {
			oneBlock[i] = BlockRows/2 + rng.Intn(BlockRows/4)
		}
		tail := []int{rows - 1, 0, rows - 2, rows - 1, rows / 2}
		idxs := map[string][]int{
			"shuffled":   rng.Perm(rows)[:rows/2],
			"duplicates": dup,
			"empty":      {},
			"one block":  oneBlock,
			"last rows":  tail,
			"every row":  rng.Perm(rows),
		}
		for iname, idx := range idxs {
			label := fmt.Sprintf("%s/%s", src.name, iname)
			want := gatherRowByRow(src.ref, idx)
			got := src.tbl.Gather(idx)
			assertTablesEqual(t, want, got)
			if got.Zones() != nil || got.Lazy() {
				t.Fatalf("%s: Gather returned zones or lazy columns", label)
			}
			wantRaw := gatherRowByRow(src.ref, idx)
			wantRaw.BuildZones()
			wantComp := Compress(want)
			for _, workers := range []int{1, 2, 8} {
				wl := fmt.Sprintf("%s workers=%d", label, workers)
				gr := src.tbl.GatherStored(idx, BackingRaw, workers)
				assertTablesEqual(t, want, gr)
				assertSameStorage(t, wl+" raw", gr, wantRaw)
				gc := src.tbl.GatherStored(idx, BackingCompressed, workers)
				assertTablesEqual(t, want, gc)
				assertSameStorage(t, wl+" compressed", gc, wantComp)
			}
		}
	}
}

// TestGatherOutOfRangePanicsOnCaller: a bad row id must surface as a panic
// the caller can recover, whatever the worker count — never in a column
// goroutine, where it would take the process down.
func TestGatherOutOfRangePanicsOnCaller(t *testing.T) {
	comp := Compress(blockTestTable(2 * BlockRows))
	for _, idx := range [][]int{{0, 2 * BlockRows}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GatherStored(%v) did not panic", idx)
				}
			}()
			comp.GatherStored(idx, BackingCompressed, 4)
		}()
	}
}
