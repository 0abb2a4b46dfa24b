package table

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// blockTestTable builds a mixed-type table with compressible structure:
// smooth floats, integral floats, small-range ints, and a tiny string set.
func blockTestTable(n int) *Table {
	rng := rand.New(rand.NewSource(7))
	f := make(Float64Col, n)
	bytesF := make(Float64Col, n)
	ids := make(Int64Col, n)
	city := make(StringCol, n)
	cities := []string{"SF", "NYC", "LDN", "TYO"}
	for i := 0; i < n; i++ {
		f[i] = rng.NormFloat64()*10 + 100
		bytesF[i] = float64(rng.Intn(1 << 20))
		ids[i] = int64(rng.Intn(500))
		city[i] = cities[rng.Intn(len(cities))]
	}
	return MustNew(Schema{
		{Name: "lat", Type: Float64},
		{Name: "bytes", Type: Float64},
		{Name: "id", Type: Int64},
		{Name: "city", Type: String},
	}, f, bytesF, ids, city)
}

func assertTablesEqual(t *testing.T, raw, got *Table) {
	t.Helper()
	if got.NumRows() != raw.NumRows() || got.NumCols() != raw.NumCols() {
		t.Fatalf("shape %dx%d, want %dx%d",
			got.NumRows(), got.NumCols(), raw.NumRows(), raw.NumCols())
	}
	n := raw.NumRows()
	for c := 0; c < raw.NumCols(); c++ {
		switch rc := raw.Column(c).(type) {
		case Float64Col:
			dst := make([]float64, n)
			got.Column(c).(F64Reader).ReadF64(dst, 0)
			for i := range rc {
				if math.Float64bits(dst[i]) != math.Float64bits(rc[i]) {
					t.Fatalf("col %d row %d = %v, want %v", c, i, dst[i], rc[i])
				}
			}
		case Int64Col:
			dst := make([]int64, n)
			got.Column(c).(I64Reader).ReadI64(dst, 0)
			for i := range rc {
				if dst[i] != rc[i] {
					t.Fatalf("col %d row %d = %d, want %d", c, i, dst[i], rc[i])
				}
			}
		case StringCol:
			dst := make([]string, n)
			got.Column(c).(StrReader).ReadStr(dst, 0)
			for i := range rc {
				if dst[i] != rc[i] {
					t.Fatalf("col %d row %d = %q, want %q", c, i, dst[i], rc[i])
				}
			}
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	raw := blockTestTable(3*BlockRows + 137)
	ct := Compress(raw)
	assertTablesEqual(t, raw, ct)

	if got, want := ct.SizeBytes(), raw.SizeBytes(); got != want {
		t.Errorf("logical SizeBytes changed: %d, want %d", got, want)
	}
	if ct.PhysicalSizeBytes() >= raw.PhysicalSizeBytes() {
		t.Errorf("compression did not shrink: %d >= %d",
			ct.PhysicalSizeBytes(), raw.PhysicalSizeBytes())
	}
	if !ct.Lazy() || raw.Lazy() {
		t.Error("Lazy() wrong for compressed/raw tables")
	}
}

func TestCompressedZonesMatchRaw(t *testing.T) {
	raw := blockTestTable(2*BlockRows + 55)
	raw.BuildZones()
	ct := Compress(raw)
	if ct.Zones() == nil {
		t.Fatal("Compress did not attach zones")
	}
	for ci := 0; ci < raw.NumCols(); ci++ {
		rz, rok := raw.Zones().Column(ci)
		cz, cok := ct.Zones().Column(ci)
		if rok != cok {
			t.Fatalf("col %d envelope presence %v vs %v", ci, rok, cok)
		}
		for b := range rz.Mins {
			if cz.Mins[b] != rz.Mins[b] || cz.Maxs[b] != rz.Maxs[b] {
				t.Fatalf("col %d block %d envelope [%v,%v], want [%v,%v]",
					ci, b, cz.Mins[b], cz.Maxs[b], rz.Mins[b], rz.Maxs[b])
			}
		}
	}
}

func TestBlockGatherMatchesRawAndStreams(t *testing.T) {
	raw := blockTestTable(4 * BlockRows)
	ct := Compress(raw)
	rng := rand.New(rand.NewSource(9))
	idx := make([]int, 2000)
	for i := range idx {
		idx[i] = rng.Intn(raw.NumRows())
	}
	before := DecodedBlocks()
	got := ct.Gather(idx)
	decodes := DecodedBlocks() - before
	// Each column decodes each *touched* block at most once: 4 columns x 4
	// blocks is the ceiling no matter how shuffled idx is.
	if maxDecodes := int64(4 * 4); decodes > maxDecodes {
		t.Errorf("gather decoded %d blocks, want <= %d (one per touched block)",
			decodes, maxDecodes)
	}
	assertTablesEqual(t, raw.Gather(idx), got)
}

// TestBlockRangeReads: reading rows [lo, hi) of a block column, from a
// block boundary or inside a block, within one block or across several,
// gives the raw column's rows.
func TestBlockRangeReads(t *testing.T) {
	raw := blockTestTable(3*BlockRows + 10)
	ct := Compress(raw)
	for _, r := range [][2]int{{0, 10}, {5, BlockRows + 5}, {BlockRows, 3 * BlockRows},
		{100, 100}, {60, 910}, {2*BlockRows + 3, 3*BlockRows + 10}} {
		lo, n := r[0], r[1]-r[0]
		idx := make([]int, n)
		for i := range idx {
			idx[i] = lo + i
		}
		cols := make([]Column, ct.NumCols())
		for c := range cols {
			switch col := ct.Column(c).(type) {
			case *F64BlockCol:
				v := make(Float64Col, n)
				col.ReadF64(v, lo)
				cols[c] = v
			case *I64BlockCol:
				v := make(Int64Col, n)
				col.ReadI64(v, lo)
				cols[c] = v
			case *StrBlockCol:
				v := make(StringCol, n)
				col.ReadStr(v, lo)
				cols[c] = v
			}
		}
		assertTablesEqual(t, raw.Gather(idx), MustNew(ct.Schema(), cols...))
	}
}

func TestStrDictOverflowFallsBackRaw(t *testing.T) {
	n := strDictMax + BlockRows + 7
	vals := make(StringCol, n)
	for i := range vals {
		// All distinct: must overflow the dictionary.
		vals[i] = "s" + strconv.Itoa(i)
	}
	col := compressStr(vals)
	if col.dict != nil {
		t.Fatal("dictionary survived past strDictMax distinct values")
	}
	got := make([]string, n)
	col.ReadStr(got, 0)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], vals[i])
		}
	}
}

// TestCacheableBlockByCodec pins the block cache's admission rule to the
// codecs: blocks whose decode transforms values are cacheable, blocks whose
// decode is a copy or a dictionary index per row are not.
func TestCacheableBlockByCodec(t *testing.T) {
	src := rand.New(rand.NewSource(6))
	const n = 3*BlockRows + 317 // a short last block too
	floats := func(gen func(i int) float64) Column {
		c := make(Float64Col, n)
		for i := range c {
			c[i] = gen(i)
		}
		return compressColumn(c)
	}
	ints := func(gen func(i int) int64) Column {
		c := make(Int64Col, n)
		for i := range c {
			c[i] = gen(i)
		}
		return compressColumn(c)
	}
	for _, tc := range []struct {
		name      string
		col       Column
		codec     byte
		cacheable bool
	}{
		{"raw float", floats(func(int) float64 { return src.NormFloat64() }), codecRawF64, false},
		{"constant float", floats(func(int) float64 { return 7.25 }), codecConstF64, false},
		{"int-coded float", floats(func(int) float64 { return float64(src.Intn(1000)) }), codecIntF64, true},
		{"xor float", floats(func(int) float64 { return 1024.25 + float64(src.Intn(512)) }), codecXorF64, true},
		{"raw int", ints(func(int) int64 { return int64(src.Uint64()) }), codecRawI64, false},
		{"constant int", ints(func(int) int64 { return 42 }), codecConstI64, false},
		{"for int", ints(func(int) int64 { return int64(src.Intn(100000)) }), codecForI64, true},
		{"rle int", ints(func(i int) int64 { return int64(i / 64) }), codecRleI64, true},
		{"dict int", ints(func(int) int64 { return 1<<40 + int64(src.Intn(7))<<32 }), codecDictI64, true},
	} {
		var codecs []byte
		switch c := tc.col.(type) {
		case *F64BlockCol:
			codecs = c.codecs
		case *I64BlockCol:
			codecs = c.codecs
		}
		for b, codec := range codecs {
			if codec != tc.codec {
				t.Fatalf("%s: block %d has codec %d, want %d", tc.name, b, codec, tc.codec)
			}
			if got := CacheableBlock(tc.col, b); got != tc.cacheable {
				t.Errorf("%s: CacheableBlock = %v, want %v", tc.name, got, tc.cacheable)
			}
		}
	}

	dict := make(StringCol, n)
	rawPayload := make(StringCol, strDictMax+BlockRows)
	for i := range dict {
		dict[i] = []string{"NYC", "SF", "LA"}[src.Intn(3)]
	}
	for i := range rawPayload {
		rawPayload[i] = "s" + strconv.Itoa(i)
	}
	for _, tc := range []struct {
		name      string
		col       *StrBlockCol
		cacheable bool
	}{
		{"dictionary string", compressStr(dict), false},
		{"raw-payload string", compressStr(rawPayload), true},
	} {
		if (tc.col.dict == nil) != tc.cacheable {
			t.Fatalf("%s: dictionary present = %v", tc.name, tc.col.dict != nil)
		}
		for b := 0; b < numBlocksFor(tc.col.rows); b++ {
			if got := CacheableBlock(tc.col, b); got != tc.cacheable {
				t.Fatalf("%s: block %d CacheableBlock = %v, want %v", tc.name, b, got, tc.cacheable)
			}
		}
	}
	if CacheableBlock(Float64Col{1, 2}, 0) || CacheableBlock(nil, 0) {
		t.Error("a raw column is cacheable")
	}
}

// BenchmarkStrBlockDecode decodes dictionary-coded string blocks over a
// 6-value dictionary (3-bit codes) and a 40-value one (6-bit codes), the
// shapes of a City and a Device column.
func BenchmarkStrBlockDecode(b *testing.B) {
	for _, distinct := range []int{6, 40} {
		b.Run("dict"+strconv.Itoa(distinct), func(b *testing.B) {
			src := rand.New(rand.NewSource(7))
			vals := make(StringCol, 64*BlockRows)
			for i := range vals {
				vals[i] = "value" + strconv.Itoa(src.Intn(distinct))
			}
			col := compressStr(vals)
			dst := make([]string, BlockRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.decodeBlock(i%64, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockRows), "ns/row")
		})
	}
}

func TestStoreRoundTrip(t *testing.T) {
	raw := blockTestTable(3*BlockRows + 137)
	raw.BuildZones()
	path := filepath.Join(t.TempDir(), "t.aqps")
	if err := WriteStore(path, raw); err != nil {
		t.Fatal(err)
	}
	got, closer, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	assertTablesEqual(t, raw, got)
	if got.Zones() == nil {
		t.Fatal("OpenStore did not attach zones from metadata")
	}
	// Zones must match without any decode: compare against raw's.
	for ci := 0; ci < raw.NumCols(); ci++ {
		rz, rok := raw.Zones().Column(ci)
		gz, gok := got.Zones().Column(ci)
		if rok != gok {
			t.Fatalf("col %d envelope presence mismatch", ci)
		}
		for b := range rz.Mins {
			if gz.Mins[b] != rz.Mins[b] || gz.Maxs[b] != rz.Maxs[b] {
				t.Fatalf("col %d block %d stored envelope differs", ci, b)
			}
		}
	}
	if got.SizeBytes() != raw.SizeBytes() {
		t.Errorf("store logical size %d, want %d", got.SizeBytes(), raw.SizeBytes())
	}
}

// TestCompressedFootprintHalved: on a sessions-shaped table (lognormal
// float, integral float, small-range int, six-value string) the block
// codecs at least halve the footprint, resident and on disk.
func TestCompressedFootprintHalved(t *testing.T) {
	const n = 64 * BlockRows
	rng := rand.New(rand.NewSource(11))
	times := make(Float64Col, n)
	bytesF := make(Float64Col, n)
	users := make(Int64Col, n)
	city := make(StringCol, n)
	cities := []string{"NYC", "SF", "LA", "CHI", "LDN", "TYO"}
	for i := 0; i < n; i++ {
		times[i] = math.Exp(4 + 0.6*rng.NormFloat64())
		bytesF[i] = float64(rng.Intn(1 << 20))
		users[i] = int64(rng.Intn(1000))
		city[i] = cities[rng.Intn(len(cities))]
	}
	raw := MustNew(Schema{
		{Name: "Time", Type: Float64},
		{Name: "bytes", Type: Float64},
		{Name: "user", Type: Int64},
		{Name: "City", Type: String},
	}, times, bytesF, users, city)

	ct := Compress(raw)
	if r := float64(ct.SizeBytes()) / float64(ct.PhysicalSizeBytes()); r < 2 {
		t.Errorf("Compress: logical/physical = %.2f, want >= 2", r)
	}
	path := filepath.Join(t.TempDir(), "t.aqps")
	if err := WriteStore(path, raw); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(raw.SizeBytes()) / float64(fi.Size()); r < 2 {
		t.Errorf("WriteStore: logical/file = %.2f, want >= 2", r)
	}
}

func TestStoreSpecialFloats(t *testing.T) {
	// NaN/±Inf envelopes must survive the JSON metadata round trip.
	f := Float64Col{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.5}
	raw := MustNew(Schema{{Name: "x", Type: Float64}}, f)
	path := filepath.Join(t.TempDir(), "s.aqps")
	if err := WriteStore(path, raw); err != nil {
		t.Fatal(err)
	}
	got, closer, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	assertTablesEqual(t, raw, got)
}
