package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/table"
)

// codecTable has one column per block codec, every block of a column in
// the same codec (table.TestCacheableBlockByCodec pins the codecs these
// generators produce), and reports for each column whether the block cache
// admits it. sraw has more distinct values than a string dictionary holds,
// so its blocks are raw payloads.
func codecTable() (*table.Table, map[string]bool) {
	n := 66*table.BlockRows + 317
	src := rng.New(83)
	cities := []string{"NYC", "SF", "LA", "CHI"}
	type column struct {
		name      string
		cacheable bool
		col       table.Column
	}
	floats := func(gen func(i int) float64) table.Column {
		c := make(table.Float64Col, n)
		for i := range c {
			c[i] = gen(i)
		}
		return c
	}
	ints := func(gen func(i int) int64) table.Column {
		c := make(table.Int64Col, n)
		for i := range c {
			c[i] = gen(i)
		}
		return c
	}
	strs := func(gen func(i int) string) table.Column {
		c := make(table.StringCol, n)
		for i := range c {
			c[i] = gen(i)
		}
		return c
	}
	cols := []column{
		{"fraw", false, floats(func(int) float64 { return 60 + 20*src.NormFloat64() })},
		{"fconst", false, floats(func(int) float64 { return 7.25 })},
		{"fint", true, floats(func(int) float64 { return float64(src.Intn(1000)) })},
		{"fxor", true, floats(func(int) float64 { return 1024.25 + float64(src.Intn(512)) })},
		{"iraw", false, ints(func(int) int64 { return int64(src.Uint64()) })},
		{"iconst", false, ints(func(int) int64 { return 42 })},
		{"ifor", true, ints(func(int) int64 { return int64(src.Intn(100000)) })},
		{"irle", true, ints(func(i int) int64 { return int64(i / 64) })},
		{"idict", true, ints(func(int) int64 { return 1<<40 + int64(src.Intn(7))<<32 })},
		{"sdict", false, strs(func(int) string { return cities[src.Intn(len(cities))] })},
		{"sraw", true, strs(func(i int) string { return fmt.Sprintf("u%06d", i) })},
	}
	schema := make(table.Schema, len(cols))
	data := make([]table.Column, len(cols))
	admitted := map[string]bool{}
	for i, c := range cols {
		schema[i] = table.Field{Name: c.name, Type: c.col.Type()}
		data[i] = c.col
		admitted[c.name] = c.cacheable
	}
	return table.Compress(table.MustNew(schema, data...)), admitted
}

// TestBlockCacheAdmitsTransformingCodecs: over a compressed table with a
// column of every codec, only the blocks whose decode transforms values
// (int-coded and XOR floats, FOR/RLE/dictionary ints, raw-payload strings)
// become resident, and answers are bit-identical with the cache on and
// off, cold and warm.
func TestBlockCacheAdmitsTransformingCodecs(t *testing.T) {
	tbl, admitted := codecTable()
	for i, f := range tbl.Schema() {
		base := table.BlockBase(tbl.Column(i))
		for b := 0; b*table.BlockRows < tbl.NumRows(); b++ {
			if table.CacheableBlock(base, b) != admitted[f.Name] {
				t.Fatalf("%s block %d: CacheableBlock = %v, want %v", f.Name, b, !admitted[f.Name], admitted[f.Name])
			}
		}
	}
	st := &StoredTable{Data: tbl, PopRows: 1 << 20}
	var plans []*plan.Plan
	for _, q := range []string{
		"SELECT AVG(fraw), AVG(fconst), AVG(fint), AVG(fxor) FROM T WHERE sraw != 'none'",
		"SELECT SUM(iraw), AVG(iconst), AVG(ifor), AVG(irle), AVG(idict) FROM T WHERE sdict != 'none'",
		"SELECT sdict, AVG(fxor), COUNT(*) FROM T WHERE ifor < 50000 GROUP BY sdict",
	} {
		plans = append(plans, mustPlan(t, q, backingOpts(tbl.NumRows())))
	}
	off := Config{Workers: 2, Seed: 11}
	want := make([]*Result, len(plans))
	for i, p := range plans {
		var err error
		if want[i], err = Run(context.Background(), p, st, nil, off); err != nil {
			t.Fatal(err)
		}
	}

	cc := cache.NewBlockCache(cache.BlockConfig{Bytes: 64 << 20})
	on := off
	on.Blocks = cc
	for round := 0; round < 2; round++ {
		for i, p := range plans {
			got, err := Run(context.Background(), p, st, nil, on)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("solo round %d plan %d", round, i), got, want[i])
		}
	}

	for i, f := range tbl.Schema() {
		base := table.BlockBase(tbl.Column(i))
		if resident := cc.BytesFor(base); (resident > 0) != admitted[f.Name] {
			t.Errorf("%s: %d bytes resident, want resident = %v", f.Name, resident, admitted[f.Name])
		}
	}
	if st := cc.Stats(); st.Hits == 0 || st.Evictions != 0 {
		t.Errorf("block cache stats %+v: want hits and no evictions", st)
	}
}
