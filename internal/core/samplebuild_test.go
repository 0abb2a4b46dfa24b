package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/table"
)

// goldenTable builds a table whose columns exercise every codec family the
// sample build re-encodes: an ascending int64 (const/FOR blocks), two
// dictionary strings, and float64 measures that are high-entropy (raw),
// integral (int re-encode), near-constant with rare spikes (XOR) and
// constant. The row count leaves a short last block.
func goldenTable(rows int) *table.Table {
	src := rng.New(77)
	day := make(table.Int64Col, rows)
	city := make(table.StringCol, rows)
	device := make(table.StringCol, rows)
	gauss := make(table.Float64Col, rows)
	cents := make(table.Float64Col, rows)
	spiky := make(table.Float64Col, rows)
	flat := make(table.Float64Col, rows)
	cities := []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS"}
	for i := 0; i < rows; i++ {
		day[i] = int64(i * 90 / rows)
		city[i] = cities[src.Intn(len(cities))]
		device[i] = fmt.Sprintf("dev%02d", src.Intn(40))
		gauss[i] = 100 + 15*src.NormFloat64()
		cents[i] = float64(src.Intn(100000))
		spiky[i] = 5
		if src.Intn(200) == 0 {
			spiky[i] = src.LogNormal(12, 2)
		}
		flat[i] = 2.5
	}
	return table.MustNew(table.Schema{
		{Name: "Day", Type: table.Int64},
		{Name: "City", Type: table.String},
		{Name: "Device", Type: table.String},
		{Name: "Gauss", Type: table.Float64},
		{Name: "Cents", Type: table.Float64},
		{Name: "Spiky", Type: table.Float64},
		{Name: "Flat", Type: table.Float64},
	}, day, city, device, gauss, cents, spiky, flat)
}

func hashU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// hashSample folds everything a query can observe of a stored sample into
// h: the schema, every decoded value in row order, and the zone envelopes.
// For block-backed samples it also folds what WriteStore persists of each
// column (hashStoredColumns), so a different codec choice or dictionary
// order changes the hash even when the decoded values agree.
func hashSample(t *testing.T, h hash.Hash64, s *table.Table) {
	t.Helper()
	n := s.NumRows()
	hashU64(h, uint64(n))
	for ci, f := range s.Schema() {
		h.Write([]byte(f.Name))
		hashU64(h, uint64(f.Type))
		switch c := s.Column(ci).(type) {
		case table.I64Reader:
			vals := make([]int64, n)
			c.ReadI64(vals, 0)
			for _, v := range vals {
				hashU64(h, uint64(v))
			}
		case table.F64Reader:
			vals := make([]float64, n)
			c.ReadF64(vals, 0)
			for _, v := range vals {
				hashU64(h, math.Float64bits(v))
			}
		case table.StrReader:
			vals := make([]string, n)
			c.ReadStr(vals, 0)
			for _, v := range vals {
				hashU64(h, uint64(len(v)))
				h.Write([]byte(v))
			}
		default:
			t.Fatalf("column %q is not readable", f.Name)
		}
		cz, ok := s.Zones().Column(ci)
		if !ok {
			hashU64(h, 0)
			continue
		}
		hashU64(h, uint64(len(cz.Mins)))
		for b := range cz.Mins {
			hashU64(h, math.Float64bits(cz.Mins[b]))
			hashU64(h, math.Float64bits(cz.Maxs[b]))
		}
	}
	if s.Lazy() {
		path := filepath.Join(t.TempDir(), "sample.store")
		// Without the tag a sample opened from its file carries: that says
		// which sample the file is, and the hash is of what the sample holds.
		if err := table.WriteStoreTagged(path, s, ""); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hashStoredColumns(t, h, blob)
	}
}

// hashStoredColumns folds into h what the store image blob holds of each
// column, in column order: its payload, payload offsets, codec ids or code
// widths, zone envelopes and dictionary, each decoded from the file and
// preceded by its length. The container around them — header, where the
// block tables sit, the JSON, the digest — is left out, so a change of
// layout that stores the same content keeps the hash.
func hashStoredColumns(t *testing.T, h hash.Hash64, blob []byte) {
	t.Helper()
	var meta struct {
		Columns []struct {
			DataOff  uint64   `json:"data_off"`
			DataLen  uint64   `json:"data_len"`
			TableOff uint64   `json:"table_off"`
			TableLen uint64   `json:"table_len"`
			Dict     []string `json:"dict"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(blob[binary.LittleEndian.Uint64(blob[8:16]):], &meta); err != nil {
		t.Fatal(err)
	}
	hashBytes := func(b []byte) {
		hashU64(h, uint64(len(b)))
		h.Write(b)
	}
	for _, c := range meta.Columns {
		hashBytes(blob[c.DataOff : c.DataOff+c.DataLen])
		// The block table: four uint32 counts (offsets, codecs, min and max
		// envelopes), then offsets as uint32, codecs as bytes and the
		// envelopes as float64 bit patterns.
		tab := blob[c.TableOff : c.TableOff+c.TableLen]
		var n [4]int
		for i := range n {
			n[i] = int(binary.LittleEndian.Uint32(tab[4*i:]))
		}
		tab = tab[16:]
		hashU64(h, uint64(n[0]))
		for i := 0; i < n[0]; i++ {
			hashU64(h, uint64(binary.LittleEndian.Uint32(tab[4*i:])))
		}
		tab = tab[4*n[0]:]
		hashBytes(tab[:n[1]])
		tab = tab[n[1]:]
		for _, k := range n[2:] {
			hashU64(h, uint64(k))
			for i := 0; i < k; i++ {
				hashU64(h, binary.LittleEndian.Uint64(tab[8*i:]))
			}
			tab = tab[8*k:]
		}
		hashU64(h, uint64(len(c.Dict)))
		for _, v := range c.Dict {
			hashBytes([]byte(v))
		}
	}
}

// TestSampleIdentityGolden pins the built samples — the same rows in the
// same order, encoded with the same codecs under the same envelopes — to
// the hashes recorded from the commit before the plan-once build pipeline
// (PR 13), for a fixed engine seed. Every answer's bit-identity across that
// change rests on this. The compressed constant was re-recorded when
// hashSample stopped hashing the store file's bytes and began hashing the
// column content decoded from them; the same content hash over the previous
// file layout, whose block tables were JSON, gives the same constant.
func TestSampleIdentityGolden(t *testing.T) {
	golden := map[table.Backing]uint64{
		table.BackingRaw:        0x2c5bbaa46f20718,
		table.BackingCompressed: 0x9eaa624a8cad3b51,
	}
	for _, backing := range []table.Backing{table.BackingRaw, table.BackingCompressed} {
		for _, workers := range []int{1, 2, 8} {
			e := New(Config{Seed: 20140622, Workers: workers,
				Backing: table.BackingCompressed, SampleBacking: backing})
			if err := e.RegisterTable("Events", goldenTable(10*table.BlockRows+123)); err != nil {
				t.Fatal(err)
			}
			if err := e.BuildSamples("Events", 3*table.BlockRows+77, 500); err != nil {
				t.Fatal(err)
			}
			if err := e.BuildStratifiedSample("Events", "Device", 30); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			rt := e.tables["Events"]
			for _, s := range rt.samples {
				hashSample(t, h, s.Data)
			}
			hashSample(t, h, rt.stratified[0].st.Data)
			if got := h.Sum64(); got != golden[backing] {
				t.Errorf("SampleBacking=%v Workers=%d: sample hash %#x, want %#x",
					backing, workers, got, golden[backing])
			}
		}
	}
}

// TestBuildSamplesAllocationBound pins the build's allocation volume to what
// the pipeline cannot avoid: the row permutation, the drawn ids and their
// one shared visiting order, each column's raw form once, and the stored
// sample. Per-column order arrays, encoder buffers regrown by doubling or
// per-block candidate buffers would each break the bound.
func TestBuildSamplesAllocationBound(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const popRows, sampleRows = 64 * table.BlockRows, 16 * table.BlockRows
	full := table.Compress(goldenTable(popRows))
	build := func() *table.Table {
		e := New(Config{Seed: 5, Workers: 2,
			Backing: table.BackingCompressed, SampleBacking: table.BackingCompressed})
		if err := e.RegisterTable("Events", full); err != nil {
			t.Fatal(err)
		}
		if err := e.BuildSamples("Events", sampleRows); err != nil {
			t.Fatal(err)
		}
		return e.tables["Events"].samples[0].Data
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := build()
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	need := int64(8*popRows) + // rng.Perm
		int64(2*8*sampleRows) + // drawn ids, visiting order
		s.SizeBytes() + // every column raw, once
		s.PhysicalSizeBytes() // the stored sample
	t.Logf("build allocated %d bytes; permutation+ids+raw columns+stored sample = %d", got, need)
	if limit := need*5/4 + 128<<10; got > limit {
		t.Errorf("build allocated %d bytes, want <= %d (1.25x the %d it needs, plus 128 KiB)",
			got, limit, need)
	}
}

// TestQueriesRunDuringSampleBuild: a build holds the engine lock only to
// split its RNG streams and to publish, so queries keep completing while it
// gathers and encodes. One BuildSamples call builds many samples back to
// back; the test counts queries that finish while that call is still running.
// With the lock held across the build the count is the one or two queries
// that slip in before the build takes it.
func TestQueriesRunDuringSampleBuild(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 9, Workers: 2}, 200000)
	if err := e.BuildSamples("Sessions", 8000); err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, 60)
	for i := range sizes {
		sizes[i] = 50000
	}
	genBefore := e.gen.Load()
	built := make(chan error, 1)
	go func() { built <- e.BuildSamples("Sessions", sizes...) }()
	during := 0
	for done := false; !done; {
		ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions WHERE City != 'NYC'")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-built:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			during++
			if ans.SampleRows != 8000 {
				t.Fatalf("query saw a %d-row sample before the build published", ans.SampleRows)
			}
		}
	}
	t.Logf("%d queries completed while the build was in flight", during)
	if during < 10 {
		t.Errorf("%d queries completed while the build was in flight, want >= 10", during)
	}
	if got := e.gen.Load(); got != genBefore+1 {
		t.Errorf("catalog generation %d after one build, want %d", got, genBefore+1)
	}
	ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions WHERE City != 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	if ans.SampleRows != 50000 {
		t.Errorf("query after the build used a %d-row sample, want 50000", ans.SampleRows)
	}
}

// TestConcurrentSampleBuildsAllPublish: builds that overlap each publish
// onto the catalog as it stands when they finish, so none is lost.
func TestConcurrentSampleBuildsAllPublish(t *testing.T) {
	e, _ := buildSessions(t, Config{Seed: 10, Workers: 2, Backing: table.BackingCompressed}, 40000)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- e.BuildSamples("Sessions", 1000+100*i, 5000+100*i)
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- e.BuildStratifiedSample("Sessions", "City", 500)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	rt, _ := e.snapshotTable("Sessions")
	if len(rt.samples) != 12 || len(rt.stratified) != 2 {
		t.Fatalf("catalog holds %d uniform and %d stratified samples, want 12 and 2",
			len(rt.samples), len(rt.stratified))
	}
	for i := 1; i < len(rt.samples); i++ {
		if rt.samples[i-1].Data.NumRows() > rt.samples[i].Data.NumRows() {
			t.Fatalf("catalog not ascending by rows at %d", i)
		}
	}
}
