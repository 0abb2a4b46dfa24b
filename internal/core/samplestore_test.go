package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/table"
)

// storedTable writes tbl to dir/name and opens it the way a daemon does; the
// mapping is released when the test ends.
func storedTable(t *testing.T, dir, name string, tbl *table.Table) *table.Table {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := table.WriteStore(path, tbl); err != nil {
		t.Fatal(err)
	}
	full, closer, err := table.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	return full
}

// storeEngine is an engine over full, closed (and its sample mappings
// released) before the table's own mapping is.
func storeEngine(t *testing.T, cfg Config, name string, full *table.Table) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(func() { e.Close() })
	if err := e.RegisterTable(name, full); err != nil {
		t.Fatal(err)
	}
	return e
}

// sampleFiles lists the persisted samples in dir and fails on anything else
// that is not one of the named table stores: a temp file WriteStore left.
func sampleFiles(t *testing.T, dir string, tables ...string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		name := ent.Name()
		if ok, _ := filepath.Match("aqp-sample-*.store", name); ok {
			out = append(out, filepath.Join(dir, name))
			continue
		}
		known := false
		for _, tn := range tables {
			known = known || name == tn
		}
		if !known {
			t.Errorf("%s holds %s: neither a table store nor a sample", dir, name)
		}
	}
	return out
}

// report builds the samples and returns what the engine says of their files.
func report(t *testing.T, e *Engine, name string, sizes ...int) []SampleFile {
	t.Helper()
	files, err := e.BuildSamplesReport(name, sizes...)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// outcomes says what happened to files, in order, in the words
// aqp_sample_store_total counts them by.
func outcomes(files []SampleFile) string {
	out := []string{}
	for _, f := range files {
		if f.Rejected != nil {
			out = append(out, "rejected")
		}
		switch {
		case f.Opened:
			out = append(out, "opened")
		case f.SaveErr != nil:
			out = append(out, "write_failed")
		default:
			out = append(out, "built")
		}
	}
	return fmt.Sprint(out)
}

var storeOutcomes = []string{"opened", "built", "rejected", "write_failed"}

func sampleStoreCount(tr *obs.Tracer, tbl, outcome string) int64 {
	return tr.Registry().Counter("aqp_sample_store_total", "", "table", tbl, "outcome", outcome).Value()
}

// counted is outcomes as aqp_sample_store_total has them: sorted, since a
// counter keeps no order.
func counted(tr *obs.Tracer, tbl string) string {
	out := []string{}
	for _, o := range storeOutcomes {
		for i := int64(0); i < sampleStoreCount(tr, tbl, o); i++ {
			out = append(out, o)
		}
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storeBytes is what table.WriteStoreTagged makes of s.
func storeBytes(t *testing.T, s *table.Table, tag string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.store")
	if err := table.WriteStoreTagged(path, s, tag); err != nil {
		t.Fatal(err)
	}
	return mustReadFile(t, path)
}

// fileTag is the tag recorded in the store file whose bytes are given.
func fileTag(t *testing.T, file []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.store")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, closer, err := table.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	return s.Tag()
}

func hashSamples(t *testing.T, e *Engine, name string) uint64 {
	t.Helper()
	h := fnv.New64a()
	rt := e.tables[name]
	for _, s := range rt.samples {
		hashSample(t, h, s.Data)
	}
	for _, s := range rt.stratified {
		hashSample(t, h, s.st.Data)
	}
	return h.Sum64()
}

func hashQueries(t *testing.T, e *Engine, queries []string) answerHashes {
	t.Helper()
	h := newAnswerHasher()
	for _, q := range queries {
		ans, err := e.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		h.add(ans)
	}
	return h.sum()
}

// TestPersistedSampleIdentity: an engine that finds its samples on disk
// serves what an engine that built them holds — every decoded value, envelope
// and stored byte that TestSampleIdentityGolden hashes, to that test's own
// constants: the same table content draws the same samples whether it is
// registered from memory or from a store, built or opened — for raw and
// compressed sample backings at 1, 2 and 8 workers, and the file is
// WriteStoreTagged of the built sample, byte for byte.
func TestPersistedSampleIdentity(t *testing.T) {
	golden := map[table.Backing]uint64{
		table.BackingRaw:        0x2c5bbaa46f20718,
		table.BackingCompressed: 0x9eaa624a8cad3b51,
	}
	sizes := []int{3*table.BlockRows + 77, 500}
	for _, backing := range []table.Backing{table.BackingRaw, table.BackingCompressed} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", backing, workers), func(t *testing.T) {
				dir := t.TempDir()
				full := storedTable(t, dir, "events.store", goldenTable(10*table.BlockRows+123))
				build := func() (*Engine, []SampleFile) {
					e := storeEngine(t, Config{Seed: 20140622, Workers: workers,
						Backing: table.BackingCompressed, SampleBacking: backing}, "Events", full)
					files := report(t, e, "Events", sizes...)
					if err := e.BuildStratifiedSample("Events", "Device", 30); err != nil {
						t.Fatal(err)
					}
					return e, files
				}
				cold, built := build()
				if got := outcomes(built); got != "[built built]" {
					t.Fatalf("first engine: sample files %s, want two built", got)
				}
				files := sampleFiles(t, dir, "events.store")
				if len(files) != 2 {
					t.Fatalf("first engine left %d sample files, want 2", len(files))
				}
				warm, opened := build()
				if got := outcomes(opened); got != "[opened opened]" {
					t.Fatalf("second engine: sample files %s, want two opened", got)
				}
				hc, hw := hashSamples(t, cold, "Events"), hashSamples(t, warm, "Events")
				if hc != hw {
					t.Errorf("opened samples hash %#x, built samples %#x", hw, hc)
				}
				if hw != golden[backing] {
					t.Errorf("opened samples hash %#x, want TestSampleIdentityGolden's %#x", hw, golden[backing])
				}
				for _, e := range []*Engine{cold, warm} {
					for _, s := range e.tables["Events"].samples {
						if s.Data.Lazy() != (backing != table.BackingRaw) {
							t.Errorf("%d-row sample lazy=%v under SampleBacking=%v", s.Data.NumRows(), s.Data.Lazy(), backing)
						}
						var onDisk []byte
						for _, f := range opened {
							if f.Rows == s.Data.NumRows() {
								onDisk = mustReadFile(t, f.Path)
							}
						}
						if !bytes.Equal(onDisk, storeBytes(t, s.Data, fileTag(t, onDisk))) {
							t.Errorf("%d-row sample: file differs from WriteStore of the engine's sample", s.Data.NumRows())
						}
					}
				}
				if len(sampleFiles(t, dir, "events.store")) != 2 {
					t.Error("second engine wrote sample files")
				}
			})
		}
	}
}

// TestPersistedSampleSharedAcrossBackings: the file is WriteStore of the
// sample whatever backing the engine keeps it in, so engines that differ in
// SampleBacking (or Workers) share it; a raw-backed engine holds no mapping
// afterwards.
func TestPersistedSampleSharedAcrossBackings(t *testing.T) {
	dir := t.TempDir()
	full := storedTable(t, dir, "events.store", goldenTable(6*table.BlockRows))
	var hashes []answerHashes
	for i, cfg := range []Config{
		{Seed: 3, Workers: 2, SampleBacking: table.BackingCompressed},
		{Seed: 3, Workers: 1},
		{Seed: 3, Workers: 8, SampleBacking: table.BackingCompressed},
		{Seed: 3},
	} {
		e := storeEngine(t, cfg, "Events", full)
		want := "[opened]"
		if i == 0 {
			want = "[built]"
		}
		if got := outcomes(report(t, e, "Events", 2000)); got != want {
			t.Errorf("engine %d: sample file %s, want %s", i, got, want)
		}
		s := e.tables["Events"].samples[0].Data
		if mapped := len(e.sampleMaps) > 0; mapped != (i > 0 && s.Lazy()) {
			t.Errorf("engine %d: holds a mapping=%v for a lazy=%v sample", i, mapped, s.Lazy())
		}
		hashes = append(hashes, hashQueries(t, e, []string{
			"SELECT AVG(Gauss), SUM(Cents) FROM Events WHERE Day < 30",
			"SELECT City, AVG(Spiky) FROM Events GROUP BY City",
		}))
		if err := e.Close(); err != nil {
			t.Error(err)
		}
		if err := e.Close(); err != nil || len(e.sampleMaps) != 0 {
			t.Errorf("second Close: %v, %d mappings left", err, len(e.sampleMaps))
		}
	}
	for i, h := range hashes {
		if h != hashes[0] {
			t.Errorf("engine %d answers hash %#x, engine 0 %#x", i, h, hashes[0])
		}
	}
	if n := len(sampleFiles(t, dir, "events.store")); n != 1 {
		t.Errorf("%d sample files, want 1", n)
	}
}

// TestPersistedSampleAnswersGolden: an engine serving an opened sample gives
// TestVerdictFirstAnswersGolden's answers — with the block and answer caches
// on or off, first time and replayed — and the block cache admits none of
// its copy-class and dictionary blocks.
func TestPersistedSampleAnswersGolden(t *testing.T) {
	dir := t.TempDir()
	full := storedTable(t, dir, "t.store", verdictTable())
	for i, cfg := range []Config{
		{Seed: 7, Workers: 2, BootstrapK: 40},
		{Seed: 7, Workers: 2, BootstrapK: 40},
		{Seed: 7, Workers: 8, BootstrapK: 40, SampleBacking: table.BackingCompressed},
		{Seed: 7, Workers: 1, BootstrapK: 40, SampleBacking: table.BackingCompressed, CacheBytes: 4 << 20},
	} {
		cfg.Obs = obs.NewTracer(obs.Config{})
		e := verdictEngineOn(t, cfg, full)
		t.Cleanup(func() { e.Close() })
		want := "[opened]"
		if i == 0 {
			want = "[built]"
		}
		if got := counted(cfg.Obs, "T"); got != want {
			t.Fatalf("engine %d: sample file %s, want %s", i, got, want)
		}
		for round := 0; round < 2; round++ {
			if got := hashQueries(t, e, verdictQueries); got != verdictGolden {
				t.Errorf("engine %d round %d: answer hashes %#x, want %#x", i, round, got, verdictGolden)
			}
		}
		if cfg.CacheBytes > 0 {
			// T's sample holds two raw float columns and a dictionary City:
			// every block is read from storage and none is admitted.
			if st := e.CacheStatsSnapshot(0); st.Block.Entries != 0 || st.Block.Misses != 0 {
				t.Errorf("block cache holds %d of the opened sample's blocks (%d misses), want none",
					st.Block.Entries, st.Block.Misses)
			}
		}
	}
}

// TestPersistedSampleKey: what names a sample file is the table's content,
// the row count and the RNG stream that draws it — not where the table's
// file is or what it is called.
func TestPersistedSampleKey(t *testing.T) {
	dir := t.TempDir()
	content := goldenTable(5 * table.BlockRows)
	full := storedTable(t, dir, "a.store", content)
	build := func(tbl *table.Table, seed uint64, sizes ...int) string {
		e := storeEngine(t, Config{Seed: seed, Workers: 2}, "Events", tbl)
		var files []SampleFile
		for _, n := range sizes {
			files = append(files, report(t, e, "Events", n)...)
		}
		return outcomes(files)
	}
	stores := []string{"a.store", "b.store", "a-renamed.store"}
	count := func() int { return len(sampleFiles(t, dir, stores...)) }

	build(full, 1, 2000)
	if count() != 1 {
		t.Fatalf("%d sample files after the first build, want 1", count())
	}
	build(full, 2, 2000) // another Config.Seed
	if count() != 2 {
		t.Errorf("another seed: %d files, want 2", count())
	}
	build(full, 1, 2100) // another row count
	if count() != 3 {
		t.Errorf("another row count: %d files, want 3", count())
	}
	// Same size again: a later Split of the same seed.
	if got := build(full, 1, 2000, 2000); got != "[opened built]" || count() != 4 {
		t.Errorf("second build on one engine: %s, %d files; want [opened built], 4", got, count())
	}
	other := storedTable(t, dir, "b.store", goldenTable(5*table.BlockRows+1)) // another table, same directory
	if got := build(other, 1, 2000); got != "[built]" || count() != 5 {
		t.Errorf("another table: %s, %d files; want [built], 5", got, count())
	}
	renamed := storedTable(t, dir, "a-renamed.store", content) // same content, another file name
	if got := build(renamed, 1, 2000); got != "[opened]" || count() != 5 {
		t.Errorf("same content under another name: %s, %d files; want [opened], 5", got, count())
	}
	elsewhere := t.TempDir() // same content in another directory: its own file, same name
	moved := storedTable(t, elsewhere, "a.store", content)
	build(moved, 1, 2000)
	there := sampleFiles(t, elsewhere, "a.store")
	if len(there) != 1 {
		t.Fatalf("%d sample files beside the moved table, want 1", len(there))
	}
	here := filepath.Join(dir, filepath.Base(there[0]))
	if !bytes.Equal(mustReadFile(t, here), mustReadFile(t, there[0])) {
		t.Error("one table content, seed and size gave different sample files in two directories")
	}
}

// flipByte flips a bit of the byte of the store file at path that at names,
// given the file's metadata offset and size.
func flipByte(t *testing.T, path string, at func(metaOff, size int) int) {
	t.Helper()
	data := mustReadFile(t, path)
	data[at(int(binary.LittleEndian.Uint64(data[8:16])), len(data))] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipPayload flips a byte in the middle of the named column's payload in
// the store file at path.
func flipPayload(t *testing.T, path, column string) {
	t.Helper()
	flipByte(t, path, func(metaOff, _ int) int {
		var meta struct {
			Columns []struct {
				Name    string `json:"name"`
				DataOff int    `json:"data_off"`
				DataLen int    `json:"data_len"`
			} `json:"columns"`
		}
		if err := json.Unmarshal(mustReadFile(t, path)[metaOff:], &meta); err != nil {
			t.Fatal(err)
		}
		for _, c := range meta.Columns {
			if c.Name == column {
				return c.DataOff + c.DataLen/2
			}
		}
		t.Fatalf("no column %q in the sample file", column)
		return 0
	})
}

// TestPersistedSampleFaults: a sample file that is damaged, foreign, or
// cannot be written is a rebuild and a counter — never an error, a panic or a
// different answer. A flipped payload byte is refused where its column is
// first read: at BuildSamples on a raw-backed engine, which decodes every
// column there, and by the first query that reads the column on a
// compressed-backed one, which serves the file from its mapping — and never,
// when no query reads it.
func TestPersistedSampleFaults(t *testing.T) {
	const n = 3000
	queries := []string{
		"SELECT AVG(Gauss), MAX(Cents) FROM Events WHERE Day < 45",
		"SELECT Device, SUM(Cents) FROM Events GROUP BY Device",
	}
	content := goldenTable(6*table.BlockRows + 5)
	ref := New(Config{Seed: 11, Workers: 2})
	if err := ref.RegisterTable("Events", content); err != nil {
		t.Fatal(err)
	}
	if err := ref.BuildSamples("Events", n); err != nil {
		t.Fatal(err)
	}
	want := hashQueries(t, ref, queries) // a heap build over the in-memory table

	// foreign returns the bytes of a valid sample file of tbl at the given
	// seed and size.
	foreign := func(t *testing.T, tbl *table.Table, seed uint64, rows int) []byte {
		dir := t.TempDir()
		e := storeEngine(t, Config{Seed: seed}, "Events", storedTable(t, dir, "x.store", tbl))
		if err := e.BuildSamples("Events", rows); err != nil {
			t.Fatal(err)
		}
		return mustReadFile(t, sampleFiles(t, dir, "x.store")[0])
	}
	payloadFault := func(column string) func(*testing.T, string, string) {
		return func(t *testing.T, _, path string) { flipPayload(t, path, column) }
	}
	truncate := func(at func(metaOff, size int) int) func(*testing.T, string, string) {
		return func(t *testing.T, _, path string) {
			data := mustReadFile(t, path)
			metaOff := int(binary.LittleEndian.Uint64(data[8:16]))
			if err := os.Truncate(path, int64(at(metaOff, len(data)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		// fault damages the sample file at path (in dir) that a first engine left.
		fault func(t *testing.T, dir, path string)
		// outcomes the second engine's BuildSamples must report, and whether
		// the file is whole again after it.
		outcomes string
		repaired bool
		// read, for a fault in a column payload, is whether the queries read
		// that column. A raw-backed engine checks every column at
		// BuildSamples, as outcomes says. A compressed-backed one opens the
		// file, and the first query that reads the column refuses it: the
		// sample is rebuilt, saved and served, and the query answered.
		payload, read bool
	}{
		{"truncated to nothing", truncate(func(_, _ int) int { return 0 }), "[rejected built]", true, false, false},
		{"truncated in the payload", truncate(func(m, _ int) int { return m / 2 }), "[rejected built]", true, false, false},
		{"truncated in the metadata", truncate(func(m, s int) int { return (m + s) / 2 }), "[rejected built]", true, false, false},
		{"payload byte flipped", payloadFault("Gauss"), "[rejected built]", true, true, true},
		{"payload byte no query reads flipped", payloadFault("Spiky"), "[rejected built]", true, true, false},
		{"metadata byte flipped", func(t *testing.T, _, path string) {
			flipByte(t, path, func(m, s int) int { return m + (s-m)/3 })
		}, "[rejected built]", true, false, false},
		{"another table's sample under this name", func(t *testing.T, _, path string) {
			if err := os.WriteFile(path, foreign(t, goldenTable(6*table.BlockRows+6), 11, n), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "[rejected built]", true, false, false},
		{"this table's sample from another stream under this name", func(t *testing.T, _, path string) {
			if err := os.WriteFile(path, foreign(t, content, 12, n), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "[rejected built]", true, false, false},
		{"this table's sample of another size under this name", func(t *testing.T, _, path string) {
			if err := os.WriteFile(path, foreign(t, content, 11, n+1), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "[rejected built]", true, false, false},
		{"a directory where the file goes", func(t *testing.T, _, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
		}, "[rejected write_failed]", false, false, false},
		{"read-only directory", func(t *testing.T, dir, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chmod(dir, 0o755) })
			if f, err := os.CreateTemp(dir, "probe"); err == nil {
				f.Close()
				os.Remove(f.Name())
				t.Skip("this user writes to read-only directories")
			}
		}, "[write_failed]", false, false, false},
		{"directory removed after the table was opened", func(t *testing.T, dir, _ string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}, "[write_failed]", false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, backing := range []table.Backing{table.BackingRaw, table.BackingCompressed} {
				dir := filepath.Join(t.TempDir(), "stores")
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				full := storedTable(t, dir, "events.store", content)
				first := storeEngine(t, Config{Seed: 11, Workers: 2}, "Events", full)
				if err := first.BuildSamples("Events", n); err != nil {
					t.Fatal(err)
				}
				path := sampleFiles(t, dir, "events.store")[0]
				whole := mustReadFile(t, path)
				tc.fault(t, dir, path)

				tr := obs.NewTracer(obs.Config{})
				e := storeEngine(t, Config{Seed: 11, Workers: 2, SampleBacking: backing, Obs: tr}, "Events", full)
				files, err := e.BuildSamplesReport("Events", n)
				if err != nil {
					t.Fatalf("BuildSamples failed on a bad sample file: %v", err)
				}
				reported, repaired := tc.outcomes, tc.repaired
				var atQuery []string
				if backing == table.BackingCompressed && tc.payload {
					reported, repaired = "[opened]", tc.read
					if tc.read {
						atQuery = []string{"rejected", "built"}
					}
				}
				if got := outcomes(files); got != reported {
					t.Errorf("%v: sample file %s, want %s", backing, got, reported)
				}
				for _, f := range files {
					if f.Opened && (f.Rejected != nil || f.SaveErr != nil) {
						t.Errorf("%v: opened sample reports errors %v / %v", backing, f.Rejected, f.SaveErr)
					}
				}
				if got := hashQueries(t, e, queries); got != want {
					t.Errorf("%v: answers hash %#x, a heap build's %#x", backing, got, want)
				}
				sorted := append(strings.Fields(strings.Trim(reported, "[]")), atQuery...)
				sort.Strings(sorted)
				if got := counted(tr, "Events"); got != fmt.Sprint(sorted) {
					t.Errorf("%v: aqp_sample_store_total counted %s, want %v", backing, got, sorted)
				}
				if repaired && !bytes.Equal(mustReadFile(t, path), whole) {
					t.Errorf("%v: the rebuilt sample file differs from the one first written", backing)
				}
				if tc.payload && !repaired && bytes.Equal(mustReadFile(t, path), whole) {
					t.Errorf("%v: a file with a payload no query read was rewritten", backing)
				}
			}
		})
	}
}

// TestPersistedSampleConcurrentEngines: eight engines (standing in for eight
// daemons) build the same sample on one store at once. Each either opens a
// finished file or builds and renames its own over it; all serve the same
// sample, one sound file remains and no temp file does.
func TestPersistedSampleConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	full := storedTable(t, dir, "events.store", goldenTable(12*table.BlockRows))
	const engines = 8
	var wg sync.WaitGroup
	hashes := make([]answerHashes, engines)
	for i := 0; i < engines; i++ {
		backing := table.BackingRaw
		if i%2 == 1 {
			backing = table.BackingCompressed
		}
		e := storeEngine(t, Config{Seed: 5, Workers: 2, SampleBacking: backing}, "Events", full)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := e.BuildSamples("Events", 4000); err != nil {
				t.Error(err)
				return
			}
			h := newAnswerHasher()
			ans, err := e.Run(context.Background(), "SELECT Device, AVG(Gauss), SUM(Cents) FROM Events GROUP BY Device")
			if err != nil {
				t.Error(err)
				return
			}
			h.add(ans)
			hashes[i] = h.sum()
		}(i)
	}
	wg.Wait()
	for i, h := range hashes {
		if h != hashes[0] {
			t.Errorf("engine %d answers hash %#x, engine 0 %#x", i, h, hashes[0])
		}
	}
	files := sampleFiles(t, dir, "events.store")
	if len(files) != 1 {
		t.Fatalf("%d sample files, want 1", len(files))
	}
	if _, closer, err := table.OpenStoreVerified(files[0]); err != nil {
		t.Errorf("the remaining sample file does not verify: %v", err)
	} else {
		closer.Close()
	}
}

// TestQueriesRunDuringPersistedOpen is TestQueriesRunDuringSampleBuild for a
// BuildSamples call that finds every file: opening (read, hash, decode) holds
// the engine lock no more than building does.
func TestQueriesRunDuringPersistedOpen(t *testing.T) {
	dir := t.TempDir()
	_, tbl := buildSessions(t, Config{}, 200000)
	full := storedTable(t, dir, "sessions.store", tbl)
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 50000
	}
	var tr *obs.Tracer
	boot := func() (*Engine, chan error) {
		tr = obs.NewTracer(obs.Config{})
		e := storeEngine(t, Config{Seed: 9, Workers: 2, Obs: tr}, "Sessions", full)
		if err := e.BuildSamples("Sessions", 8000); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- e.BuildSamples("Sessions", sizes...) }()
		return e, done
	}
	_, done := boot()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	e, done := boot()
	during := 0
	for finished := false; !finished; {
		ans, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions WHERE City != 'NYC'")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			during++
			if ans.SampleRows != 8000 {
				t.Fatalf("query saw a %d-row sample before the open published", ans.SampleRows)
			}
		}
	}
	if n := sampleStoreCount(tr, "Sessions", "opened"); n != int64(1+len(sizes)) {
		t.Fatalf("second engine's sample files: %s, want all opened", counted(tr, "Sessions"))
	}
	t.Logf("%d queries completed while %d sample files were being opened", during, len(sizes))
	if during < 3 {
		t.Errorf("%d queries completed during the open, want >= 3", during)
	}
}

// TestPersistedSampleSplitOrder: a sample opened from its file consumes its
// RNG Split like a built one, so whatever is built after it on that engine is
// what a cold engine builds.
func TestPersistedSampleSplitOrder(t *testing.T) {
	dir := t.TempDir()
	full := storedTable(t, dir, "events.store", goldenTable(8*table.BlockRows))
	boot := func() (*Engine, []SampleFile) {
		e := storeEngine(t, Config{Seed: 21, Workers: 2, SampleBacking: table.BackingCompressed}, "Events", full)
		return e, append(report(t, e, "Events", 3000), report(t, e, "Events", 1000)...)
	}
	cold, files := boot()
	second := files[1].Path
	written := mustReadFile(t, second)
	if err := os.Remove(second); err != nil {
		t.Fatal(err)
	}
	warm, files := boot()
	if got := outcomes(files); got != "[opened built]" {
		t.Fatalf("second engine: %s, want [opened built]", got)
	}
	if hc, hw := hashSamples(t, cold, "Events"), hashSamples(t, warm, "Events"); hc != hw {
		t.Errorf("samples hash %#x after a hit on the first, %#x cold", hw, hc)
	}
	if !bytes.Equal(mustReadFile(t, second), written) {
		t.Error("the second sample's file differs between the cold engine and the one that opened the first")
	}
}

// TestNoSampleFilesWithoutIdentity: tables registered from memory and stores
// written before digests existed build on the heap and touch no directory.
func TestNoSampleFilesWithoutIdentity(t *testing.T) {
	dir := t.TempDir()
	content := goldenTable(4 * table.BlockRows)
	storedTable(t, dir, "events.store", content)

	// A store as the previous release wrote it: no digest member.
	blob := mustReadFile(t, filepath.Join(dir, "events.store"))
	cut := bytes.LastIndex(blob, []byte(`,"digest":"`))
	old := filepath.Join(dir, "old.store")
	if err := os.WriteFile(old, append(blob[:cut:cut], '}'), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, closer, err := table.OpenStore(old)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	tr := obs.NewTracer(obs.Config{})
	for name, tbl := range map[string]*table.Table{
		"memory": content,
		"legacy": legacy,
	} {
		e := storeEngine(t, Config{Seed: 1, Obs: tr}, name, tbl)
		if files := report(t, e, name, 1500); len(files) != 0 {
			t.Errorf("%s table: sample files %v reported, want none", name, files)
		}
		for _, o := range storeOutcomes {
			if c := sampleStoreCount(tr, name, o); c != 0 {
				t.Errorf("%s table: aqp_sample_store_total{outcome=%q} = %d", name, o, c)
			}
		}
	}
	if files := sampleFiles(t, dir, "events.store", "old.store"); len(files) != 0 {
		t.Errorf("sample files %v written for tables without an identity", files)
	}
}

// TestScanRecordsVerifiedBytes: the scan that first reads a column of a
// sample served from its file checks the column's payload, and its stage
// record and span say how many bytes that was; a later scan of the column
// checks nothing. The sample's other columns are never hashed.
func TestScanRecordsVerifiedBytes(t *testing.T) {
	dir := t.TempDir()
	full := storedTable(t, dir, "events.store", goldenTable(6*table.BlockRows))
	report(t, storeEngine(t, Config{Seed: 3}, "Events", full), "Events", 3000)
	e := storeEngine(t, Config{Seed: 3, SampleBacking: table.BackingCompressed}, "Events", full)
	recs := recorded(e)
	files := report(t, e, "Events", 3000)
	if len(files) != 1 || !files[0].Opened {
		t.Fatalf("sample files %+v, want the saved one opened", files)
	}
	var meta struct {
		Columns []struct {
			Name    string `json:"name"`
			DataLen int64  `json:"data_len"`
		} `json:"columns"`
	}
	data := mustReadFile(t, files[0].Path)
	if err := json.Unmarshal(data[binary.LittleEndian.Uint64(data[8:16]):], &meta); err != nil {
		t.Fatal(err)
	}
	payload := map[string]int64{}
	for _, c := range meta.Columns {
		payload[c.Name] = c.DataLen
	}

	for i, q := range []struct {
		sql  string
		want int64
	}{
		{"SELECT AVG(Gauss) FROM Events", payload["Gauss"]},
		{"SELECT AVG(Gauss) FROM Events WHERE Cents > 100", payload["Cents"]},
		{"SELECT SUM(Gauss) FROM Events WHERE Cents > 200", 0},
	} {
		if _, err := e.Run(context.Background(), q.sql); err != nil {
			t.Fatal(err)
		}
		var got int64
		var attr any
		rec := (*recs)[i]
		for _, s := range rec.Stages {
			if s.Stage == obs.StageScan {
				got += s.VerifiedBytes
			}
		}
		for _, sp := range rec.Trace().Spans {
			if sp.Stage == obs.StageScan {
				attr = sp.Attrs["verified_bytes"]
			}
		}
		if got != q.want {
			t.Errorf("%s: scan verified %d bytes, want %d", q.sql, got, q.want)
		}
		if (attr == nil) != (q.want == 0) || attr != nil && attr != q.want {
			t.Errorf("%s: scan span verified_bytes = %v, want %d", q.sql, attr, q.want)
		}
	}
}

// TestRacingQueriesRebuildOnce: queries racing to be the first to read a
// damaged column of a sample served from its file all get the answer a heap
// build gives, and the sample is rebuilt and saved once between them. Run it
// under -race.
func TestRacingQueriesRebuildOnce(t *testing.T) {
	const n, queries = 3000, 8
	const sql = "SELECT AVG(Gauss), MAX(Cents) FROM Events WHERE Day < 45"
	content := goldenTable(6*table.BlockRows + 5)
	ref := New(Config{Seed: 11, Workers: 2})
	if err := ref.RegisterTable("Events", content); err != nil {
		t.Fatal(err)
	}
	if err := ref.BuildSamples("Events", n); err != nil {
		t.Fatal(err)
	}
	want := hashQueries(t, ref, []string{sql})

	dir := t.TempDir()
	full := storedTable(t, dir, "events.store", content)
	report(t, storeEngine(t, Config{Seed: 11, Workers: 2}, "Events", full), "Events", n)
	path := sampleFiles(t, dir, "events.store")[0]
	whole := mustReadFile(t, path)
	data := append([]byte(nil), whole...)
	var meta struct {
		Columns []struct {
			Name    string `json:"name"`
			DataOff int    `json:"data_off"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(data[binary.LittleEndian.Uint64(data[8:16]):], &meta); err != nil {
		t.Fatal(err)
	}
	for _, c := range meta.Columns {
		if c.Name == "Cents" {
			data[c.DataOff+17] ^= 0x02
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(obs.Config{})
	e := storeEngine(t, Config{Seed: 11, Workers: 2, SampleBacking: table.BackingCompressed, Obs: tr}, "Events", full)
	if got := outcomes(report(t, e, "Events", n)); got != "[opened]" {
		t.Fatalf("sample file %s, want [opened]", got)
	}
	hashes := make([]answerHashes, queries)
	var wg sync.WaitGroup
	for i := range hashes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := newAnswerHasher()
			ans, err := e.Run(context.Background(), sql)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			h.add(ans)
			hashes[i] = h.sum()
		}(i)
	}
	wg.Wait()
	for i, h := range hashes {
		if h != want {
			t.Errorf("query %d: answer hash %#x, a heap build's %#x", i, h, want)
		}
	}
	if got := counted(tr, "Events"); got != "[built opened rejected]" {
		t.Errorf("aqp_sample_store_total counted %s, want one rejection and one rebuild", got)
	}
	if !bytes.Equal(mustReadFile(t, path), whole) {
		t.Error("the rebuilt sample file differs from the one first written")
	}
}
