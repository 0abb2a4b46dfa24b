package core

// Persisted samples. A uniform sample of a table that came from a store file
// with a digest (table.StoreIdentity) is itself written as a store file in
// the same directory, under a name made from what determines its bytes, and
// the next BuildSamples that would draw the same sample — in this process or
// any other — opens that file instead. Whether a sample is persisted follows
// from where its table came from; there is no setting. DESIGN.md §19 has the
// reasoning; the flow is in uniformSample, and what a query does when a column
// of an opened file is refused at its first read in rebuildSample.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/exec"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/table"
)

// sampleFormat versions everything that decides a persisted sample's bytes
// besides the table's content and the RNG stream: the draw
// (sample.RowsWithoutReplacement), the gather-and-encode pipeline
// (table.GatherStored), the block codecs and the store layout.
// TestSampleIdentityGolden pins the first three, so a change that has to
// re-record its hashes also bumps this and thereby stops finding the files
// the old code wrote. A new store layout bumps it too: a sample file of the
// old one is then never looked for, rather than found and refused.
const sampleFormat = 3

// SampleFile says what BuildSamplesReport did about one sample's file.
type SampleFile struct {
	Rows int
	Path string
	// Opened: the sample is served from the file at Path. Otherwise it was
	// built on the heap and, unless SaveErr says why not, saved to Path.
	Opened bool
	// Rejected is why a file that was at Path was refused before the build.
	Rejected error
	SaveErr  error
}

// countSampleStore counts one sample-file outcome on the engine's registry.
func (e *Engine) countSampleStore(name, outcome string) {
	e.obs.Registry().Counter("aqp_sample_store_total",
		"Persisted-sample files by outcome: opened, built (and saved), rejected (present but refused), write_failed.",
		"table", name, "outcome", outcome).Inc()
}

// sampleIdentity names the uniform n-row sample that src is about to draw
// from the table with the given digest. The tag is the whole identity and is
// what the file records inside; the file name is a short form of it, so a
// name that collides or a file moved under another's name is caught by the
// tag. The stream's state stands in for (Config.Seed, how many Splits came
// before this one): those decide the rows, and the state is what they decide
// them through.
func sampleIdentity(digest string, n int, src *rng.Source) (tag, file string) {
	state, gamma := src.State()
	tag = fmt.Sprintf("aqp-sample v%d of %s rows %d stream %016x/%016x",
		sampleFormat, digest, n, state, gamma)
	key := sha256.Sum256([]byte(tag))
	return tag, fmt.Sprintf("aqp-sample-%s-%d-%x.store", digest[:32], n, key[:8])
}

// uniformSample returns the n-row sample of full that src draws: opened from
// its file when full has a store identity and the file is there and sound,
// built on the heap otherwise — and then saved, if full has an identity, for
// the next engine. A file that cannot be used or written is reported and
// counted, never an error: the sample served is the same either way. The
// closer, when not nil, releases the mapping the sample's columns point into;
// the report is nil when full has no identity.
func (e *Engine) uniformSample(name string, full *table.Table, src *rng.Source, n int) (*exec.StoredTable, io.Closer, *SampleFile) {
	build := func() *exec.StoredTable {
		idx := sample.RowsWithoutReplacement(src, full.NumRows(), n)
		return e.storeSample(full, idx, e.cfg.SampleBacking)
	}
	digest, dir := full.StoreIdentity()
	if digest == "" {
		return build(), nil, nil
	}
	tag, file := sampleIdentity(digest, n, src)
	sf := &SampleFile{Rows: n, Path: filepath.Join(dir, file)}

	s, closer, err := e.openSample(sf.Path, tag, n)
	if err == nil {
		sf.Opened = true
		e.countSampleStore(name, "opened")
		st := &exec.StoredTable{Data: s, PopRows: full.NumRows()}
		if closer != nil { // served from the mapping, each column checked on its first read
			e.mu.Lock()
			e.origins[st] = &sampleOrigin{name: name, full: full, src: *src, n: n, tag: tag, path: sf.Path}
			e.mu.Unlock()
		}
		return st, closer, sf
	}
	if !errors.Is(err, fs.ErrNotExist) {
		sf.Rejected = err
		e.countSampleStore(name, "rejected")
	}
	st := build()
	if sf.SaveErr = table.WriteStoreTagged(sf.Path, st.Data, tag); sf.SaveErr != nil {
		e.countSampleStore(name, "write_failed")
	} else {
		e.countSampleStore(name, "built")
	}
	return st, nil, sf
}

// openSample opens the sample file at path if its frame is what a WriteStore
// wrote (its digest) and it says it is the sample wanted (its tag).
// Compressed-backed engines serve it from the mapping, where the first read
// of each column checks its payload (table.CheckColumn). Raw-backed ones check
// every column, decode it once — a gather of its n rows in order, where a
// build gathers from all N — and let the mapping go.
func (e *Engine) openSample(path, tag string, n int) (*table.Table, io.Closer, error) {
	s, closer, err := table.OpenStoreVerified(path)
	if err != nil {
		return nil, nil, err
	}
	if s.Tag() != tag || s.NumRows() != n {
		closer.Close()
		return nil, nil, fmt.Errorf("core: %s holds %q (%d rows), not the sample wanted",
			path, s.Tag(), s.NumRows())
	}
	if e.cfg.SampleBacking == table.BackingRaw {
		for i := 0; i < s.NumCols(); i++ {
			if _, err := table.CheckColumn(s.Column(i)); err != nil {
				closer.Close()
				return nil, nil, err
			}
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		s = s.GatherStored(rows, table.BackingRaw, e.cfg.workers())
		closer.Close()
		closer = nil
	}
	return s, closer, nil
}

// sampleOrigin is how a sample served from its file's mapping was drawn: what
// rebuilding it takes when a column of the file is refused.
type sampleOrigin struct {
	name string // the table's
	full *table.Table
	// src is the split the sample's draw takes, which opening the file left
	// unconsumed.
	src       rng.Source
	n         int
	tag, path string
	once      sync.Once
}

// rebuildSample replaces st, a sample a query found a refused column in
// (table.CorruptColumnError), when st was opened from its file: it draws the
// rows the file should have held from the unconsumed split, builds them as
// uniformSample builds a sample it finds no file for, saves them over the
// file, and publishes the build in st's place, copy-on-write. The rows are
// the same, so the catalog generation and every cached answer stand. Queries
// racing to refuse st rebuild it once, and each then runs again on the
// catalog that serves the build. It reports false when st has no file to
// rebuild, and the refusal is then the query's error.
func (e *Engine) rebuildSample(st *exec.StoredTable) bool {
	e.mu.RLock()
	o := e.origins[st]
	e.mu.RUnlock()
	if o == nil {
		return false
	}
	o.once.Do(func() {
		e.countSampleStore(o.name, "rejected")
		idx := sample.RowsWithoutReplacement(&o.src, o.full.NumRows(), o.n)
		built := e.storeSample(o.full, idx, e.cfg.SampleBacking)
		if err := table.WriteStoreTagged(o.path, built.Data, o.tag); err != nil {
			e.countSampleStore(o.name, "write_failed")
		} else {
			e.countSampleStore(o.name, "built")
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		rt := e.tables[o.name]
		if i := slices.Index(rt.samples, st); i >= 0 {
			samples := slices.Clone(rt.samples)
			samples[i] = built
			rt.samples = samples
		}
	})
	return true
}
