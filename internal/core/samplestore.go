package core

// Persisted samples. A uniform sample of a table that came from a store file
// with a digest (table.StoreIdentity) is itself written as a store file in
// the same directory, under a name made from what determines its bytes, and
// the next BuildSamples that would draw the same sample — in this process or
// any other — opens that file instead. Whether a sample is persisted follows
// from where its table came from; there is no setting. DESIGN.md §19 has the
// reasoning; the flow is in uniformSample.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"

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
const sampleFormat = 2

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
		return &exec.StoredTable{Data: s, PopRows: full.NumRows()}, closer, sf
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

// openSample opens the sample file at path if every byte of it is what a
// WriteStore wrote (its digest) and it says it is the sample wanted (its
// tag). Compressed-backed engines serve it from the mapping; raw-backed ones
// decode it once — a gather of its n rows in order, where a build gathers
// from all N — and let the mapping go.
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
