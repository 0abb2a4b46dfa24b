package table

// On-disk block store. A store file is the compressed backing made durable:
//
//	[8]  magic "AQPSTOR1"
//	[8]  little-endian uint64 offset of the metadata section
//	[..] column data payloads, back to back (each column's encoded blocks)
//	[..] metadata: JSON, from the recorded offset to EOF
//
// All block metadata — codec ids, payload offsets and the zone-map min/max
// envelopes — lives in the JSON section, so OpenStore can attach zone maps
// without touching a single data byte: a query whose predicate excludes a
// block never faults its pages in, which is what turns zone-map skipping
// into an I/O win rather than just a CPU win. Envelopes are persisted as
// IEEE-754 bit patterns (uint64) because JSON cannot represent NaN/±Inf.
//
// The metadata's last member, "digest", is the SHA-256 of every other byte
// of the file: header, payloads and the metadata as it reads with that member
// removed. It is the store's identity — two files with one digest hold the
// same table — and OpenStore hands it to the Table without recomputing it, so
// opening stays O(metadata). OpenStoreVerified recomputes it; that is for
// files small enough to read whole and cheap enough to rebuild, which is to
// say persisted samples (see core.BuildSamples). Files written before the
// digest existed open as before and have no identity.
//
// On unix the data section is served from a read-only memory mapping; other
// platforms fall back to reading the file into memory (store_fallback).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
)

const storeMagic = "AQPSTOR1"

type storeColumn struct {
	Name    string   `json:"name"`
	Type    Type     `json:"type"`
	DataOff uint64   `json:"data_off"`
	DataLen uint64   `json:"data_len"`
	Offs    []uint32 `json:"offs"`
	// Codecs holds per-block codec ids for numeric columns and per-block
	// code bit widths for dictionary string columns.
	Codecs []byte `json:"codecs,omitempty"`
	// MinBits/MaxBits are zone envelopes as float64 bit patterns.
	MinBits []uint64 `json:"min_bits,omitempty"`
	MaxBits []uint64 `json:"max_bits,omitempty"`
	// Dict is the column-wide string dictionary; nil with Type==String
	// means raw per-block string payloads.
	Dict    []string `json:"dict,omitempty"`
	Logical int64    `json:"logical,omitempty"`
}

type storeMeta struct {
	Rows    int           `json:"rows"`
	Columns []storeColumn `json:"columns"`
	// Tag is the table's Tag: what the writer says the file holds.
	Tag string `json:"tag,omitempty"`
	// Digest must stay the last field: the digest covers the encoding of
	// everything before it (see digestMember).
	Digest string `json:"digest,omitempty"`
}

// digestMember renders the metadata's trailing digest member and the brace
// that closes the object. Every file with a digest ends in these bytes, so a
// reader can cut them off, put the brace back and hash what the writer hashed
// without re-encoding any JSON.
func digestMember(sum []byte) string {
	return `,"digest":"` + hex.EncodeToString(sum) + `"}`
}

var digestMemberLen = len(digestMember(make([]byte, sha256.Size)))

func f64sToBits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

func bitsToF64s(bits []uint64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// WriteStore persists t to path in block-store format. Raw columns are
// compressed on the way out; block-backed columns are written as-is.
//
// The file is written under a temporary name in path's directory and renamed
// into place, so path never holds a half-written store: a reader sees the old
// file, no file, or the whole new one, and an error leaves nothing behind. It
// is not fsynced. Every consumer either regenerates its store (the benchmark,
// aqpd -store from -gen/-csv) or treats it as a cache whose digest it checks
// on open (persisted samples), so a file torn by power loss costs a rebuild,
// not a wrong answer.
func WriteStore(path string, t *Table) error {
	return WriteStoreTagged(path, t, t.tag)
}

// WriteStoreTagged is WriteStore that records tag in the file, under its
// digest, for OpenStore to hand back as Table.Tag: the writer's statement of
// what the table is, for a reader that found the file by name and must not
// trust the name. WriteStore itself keeps the tag of a table that was opened
// from a tagged file.
func WriteStoreTagged(path string, t *Table, tag string) (err error) {
	ct := t
	if !allBlockBacked(t) {
		ct = Compress(t)
	}
	meta := storeMeta{Rows: ct.rows, Tag: tag}
	var header [16]byte
	parts := [][]byte{header[:]} // the file, in order: header, payloads, metadata
	dataOff := uint64(len(header))
	for i, col := range ct.cols {
		sc := storeColumn{Name: ct.schema[i].Name, Type: ct.schema[i].Type}
		var data []byte
		switch c := col.(type) {
		case *F64BlockCol:
			data = c.data
			sc.Offs, sc.Codecs = c.offs, c.codecs
			sc.MinBits, sc.MaxBits = f64sToBits(c.mins), f64sToBits(c.maxs)
		case *I64BlockCol:
			data = c.data
			sc.Offs, sc.Codecs = c.offs, c.codecs
			sc.MinBits, sc.MaxBits = f64sToBits(c.mins), f64sToBits(c.maxs)
		case *StrBlockCol:
			data = c.data
			sc.Offs, sc.Codecs = c.offs, c.widths
			sc.Dict, sc.Logical = c.dict, c.logical
		default:
			return fmt.Errorf("table: column %q is not block-backed after Compress",
				sc.Name)
		}
		sc.DataOff, sc.DataLen = dataOff, uint64(len(data))
		parts = append(parts, data)
		dataOff += uint64(len(data))
		meta.Columns = append(meta.Columns, sc)
	}
	copy(header[:8], storeMagic)
	binary.LittleEndian.PutUint64(header[8:], dataOff)
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("table: encoding store metadata: %w", err)
	}
	h := sha256.New()
	for _, part := range append(parts, blob) {
		h.Write(part)
	}
	parts = append(parts, append(blob[:len(blob)-1], digestMember(h.Sum(nil))...))

	f, err := createBeside(path)
	if err != nil {
		return fmt.Errorf("table: creating store: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	for _, part := range parts {
		if _, err := f.Write(part); err != nil {
			return fmt.Errorf("table: writing store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("table: closing store: %w", err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("table: publishing store: %w", err)
	}
	return nil
}

// createBeside creates a new file next to path under a name no other writer
// holds. It is os.CreateTemp but for the mode: a store is a file other
// processes map, so it gets what os.Create would have given it — 0666 less
// the umask — where CreateTemp's 0600 would have to be widened by a chmod
// that cannot know the umask.
func createBeside(path string) (*os.File, error) {
	for try := 0; ; try++ {
		name := fmt.Sprintf("%s.tmp%d", path, rand.Uint64())
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

func allBlockBacked(t *Table) bool {
	for _, c := range t.cols {
		switch c.(type) {
		case *F64BlockCol, *I64BlockCol, *StrBlockCol:
		default:
			return false
		}
	}
	return len(t.cols) > 0
}

// OpenStore maps the store at path and reconstructs its table. Column data
// stays in the file mapping (unix) and is decoded lazily per block; zone
// maps come straight from metadata, so skipped blocks cost no I/O. The
// returned closer releases the mapping; the table must not be used after
// Close. Metadata is validated — a file whose block table would send a
// decoder out of bounds is refused as a corrupt store — but payload bytes are
// not read, and the recorded digest is adopted as the table's StoreIdentity,
// not recomputed.
func OpenStore(path string) (*Table, io.Closer, error) {
	return openStore(path, mapFile, false)
}

// OpenStoreVerified is OpenStore for a file that must be exactly what a
// WriteStore wrote: it reads every byte once to recompute the digest and
// refuses a file without one or with another.
func OpenStoreVerified(path string) (*Table, io.Closer, error) {
	return openStore(path, mapFile, true)
}

func openStore(path string, mapper func(string) ([]byte, io.Closer, error), verify bool) (*Table, io.Closer, error) {
	data, closer, err := mapper(path)
	if err != nil {
		return nil, nil, err
	}
	t, err := storeFromBytes(data, verify)
	if err != nil {
		closer.Close()
		return nil, nil, err
	}
	t.storeDir = filepath.Dir(path)
	return t, closer, nil
}

func storeFromBytes(data []byte, verify bool) (*Table, error) {
	if len(data) < 16 || string(data[:8]) != storeMagic {
		return nil, fmt.Errorf("table: not a block store (bad magic)")
	}
	metaOff := binary.LittleEndian.Uint64(data[8:16])
	if metaOff < 16 || metaOff > uint64(len(data)) {
		return nil, fmt.Errorf("table: corrupt store (meta offset %d of %d bytes)",
			metaOff, len(data))
	}
	if verify {
		if err := verifyDigest(data, metaOff); err != nil {
			return nil, err
		}
	}
	var meta storeMeta
	if err := json.Unmarshal(data[metaOff:], &meta); err != nil {
		return nil, fmt.Errorf("table: decoding store metadata: %w", err)
	}
	if meta.Rows < 0 {
		return nil, fmt.Errorf("table: corrupt store (%d rows)", meta.Rows)
	}
	nb := numBlocksFor(meta.Rows)
	schema := make(Schema, len(meta.Columns))
	cols := make([]Column, len(meta.Columns))
	for i := range meta.Columns {
		sc := &meta.Columns[i]
		schema[i] = Field{Name: sc.Name, Type: sc.Type}
		end := sc.DataOff + sc.DataLen
		if sc.DataOff < 16 || end < sc.DataOff || end > metaOff {
			return nil, fmt.Errorf("table: corrupt store (column %q data range)",
				sc.Name)
		}
		if err := sc.validate(meta.Rows, nb); err != nil {
			return nil, fmt.Errorf("table: corrupt store (column %q: %w)", sc.Name, err)
		}
		payload := data[sc.DataOff:end]
		var mins, maxs []float64 // stay nil when the store recorded no envelopes
		if sc.MinBits != nil {
			mins, maxs = bitsToF64s(sc.MinBits), bitsToF64s(sc.MaxBits)
		}
		switch sc.Type {
		case Float64:
			cols[i] = &F64BlockCol{data: payload, offs: sc.Offs, codecs: sc.Codecs,
				mins: mins, maxs: maxs, rows: meta.Rows}
		case Int64:
			cols[i] = &I64BlockCol{data: payload, offs: sc.Offs, codecs: sc.Codecs,
				mins: mins, maxs: maxs, rows: meta.Rows}
		case String:
			cols[i] = &StrBlockCol{data: payload, offs: sc.Offs, widths: sc.Codecs,
				dict: sc.Dict, rows: meta.Rows, logical: sc.Logical}
		}
	}
	t, err := New(schema, cols...)
	if err != nil {
		return nil, err
	}
	t.rows = meta.Rows
	t.tag = meta.Tag
	if isHexDigest(meta.Digest) { // it becomes part of file names
		t.storeDigest = meta.Digest
	}
	t.BuildZones()
	return t, nil
}

func isHexDigest(s string) bool {
	sum, err := hex.DecodeString(s)
	return err == nil && len(sum) == sha256.Size
}

// verifyDigest recomputes the digest of a store image whose metadata starts
// at metaOff and compares it with the one the image ends in.
func verifyDigest(data []byte, metaOff uint64) error {
	cut := len(data) - digestMemberLen
	if cut < 0 || uint64(cut) < metaOff {
		return fmt.Errorf("table: corrupt store (no digest)")
	}
	h := sha256.New()
	h.Write(data[:cut])
	h.Write([]byte{'}'})
	if !bytes.Equal(data[cut:], []byte(digestMember(h.Sum(nil)))) {
		return fmt.Errorf("table: corrupt store (digest mismatch)")
	}
	return nil
}

// validate checks that the column's block table cannot send a decoder out of
// bounds: one codec (or dictionary code width) per block, envelopes for every
// block or for none, and payload offsets that start at 0, never decrease and
// end at the payload's length. What the bytes inside a block's payload say is
// not checked here; a persisted sample's digest covers them.
func (sc *storeColumn) validate(rows, nb int) error {
	if len(sc.Offs) != nb+1 {
		return fmt.Errorf("%d offsets, want %d", len(sc.Offs), nb+1)
	}
	if sc.Offs[0] != 0 || uint64(sc.Offs[nb]) != sc.DataLen {
		return fmt.Errorf("offsets span [%d, %d], want [0, %d]", sc.Offs[0], sc.Offs[nb], sc.DataLen)
	}
	for b := 0; b < nb; b++ {
		if sc.Offs[b] > sc.Offs[b+1] {
			return fmt.Errorf("offsets decrease at block %d", b)
		}
	}
	var lo, hi byte // the type's codec id range
	switch sc.Type {
	case Float64:
		lo, hi = codecRawF64, codecIntF64
	case Int64:
		lo, hi = codecRawI64, codecDictI64
	case String:
		return sc.validateStrings(rows, nb)
	default:
		return fmt.Errorf("type %d", sc.Type)
	}
	if len(sc.Codecs) != nb {
		return fmt.Errorf("%d codecs, want %d", len(sc.Codecs), nb)
	}
	for b, codec := range sc.Codecs {
		if codec < lo || codec > hi {
			return fmt.Errorf("block %d has codec %d", b, codec)
		}
	}
	if len(sc.MinBits) != len(sc.MaxBits) || (sc.MinBits != nil && len(sc.MinBits) != nb) {
		return fmt.Errorf("%d/%d envelopes, want %d or none", len(sc.MinBits), len(sc.MaxBits), nb)
	}
	return nil
}

// validateStrings covers the string column's two layouts. Raw payloads carry
// no per-block metadata. A dictionary column has a code width per block, and
// a block of width w holds a code of w significant bits (that is how the
// encoder picks w), so the dictionary must have more than 2^(w-1) entries and
// the payload room for every row's code.
func (sc *storeColumn) validateStrings(rows, nb int) error {
	if sc.Dict == nil {
		if len(sc.Codecs) != 0 {
			return fmt.Errorf("%d code widths without a dictionary", len(sc.Codecs))
		}
		return nil
	}
	if len(sc.Codecs) != nb {
		return fmt.Errorf("%d code widths, want %d", len(sc.Codecs), nb)
	}
	for b, w := range sc.Codecs {
		n := uint64(min(BlockRows, rows-b*BlockRows))
		need := uint64(1)
		if w > 0 {
			need = 1<<(w-1) + 1 // 1 for w > 64, which the next line refuses anyway
		}
		if w > 32 || uint64(len(sc.Dict)) < need || uint64(sc.Offs[b+1]-sc.Offs[b]) < (n*uint64(w)+7)/8 {
			return fmt.Errorf("block %d has %d-bit codes in %d bytes for a dictionary of %d",
				b, w, sc.Offs[b+1]-sc.Offs[b], len(sc.Dict))
		}
	}
	return nil
}
