package table

// On-disk block store. A store file is the compressed backing made durable:
//
//	[8]  magic "AQPSTOR3"
//	[8]  little-endian uint64 offset of the metadata section
//	[8]  little-endian uint64 offset of the block tables
//	[..] column data payloads, back to back (each column's encoded blocks)
//	[..] block tables, one per column, back to back (below)
//	[..] metadata: JSON, from the recorded offset to EOF
//
// A column's block table is little-endian binary:
//
//	[16] four uint32 counts: payload offsets, codecs, min envelopes, max envelopes
//	[..] the payload offsets, uint32 each (nb+1 for nb blocks)
//	[..] the codecs, a byte each: codec ids for numeric columns, code bit
//	     widths for dictionary string columns (nb, or none for raw strings)
//	[..] the min envelopes, then the max envelopes, float64 bit patterns
//	     (nb each, or none)
//
// The JSON keeps what is small — each column's name, type, payload and
// block-table ranges, payload sum, dictionary and logical size; the row
// count, tag and digest — so opening a store decodes a few hundred bytes of
// JSON and copies the block tables at memory speed. OpenStore attaches zone
// maps without touching a single data byte: a query whose predicate excludes
// a block never faults its pages in, which is what turns zone-map skipping
// into an I/O win rather than just a CPU win. A file of an earlier layout
// ("AQPSTOR1", block tables inside the JSON; "AQPSTOR2", a digest over every
// byte) is refused: it is regenerated, not read.
//
// Every column lists the store digest (storeDigest) of its payload as its
// "sum". The metadata's last member, "digest", is the store digest of the
// frame: the header, the block tables and the metadata as it reads with that
// member removed — so it covers the payloads through the sums the metadata
// lists. It is the store's identity — two files with one digest hold the same
// table — and OpenStore hands it to the Table without recomputing it, so
// opening stays O(metadata). OpenStoreVerified recomputes it, which reads the
// frame and no payload byte, and leaves each payload to be checked against
// its sum by the first read of its column (verify.go); that is for files that
// are cheap to rebuild, which is to say persisted samples (see
// core.BuildSamples). A file without the member opens with no identity.
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
	"runtime"
	"sync"
)

const (
	storeMagic = "AQPSTOR3"
	// storeMagicV1 is the layout that kept the block tables in the JSON, and
	// storeMagicV2 the one whose digest covered every byte.
	storeMagicV1 = "AQPSTOR1"
	storeMagicV2 = "AQPSTOR2"
	// headerLen is the magic and the two section offsets.
	headerLen = 24
	// digestChunk is the span the store digest hashes on its own. It is part
	// of the format, not a knob: the digest of a file does not depend on how
	// many goroutines computed it.
	digestChunk = 256 << 10
)

type storeColumn struct {
	Name    string `json:"name"`
	Type    Type   `json:"type"`
	DataOff uint64 `json:"data_off"`
	DataLen uint64 `json:"data_len"`
	// Sum is the hex store digest of the payload.
	Sum string `json:"sum"`
	// TableOff and TableLen locate the column's binary block table.
	TableOff uint64 `json:"table_off"`
	TableLen uint64 `json:"table_len"`
	// Dict is the column-wide string dictionary; nil with Type==String
	// means raw per-block string payloads.
	Dict    []string `json:"dict,omitempty"`
	Logical int64    `json:"logical,omitempty"`

	// The block table.
	Offs []uint32 `json:"-"`
	// Codecs holds per-block codec ids for numeric columns and per-block
	// code bit widths for dictionary string columns.
	Codecs []byte `json:"-"`
	// Mins/Maxs are the zone envelopes; nil when the store recorded none.
	Mins []float64 `json:"-"`
	Maxs []float64 `json:"-"`
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

// storeDigest is the store digest of the concatenation of parts: the SHA-256
// of its length (a little-endian uint64) followed by the SHA-256 of each of
// its digestChunk-byte chunks in order, the last one possibly shorter. Every
// byte is hashed at full strength once; the chunks are hashed on up to
// workers goroutines.
func storeDigest(parts [][]byte, workers int) []byte {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	chunks := (total + digestChunk - 1) / digestChunk
	sums := make([]byte, 8+chunks*sha256.Size)
	binary.LittleEndian.PutUint64(sums, uint64(total))
	hashChunk := func(c int) {
		lo, hi := c*digestChunk, min((c+1)*digestChunk, total)
		h := sha256.New()
		at := 0 // where the current part starts
		for _, p := range parts {
			if from, to := max(lo-at, 0), min(hi-at, len(p)); from < to {
				h.Write(p[from:to])
			}
			if at += len(p); at >= hi {
				break
			}
		}
		copy(sums[8+c*sha256.Size:], h.Sum(nil))
	}
	workers = min(workers, chunks)
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			hashChunk(c)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := w; c < chunks; c += workers {
					hashChunk(c)
				}
			}()
		}
		wg.Wait()
	}
	sum := sha256.Sum256(sums)
	return sum[:]
}

// appendTable appends sc's block table to b.
func appendTable(b []byte, sc *storeColumn) []byte {
	for _, n := range []int{len(sc.Offs), len(sc.Codecs), len(sc.Mins), len(sc.Maxs)} {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	for _, o := range sc.Offs {
		b = binary.LittleEndian.AppendUint32(b, o)
	}
	b = append(b, sc.Codecs...)
	for _, env := range [][]float64{sc.Mins, sc.Maxs} {
		for _, v := range env {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeTable reads sc's block table from tab, which must hold exactly what
// its counts say. Codecs alias tab; offsets and envelopes are copied.
func (sc *storeColumn) decodeTable(tab []byte) error {
	if len(tab) < 16 {
		return fmt.Errorf("block table of %d bytes", len(tab))
	}
	var n [4]uint64
	for i := range n {
		n[i] = uint64(binary.LittleEndian.Uint32(tab[4*i:]))
	}
	if want := 16 + 4*n[0] + n[1] + 8*n[2] + 8*n[3]; uint64(len(tab)) != want {
		return fmt.Errorf("block table of %d bytes, its counts say %d", len(tab), want)
	}
	p := tab[16:]
	sc.Offs = make([]uint32, n[0])
	for i := range sc.Offs {
		sc.Offs[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	p = p[4*n[0]:]
	sc.Codecs, p = p[:n[1]:n[1]], p[n[1]:]
	envelopes := func(n uint64) []float64 {
		if n == 0 {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[8*n:]
		return out
	}
	sc.Mins = envelopes(n[2])
	sc.Maxs = envelopes(n[3])
	return nil
}

// encodeTail lays out the block tables of meta's columns from file offset off
// on, recording each one's range, and the JSON metadata after them. It
// returns the two, back to back, and the offset the metadata starts at.
func encodeTail(meta *storeMeta, off uint64) ([]byte, uint64, error) {
	var tail []byte
	for i := range meta.Columns {
		sc := &meta.Columns[i]
		start := len(tail)
		tail = appendTable(tail, sc)
		sc.TableOff, sc.TableLen = off+uint64(start), uint64(len(tail)-start)
	}
	metaOff := off + uint64(len(tail))
	blob, err := json.Marshal(meta)
	if err != nil {
		return nil, 0, fmt.Errorf("table: encoding store metadata: %w", err)
	}
	return append(tail, blob...), metaOff, nil
}

// WriteStore persists t to path in block-store format. Raw columns are
// compressed on the way out; block-backed columns are written as-is.
//
// The file is written under a temporary name in path's directory and renamed
// into place, so path never holds a half-written store: a reader sees the old
// file, no file, or the whole new one, and an error leaves nothing behind. It
// is not fsynced. Every consumer either regenerates its store (the benchmark,
// aqpd -store from -gen/-csv) or treats it as a cache whose digest it checks
// on open and whose payload sums it checks on first read (persisted samples),
// so a file torn by power loss costs a rebuild, not a wrong answer.
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
	var header [headerLen]byte
	parts := [][]byte{header[:]} // the file, in order: header, payloads, tables and metadata
	dataOff := uint64(len(header))
	for i, col := range ct.cols {
		// A column of a verified store is checked before its bytes are
		// written under a new sum.
		if _, err := CheckColumn(col); err != nil {
			return fmt.Errorf("table: writing store: %w", err)
		}
		sc := storeColumn{Name: ct.schema[i].Name, Type: ct.schema[i].Type}
		var data []byte
		switch c := col.(type) {
		case *F64BlockCol:
			data = c.data
			sc.Offs, sc.Codecs, sc.Mins, sc.Maxs = c.offs, c.codecs, c.mins, c.maxs
		case *I64BlockCol:
			data = c.data
			sc.Offs, sc.Codecs, sc.Mins, sc.Maxs = c.offs, c.codecs, c.mins, c.maxs
		case *StrBlockCol:
			data = c.data
			sc.Offs, sc.Codecs = c.offs, c.widths
			sc.Dict, sc.Logical = c.dict, c.logical
		default:
			return fmt.Errorf("table: column %q is not block-backed after Compress",
				sc.Name)
		}
		sc.DataOff, sc.DataLen = dataOff, uint64(len(data))
		sc.Sum = hex.EncodeToString(storeDigest([][]byte{data}, runtime.GOMAXPROCS(0)))
		parts = append(parts, data)
		dataOff += uint64(len(data))
		meta.Columns = append(meta.Columns, sc)
	}
	tail, metaOff, err := encodeTail(&meta, dataOff)
	if err != nil {
		return err
	}
	copy(header[:8], storeMagic)
	binary.LittleEndian.PutUint64(header[8:], metaOff)
	binary.LittleEndian.PutUint64(header[16:], dataOff) // the block tables follow the payloads
	sum := storeDigest([][]byte{header[:], tail}, 1)
	parts = append(parts, append(tail[:len(tail)-1], digestMember(sum)...))

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
// WriteStore wrote. It recomputes the digest of the frame (header, block
// tables, metadata: no payload byte) and refuses a file without one or with
// another, or a column without a payload sum. Each column's payload is
// checked against its sum by the first read of the column (CheckColumn), and
// refused then.
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

// storeFromBytes reconstructs the table a store image holds. Every refusal
// says "corrupt store": whatever the bytes are, they are not a store this
// code can serve.
func storeFromBytes(data []byte, verify bool) (*Table, error) {
	if len(data) >= 8 && (string(data[:8]) == storeMagicV1 || string(data[:8]) == storeMagicV2) {
		return nil, fmt.Errorf("table: corrupt store (%s, a layout no longer read: "+
			"remove the file and regenerate it with aqpd -store and -gen or -csv)", data[:8])
	}
	if len(data) < headerLen || string(data[:8]) != storeMagic {
		return nil, fmt.Errorf("table: corrupt store (bad magic: not a block store)")
	}
	metaOff := binary.LittleEndian.Uint64(data[8:16])
	tablesOff := binary.LittleEndian.Uint64(data[16:24])
	if metaOff > uint64(len(data)) || tablesOff < headerLen || tablesOff > metaOff {
		return nil, fmt.Errorf("table: corrupt store (block tables at %d, metadata at %d of %d bytes)",
			tablesOff, metaOff, len(data))
	}
	if verify {
		if err := verifyFrame(data, tablesOff, metaOff); err != nil {
			return nil, err
		}
	}
	var meta storeMeta
	if err := json.Unmarshal(data[metaOff:], &meta); err != nil {
		return nil, fmt.Errorf("table: corrupt store (metadata: %w)", err)
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
		if !inside(sc.DataOff, sc.DataLen, headerLen, tablesOff) {
			return nil, fmt.Errorf("table: corrupt store (column %q data range)",
				sc.Name)
		}
		if !inside(sc.TableOff, sc.TableLen, tablesOff, metaOff) {
			return nil, fmt.Errorf("table: corrupt store (column %q block table range)",
				sc.Name)
		}
		if err := sc.decodeTable(data[sc.TableOff : sc.TableOff+sc.TableLen]); err != nil {
			return nil, fmt.Errorf("table: corrupt store (column %q: %w)", sc.Name, err)
		}
		if err := sc.validate(meta.Rows, nb); err != nil {
			return nil, fmt.Errorf("table: corrupt store (column %q: %w)", sc.Name, err)
		}
		var check *payloadCheck
		if verify {
			sum, err := hex.DecodeString(sc.Sum)
			if err != nil || len(sum) != sha256.Size {
				return nil, fmt.Errorf("table: corrupt store (column %q has no payload sum)", sc.Name)
			}
			check = &payloadCheck{column: sc.Name, sum: sum}
		}
		payload := data[sc.DataOff : sc.DataOff+sc.DataLen]
		switch sc.Type {
		case Float64:
			cols[i] = &F64BlockCol{data: payload, offs: sc.Offs, codecs: sc.Codecs,
				mins: sc.Mins, maxs: sc.Maxs, rows: meta.Rows, check: check}
		case Int64:
			cols[i] = &I64BlockCol{data: payload, offs: sc.Offs, codecs: sc.Codecs,
				mins: sc.Mins, maxs: sc.Maxs, rows: meta.Rows, check: check}
		case String:
			cols[i] = &StrBlockCol{data: payload, offs: sc.Offs, widths: sc.Codecs,
				dict: sc.Dict, rows: meta.Rows, logical: sc.Logical, check: check}
		}
	}
	t, err := New(schema, cols...)
	if err != nil {
		return nil, fmt.Errorf("table: corrupt store (%w)", err)
	}
	t.rows = meta.Rows
	t.tag = meta.Tag
	if isHexDigest(meta.Digest) { // it becomes part of file names
		t.storeDigest = meta.Digest
	}
	t.BuildZones()
	return t, nil
}

// inside reports whether the n bytes at off lie within [lo, hi).
func inside(off, n, lo, hi uint64) bool {
	return off >= lo && off+n >= off && off+n <= hi
}

func isHexDigest(s string) bool {
	sum, err := hex.DecodeString(s)
	return err == nil && len(sum) == sha256.Size
}

// verifyFrame recomputes the digest of a store image's frame — its header,
// and its block tables at tablesOff and metadata at metaOff without the
// digest member — and compares it with the one the image ends in.
func verifyFrame(data []byte, tablesOff, metaOff uint64) error {
	cut := len(data) - digestMemberLen
	if cut < 0 || uint64(cut) < metaOff {
		return fmt.Errorf("table: corrupt store (no digest)")
	}
	sum := storeDigest([][]byte{data[:headerLen], data[tablesOff:cut], []byte("}")}, 1)
	if !bytes.Equal(data[cut:], []byte(digestMember(sum))) {
		return fmt.Errorf("table: corrupt store (digest mismatch)")
	}
	return nil
}

// validate checks that the column's block table cannot send a decoder out of
// bounds: one codec (or dictionary code width) per block, envelopes for every
// block or for none, and payload offsets that start at 0, never decrease and
// end at the payload's length. What the bytes inside a block's payload say is
// not checked here; a persisted sample's payload sums cover them.
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
	if len(sc.Mins) != len(sc.Maxs) || (sc.Mins != nil && len(sc.Mins) != nb) {
		return fmt.Errorf("%d/%d envelopes, want %d or none", len(sc.Mins), len(sc.Maxs), nb)
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
