package table

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeTestStore writes blockTestTable(rows) under dir and returns the path.
func writeTestStore(t *testing.T, dir, name string, rows int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := WriteStore(path, blockTestTable(rows)); err != nil {
		t.Fatal(err)
	}
	return path
}

// rewriteMeta rewrites the store at path with its metadata, block tables
// included, passed through mutate: header and payloads stay, the block tables
// and the JSON are re-encoded after the payloads. The digest goes along stale;
// OpenStore does not recompute it.
func rewriteMeta(t *testing.T, path string, mutate func(*storeMeta)) {
	t.Helper()
	data := mustRead(t, path)
	meta := readJSON(t, data)
	tablesOff := binary.LittleEndian.Uint64(data[8:16])
	for i := range meta.Columns {
		sc := &meta.Columns[i]
		if err := sc.decodeTable(data[sc.TableOff : sc.TableOff+sc.TableLen]); err != nil {
			t.Fatal(err)
		}
		tablesOff = min(tablesOff, sc.TableOff)
	}
	mutate(&meta)
	tail, metaOff, err := encodeTail(&meta, tablesOff)
	if err != nil {
		t.Fatal(err)
	}
	out := append(data[:tablesOff:tablesOff], tail...)
	binary.LittleEndian.PutUint64(out[8:16], metaOff)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readJSON decodes the JSON metadata of a store image: everything but the
// block tables.
func readJSON(t *testing.T, data []byte) storeMeta {
	t.Helper()
	var meta storeMeta
	if err := json.Unmarshal(data[binary.LittleEndian.Uint64(data[8:16]):], &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestOpenStoreRejectsCorruptMetadata: block metadata that would send a
// decoder out of bounds — or to the wrong decoder — is refused at open. Before
// the validation every one of these stores opened without error, and the
// first read of the column panicked on the query's goroutine (the first case
// is the one the issue demonstrates: `slice bounds out of range
// [:1073741824]`) or decoded garbage.
func TestOpenStoreRejectsCorruptMetadata(t *testing.T) {
	const rows = 3*BlockRows + 17 // columns: lat f64, bytes f64, id i64, city dict string
	cases := []struct {
		name   string
		mutate func(*storeMeta)
	}{
		{"codecs cut to one entry and an offset past the payload", func(m *storeMeta) {
			m.Columns[0].Codecs = m.Columns[0].Codecs[:1]
			m.Columns[0].Offs[2] = 1 << 30
		}},
		{"codecs cut to one entry", func(m *storeMeta) { m.Columns[0].Codecs = m.Columns[0].Codecs[:1] }},
		{"int64 codecs absent", func(m *storeMeta) { m.Columns[2].Codecs = nil }},
		{"offset past the payload", func(m *storeMeta) { m.Columns[0].Offs[2] = 1 << 30 }},
		{"offsets decrease", func(m *storeMeta) {
			o := m.Columns[1].Offs
			o[1], o[2] = o[2], o[1]
		}},
		{"first offset not zero", func(m *storeMeta) { m.Columns[2].Offs[0] = 1 }},
		{"last offset short of the payload", func(m *storeMeta) { m.Columns[2].Offs[4]-- }},
		{"payload longer than the offsets cover", func(m *storeMeta) {
			m.Columns[0].DataLen-- // still inside the file, no longer what offs[nb] says
		}},
		{"one envelope missing", func(m *storeMeta) { m.Columns[0].Mins = m.Columns[0].Mins[:3] }},
		{"max envelopes without min", func(m *storeMeta) { m.Columns[2].Mins = nil }},
		{"unknown float64 codec", func(m *storeMeta) { m.Columns[0].Codecs[1] = 99 }},
		{"int64 codec on a float64 column", func(m *storeMeta) { m.Columns[1].Codecs[0] = codecForI64 }},
		{"float64 codec on an int64 column", func(m *storeMeta) { m.Columns[2].Codecs[3] = codecXorF64 }},
		{"string widths cut short", func(m *storeMeta) { m.Columns[3].Codecs = m.Columns[3].Codecs[:2] }},
		{"string code width beyond 32 bits", func(m *storeMeta) { m.Columns[3].Codecs[0] = 40 }},
		{"string codes wider than their payload", func(m *storeMeta) { m.Columns[3].Codecs[1] = 9 }},
		{"dictionary smaller than its codes", func(m *storeMeta) { m.Columns[3].Dict = m.Columns[3].Dict[:2] }},
		{"widths without a dictionary", func(m *storeMeta) { m.Columns[3].Dict = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTestStore(t, t.TempDir(), "t.store", rows)
			rewriteMeta(t, path, tc.mutate)
			for _, open := range []func(string) (*Table, io.Closer, error){OpenStore, openStoreFallback} {
				tbl, closer, err := open(path)
				if err == nil {
					closer.Close()
					t.Fatalf("store opened (%d rows); want a corrupt-store error", tbl.NumRows())
				}
				if !strings.Contains(err.Error(), "corrupt store") {
					t.Fatalf("error %q does not say corrupt store", err)
				}
			}
		})
	}
}

// TestOpenStoreRejectsBadTableRanges: a block table recorded outside the
// file, inside the header or reaching into the metadata is refused by its
// range, before a byte of it is read.
func TestOpenStoreRejectsBadTableRanges(t *testing.T) {
	cases := map[string]func(sc *storeColumn){
		"outside the file":          func(sc *storeColumn) { sc.TableOff = 1 << 40 },
		"length wrapping past 2^64": func(sc *storeColumn) { sc.TableLen = math.MaxUint64 },
		"inside the header":         func(sc *storeColumn) { sc.TableOff = 8 },
		"overlapping the metadata":  func(sc *storeColumn) { sc.TableLen++ },
	}
	for name, move := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeTestStore(t, t.TempDir(), "t.store", 3*BlockRows+17)
			data := mustRead(t, path)
			meta := readJSON(t, data)
			move(&meta.Columns[len(meta.Columns)-1]) // its table ends where the metadata starts
			blob, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			metaOff := binary.LittleEndian.Uint64(data[8:16])
			if err := os.WriteFile(path, append(data[:metaOff:metaOff], blob...), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, open := range []func(string) (*Table, io.Closer, error){OpenStore, openStoreFallback} {
				tbl, closer, err := open(path)
				if err == nil {
					closer.Close()
					t.Fatalf("store opened (%d rows); want a corrupt-store error", tbl.NumRows())
				}
				if !strings.Contains(err.Error(), "corrupt store") || !strings.Contains(err.Error(), "block table range") {
					t.Fatalf("error %q does not say corrupt store and block table range", err)
				}
			}
		})
	}
}

// TestOpenStoreRefusesFormat1: a store of the layout that kept its block
// tables in the JSON is not read; the error says how to get a current one.
func TestOpenStoreRefusesFormat1(t *testing.T) {
	path := writeTestStore(t, t.TempDir(), "t.store", BlockRows+3)
	data := mustRead(t, path)
	copy(data, storeMagicV1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func(string) (*Table, io.Closer, error){OpenStore, OpenStoreVerified, openStoreFallback} {
		tbl, closer, err := open(path)
		if err == nil {
			closer.Close()
			t.Fatalf("an %s store opened (%d rows)", storeMagicV1, tbl.NumRows())
		}
		for _, want := range []string{"corrupt store", storeMagicV1, "regenerate"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
	}
}

// TestOpenStoreWithoutEnvelopes: envelopes are optional. A store that records
// none opens, reads back the same values and simply has no zone map for those
// columns (before the validation its zone maps held empty envelopes, which the
// executor indexed by block).
func TestOpenStoreWithoutEnvelopes(t *testing.T) {
	raw := blockTestTable(2*BlockRows + 5)
	path := writeTestStore(t, t.TempDir(), "t.store", raw.NumRows())
	rewriteMeta(t, path, func(m *storeMeta) {
		m.Columns[0].Mins, m.Columns[0].Maxs = nil, nil
	})
	got, closer, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	assertTablesEqual(t, raw, got)
	if _, ok := got.Zones().Column(0); ok {
		t.Error("column 0 has a zone envelope, but the store recorded none")
	}
	if cz, ok := got.Zones().Column(1); !ok || len(cz.Mins) != 3 {
		t.Errorf("column 1 envelope = %v, %v; want the stored 3 blocks", cz, ok)
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestWriteStoreIsAtomic: the destination holds the old file or the new one,
// never part of one, and a failed write leaves nothing behind.
func TestWriteStoreIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStore(t, dir, "t.store", BlockRows+9)
	old, closer, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Replacing the file under a reader: the reader keeps the old bytes.
	next := blockTestTable(2*BlockRows + 1)
	if err := WriteStore(path, next); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, blockTestTable(BlockRows+9), old)
	got, closer2, err := OpenStoreVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	assertTablesEqual(t, next, got)
	if names := listDir(t, dir); len(names) != 1 || names[0] != "t.store" {
		t.Fatalf("directory holds %v after two writes, want only t.store", names)
	}

	// A destination that cannot be renamed onto: error, no temp file.
	blocked := filepath.Join(dir, "blocked.store")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteStore(blocked, next); err == nil {
		t.Fatal("WriteStore onto a non-empty directory succeeded")
	}
	if names := listDir(t, dir); len(names) != 2 {
		t.Fatalf("directory holds %v after a failed write, want t.store and blocked.store", names)
	}
	// A directory that is not there: error.
	if err := WriteStore(filepath.Join(dir, "absent", "t.store"), next); err == nil {
		t.Fatal("WriteStore into a missing directory succeeded")
	}
}

// TestStoreDigestIsContentIdentity: the digest names the content, not the
// file; OpenStore adopts it, OpenStoreVerified recomputes it.
func TestStoreDigestIsContentIdentity(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	const rows = 2*BlockRows + 41
	a := writeTestStore(t, dir, "a.store", rows)
	b := writeTestStore(t, other, "renamed.store", rows)
	c := writeTestStore(t, dir, "c.store", rows+1)

	identity := func(path string) (string, string) {
		t.Helper()
		tbl, closer, err := OpenStoreVerified(path)
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		return tbl.StoreIdentity()
	}
	da, dirA := identity(a)
	db, dirB := identity(b)
	dc, _ := identity(c)
	if len(da) != 64 || da != db {
		t.Errorf("same content under two names: digests %q and %q", da, db)
	}
	if da == dc {
		t.Error("different content, same digest")
	}
	if dirA != dir || dirB != other {
		t.Errorf("store directories %q, %q; want %q, %q", dirA, dirB, dir, other)
	}
	if d, _ := blockTestTable(rows).StoreIdentity(); d != "" {
		t.Errorf("an in-memory table has store identity %q", d)
	}

	// A tag is part of the content, survives the round trip, and is rewritten
	// when an opened table is written again.
	tp := filepath.Join(dir, "tagged.store")
	if err := WriteStoreTagged(tp, blockTestTable(rows), "what this is"); err != nil {
		t.Fatal(err)
	}
	tt, closer, err := OpenStoreVerified(tp)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if dt, _ := tt.StoreIdentity(); tt.Tag() != "what this is" || dt == da {
		t.Errorf("tag %q, digest equal to the untagged store's: %v", tt.Tag(), dt == da)
	}
	again := filepath.Join(dir, "again.store")
	if err := WriteStore(again, tt); err != nil {
		t.Fatal(err)
	}
	if x, y := mustRead(t, tp), mustRead(t, again); string(x) != string(y) {
		t.Error("writing an opened store again changed its bytes")
	}
}

func mustIdentity(t *Table) string { d, _ := t.StoreIdentity(); return d }

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOpenStoreVerified: a changed byte of the frame, a cut file and a file
// without a digest are refused by the verifying open; a changed payload byte
// opens (TestStoreFlipMatrix has its first read). The plain open neither reads
// payloads nor recomputes, so it accepts a payload flip and a store from
// before digests (without an identity).
func TestOpenStoreVerified(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStore(t, dir, "t.store", 2*BlockRows+41)
	good := mustRead(t, path)
	metaOff := int(binary.LittleEndian.Uint64(good[8:16]))
	variant := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flip := func(i int) []byte {
		out := append([]byte(nil), good...)
		out[i] ^= 0x10
		return out
	}
	refused := map[string][]byte{
		"empty":                 {},
		"cut in payload":        good[:metaOff/2],
		"cut in metadata":       good[:metaOff+(len(good)-metaOff)/2],
		"cut in digest":         good[:len(good)-5],
		"header flip":           flip(9),
		"last block table byte": flip(metaOff - 1),
		"metadata flip":         flip(metaOff + 20),
		"digest flip":           flip(len(good) - 10),
		"no digest":             append(append([]byte(nil), good[:len(good)-digestMemberLen]...), '}'),
		"trailing byte":         append(append([]byte(nil), good...), '\n'),
		"not a store at all":    []byte("AQPSTOR3 but short"),
	}
	for name, data := range refused {
		if tbl, closer, err := OpenStoreVerified(variant(name, data)); err == nil {
			closer.Close()
			t.Errorf("%s: verified open succeeded (%d rows)", name, tbl.NumRows())
		}
	}

	sc := readJSON(t, good).Columns[1]
	payloadFlip := variant("payload flip", flip(int(sc.DataOff+sc.DataLen/2)))
	if _, closer, err := OpenStoreVerified(payloadFlip); err != nil {
		t.Errorf("payload flip: verified open failed: %v", err)
	} else {
		closer.Close()
	}

	for _, name := range []string{"payload flip", "no digest"} {
		tbl, closer, err := OpenStore(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: plain open failed: %v", name, err)
			continue
		}
		if name == "no digest" && mustIdentity(tbl) != "" {
			t.Error("a store without a digest has a store identity")
		}
		if _, err := CheckColumn(tbl.Column(1)); err != nil {
			t.Errorf("%s: a column of the plain open has a check: %v", name, err)
		}
		closer.Close()
	}
}

// TestStoreDigestChunks: the store digest is the SHA-256 of the length and
// the chunks' SHA-256 sums, the same at any number of hashing goroutines. A
// column's listed sum is the store digest of its payload, and the file's
// digest that of its frame. A flipped byte in the first, a middle or the last
// chunk of a payload opens and is refused by the column's check; one in the
// block tables or the metadata is refused at open.
func TestStoreDigestChunks(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStore(t, dir, "t.store", 80*BlockRows+7)
	good := mustRead(t, path)
	meta := readJSON(t, good)
	lat := meta.Columns[0] // normal floats: raw blocks, 8 bytes a row
	payload := good[lat.DataOff : lat.DataOff+lat.DataLen]
	chunks := (len(payload) + digestChunk - 1) / digestChunk
	if chunks < 3 {
		t.Fatalf("payload of %d bytes spans %d digest chunks; the test needs a middle one", len(payload), chunks)
	}

	// The definition, written out serially over one contiguous stream.
	serial := func(stream []byte) []byte {
		want := binary.LittleEndian.AppendUint64(nil, uint64(len(stream)))
		for lo := 0; lo < len(stream); lo += digestChunk {
			sum := sha256.Sum256(stream[lo:min(lo+digestChunk, len(stream))])
			want = append(want, sum[:]...)
		}
		sum := sha256.Sum256(want)
		return sum[:]
	}
	ref := serial(payload)
	if lat.Sum != hex.EncodeToString(ref) {
		t.Fatalf("column %q lists sum %s, want %x", lat.Name, lat.Sum, ref)
	}
	metaOff := binary.LittleEndian.Uint64(good[8:16])
	tablesOff := binary.LittleEndian.Uint64(good[16:24])
	cut := len(good) - digestMemberLen
	frame := append(append(append([]byte(nil), good[:headerLen]...), good[tablesOff:cut]...), '}')
	if sum := serial(frame); string(good[cut:]) != digestMember(sum) {
		t.Fatalf("file ends in %s, want %s", good[cut:], digestMember(sum))
	}
	// Parts cut across chunk boundaries, at 1 to 8 goroutines.
	parts := [][]byte{payload[:7], payload[7 : digestChunk+1], {}, payload[digestChunk+1 : 2*digestChunk], payload[2*digestChunk:]}
	for _, workers := range []int{1, 2, 3, 8} {
		if got := storeDigest(parts, workers); string(got) != string(ref) {
			t.Errorf("%d goroutines: digest %x, want %x", workers, got, ref)
		}
	}

	last := meta.Columns[len(meta.Columns)-1]
	flips := map[string]uint64{
		"first chunk":  lat.DataOff + 100,
		"middle chunk": lat.DataOff + digestChunk + 3,
		"last chunk":   lat.DataOff + uint64(chunks-1)*digestChunk + 1,
		"block table":  last.TableOff + 20,
		"metadata":     metaOff + 20,
	}
	for name, at := range flips {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x01
		p := filepath.Join(dir, "flipped.store")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, closer, err := OpenStoreVerified(p)
		if at >= tablesOff {
			if err == nil {
				closer.Close()
				t.Errorf("%s (byte %d of %d): verified open succeeded (%d rows)", name, at, len(good), tbl.NumRows())
			} else if !strings.Contains(err.Error(), "digest mismatch") {
				t.Errorf("%s: error %q, want a digest mismatch", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: verified open of a payload flip failed: %v", name, err)
			continue
		}
		if _, err := CheckColumn(tbl.Column(0)); err == nil {
			t.Errorf("%s (byte %d of %d): the column's check passed", name, at, len(good))
		}
		closer.Close()
	}
}

// TestStoreFlipMatrix flips one byte at a time over the header, the start,
// middle and end of each payload, each block table and the metadata. A flip
// in the frame is refused at open; a flip in a payload opens, and is refused
// by the first read of that column and no other — through CheckColumn, and
// through the backstop of a block decode, which panics with the same error.
func TestStoreFlipMatrix(t *testing.T) {
	dir := t.TempDir()
	good := mustRead(t, writeTestStore(t, dir, "t.store", 3*BlockRows+17))
	meta := readJSON(t, good)
	metaOff := int(binary.LittleEndian.Uint64(good[8:16]))
	type flip struct {
		region string
		at     int
		column int // the column whose payload holds the byte; -1 for the frame
	}
	var flips []flip
	for at := 0; at < headerLen; at++ {
		flips = append(flips, flip{"header", at, -1})
	}
	for ci, sc := range meta.Columns {
		lo, n := int(sc.DataOff), int(sc.DataLen)
		for _, at := range []int{lo, lo + n/2, lo + n - 1} {
			flips = append(flips, flip{"payload of " + sc.Name, at, ci})
		}
		lo, n = int(sc.TableOff), int(sc.TableLen)
		for _, at := range []int{lo, lo + n/2, lo + n - 1} {
			flips = append(flips, flip{"block table of " + sc.Name, at, -1})
		}
	}
	for _, at := range []int{metaOff, (metaOff + len(good)) / 2, len(good) - 1} {
		flips = append(flips, flip{"metadata", at, -1})
	}
	p := filepath.Join(dir, "flipped.store")
	for _, f := range flips {
		bad := append([]byte(nil), good...)
		bad[f.at] ^= 0x01
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, closer, err := OpenStoreVerified(p)
		if f.column < 0 {
			if err == nil {
				closer.Close()
				t.Errorf("%s, byte %d: verified open succeeded", f.region, f.at)
			} else if !strings.Contains(err.Error(), "corrupt store") {
				t.Errorf("%s, byte %d: error %q does not say corrupt store", f.region, f.at, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s, byte %d: verified open failed: %v", f.region, f.at, err)
			continue
		}
		for ci := 0; ci < tbl.NumCols(); ci++ {
			var err error
			if ci%2 == 0 {
				_, err = CheckColumn(tbl.Column(ci))
			} else {
				err = decodeAll(tbl.Column(ci))
			}
			var corrupt *CorruptColumnError
			if ci == f.column && (!errors.As(err, &corrupt) || corrupt.Column != meta.Columns[ci].Name) {
				t.Errorf("%s, byte %d: reading the column gave %v, want its CorruptColumnError", f.region, f.at, err)
			}
			if ci != f.column && err != nil {
				t.Errorf("%s, byte %d: reading column %d gave %v", f.region, f.at, ci, err)
			}
		}
		closer.Close()
	}
}

// decodeAll reads every row of c, and returns the error a block decode's
// backstop panicked with.
func decodeAll(c Column) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				panic(r)
			}
		}
	}()
	switch r := c.(type) {
	case F64Reader:
		r.ReadF64(make([]float64, c.Len()), 0)
	case I64Reader:
		r.ReadI64(make([]int64, c.Len()), 0)
	case StrReader:
		r.ReadStr(make([]string, c.Len()), 0)
	}
	return nil
}

// TestColumnCheckedOnce: readers racing to be a column's first check hash
// its payload once between them — the hashed byte counts they report add up
// to the payload's length — and all see one outcome, which a decode after
// them sees too; a refused column stays refused. Run it under -race.
func TestColumnCheckedOnce(t *testing.T) {
	dir := t.TempDir()
	good := mustRead(t, writeTestStore(t, dir, "t.store", 40*BlockRows+3))
	meta := readJSON(t, good)
	for _, flipped := range []bool{false, true} {
		data := append([]byte(nil), good...)
		if flipped {
			data[meta.Columns[0].DataOff+9] ^= 0x01
		}
		p := filepath.Join(dir, "racing.store")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, closer, err := OpenStoreVerified(p)
		if err != nil {
			t.Fatal(err)
		}
		col := tbl.Column(0)
		const readers = 8
		hashed := make([]int64, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				hashed[r], errs[r] = CheckColumn(col)
				if errs[r] == nil && r%2 == 1 {
					errs[r] = decodeAll(col)
				}
			}(r)
		}
		wg.Wait()
		var total int64
		for r := range hashed {
			total += hashed[r]
			if (errs[r] != nil) != flipped {
				t.Errorf("flipped=%v: reader %d got %v", flipped, r, errs[r])
			}
		}
		if total != int64(meta.Columns[0].DataLen) {
			t.Errorf("flipped=%v: readers hashed %d bytes, want the payload's %d once",
				flipped, total, meta.Columns[0].DataLen)
		}
		if n, err := CheckColumn(col); n != 0 || (err != nil) != flipped {
			t.Errorf("flipped=%v: a later check hashed %d bytes, error %v", flipped, n, err)
		}
		if err := decodeAll(col); (err != nil) != flipped {
			t.Errorf("flipped=%v: a later decode gave %v", flipped, err)
		}
		closer.Close()
	}
}
