package table

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// TestOpenStoreVerified: any changed byte, a cut file, and a file without a
// digest are all refused by the verifying open; the plain open neither reads
// payloads nor recomputes, so it still accepts a payload flip and a store
// from before digests (without an identity).
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
		"empty":              {},
		"cut in payload":     good[:metaOff/2],
		"cut in metadata":    good[:metaOff+(len(good)-metaOff)/2],
		"cut in digest":      good[:len(good)-5],
		"header flip":        flip(9),
		"payload flip":       flip(metaOff / 2),
		"last payload byte":  flip(metaOff - 1),
		"metadata flip":      flip(metaOff + 20),
		"digest flip":        flip(len(good) - 10),
		"no digest":          append(append([]byte(nil), good[:len(good)-digestMemberLen]...), '}'),
		"trailing byte":      append(append([]byte(nil), good...), '\n'),
		"not a store at all": []byte("AQPSTOR2 but short"),
	}
	for name, data := range refused {
		if tbl, closer, err := OpenStoreVerified(variant(name, data)); err == nil {
			closer.Close()
			t.Errorf("%s: verified open succeeded (%d rows)", name, tbl.NumRows())
		}
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
		closer.Close()
	}
}

// TestStoreDigestChunks: the digest is the SHA-256 of the length and the
// chunks' SHA-256 sums, the same at any number of hashing goroutines, and
// OpenStoreVerified refuses a flipped byte in the first, a middle or the last
// chunk and in the block tables or the metadata, which the plain open, not
// reading payloads, does not see in the payloads.
func TestStoreDigestChunks(t *testing.T) {
	dir := t.TempDir()
	path := writeTestStore(t, dir, "t.store", 80*BlockRows+7)
	good := mustRead(t, path)
	chunks := (len(good) + digestChunk - 1) / digestChunk
	if chunks < 3 {
		t.Fatalf("store of %d bytes spans %d digest chunks; the test needs a middle one", len(good), chunks)
	}

	// The definition, written out serially over one contiguous stream.
	cut := len(good) - digestMemberLen
	stream := append(append([]byte(nil), good[:cut]...), '}')
	want := binary.LittleEndian.AppendUint64(nil, uint64(len(stream)))
	for lo := 0; lo < len(stream); lo += digestChunk {
		sum := sha256.Sum256(stream[lo:min(lo+digestChunk, len(stream))])
		want = append(want, sum[:]...)
	}
	ref := sha256.Sum256(want)
	if got := good[cut:]; string(got) != digestMember(ref[:]) {
		t.Fatalf("file ends in %s, want %s", got, digestMember(ref[:]))
	}
	// Parts cut across chunk boundaries, at 1 to 8 goroutines.
	parts := [][]byte{stream[:7], stream[7 : digestChunk+1], {}, stream[digestChunk+1 : 2*digestChunk], stream[2*digestChunk:]}
	for _, workers := range []int{1, 2, 3, 8} {
		if got := storeDigest(parts, workers); string(got) != string(ref[:]) {
			t.Errorf("%d goroutines: digest %x, want %x", workers, got, ref)
		}
	}

	metaOff := int(binary.LittleEndian.Uint64(good[8:16]))
	meta := readJSON(t, good)
	last := meta.Columns[len(meta.Columns)-1]
	flips := map[string]int{
		"first chunk":  100,
		"middle chunk": digestChunk + 3,
		"last chunk":   (chunks-1)*digestChunk + 1,
		"block table":  int(last.TableOff) + 20,
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
		if err == nil {
			closer.Close()
			t.Errorf("%s (byte %d of %d): verified open succeeded (%d rows)", name, at, len(good), tbl.NumRows())
		} else if !strings.Contains(err.Error(), "digest mismatch") {
			t.Errorf("%s: error %q, want a digest mismatch", name, err)
		}
		if at < int(meta.Columns[0].TableOff) {
			_, closer, err := OpenStore(p)
			if err != nil {
				t.Errorf("%s: plain open of a payload flip failed: %v", name, err)
				continue
			}
			closer.Close()
		}
	}
}
