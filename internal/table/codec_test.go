package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// adversarialI64 are the int64 block shapes the codecs must round-trip
// bit-exactly: constants, long runs, tiny dictionaries, dense ranges,
// all-distinct wide values, and the integer extremes.
func adversarialI64() map[string][]int64 {
	rng := rand.New(rand.NewSource(1))
	long := make([]int64, BlockRows)
	for i := range long {
		long[i] = int64(i / 100)
	}
	wide := make([]int64, BlockRows)
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	dict := make([]int64, BlockRows)
	vals := []int64{math.MinInt64, -1, 0, 7, math.MaxInt64}
	for i := range dict {
		dict[i] = vals[rng.Intn(len(vals))]
	}
	dense := make([]int64, BlockRows)
	for i := range dense {
		dense[i] = 1_000_000 + int64(i)
	}
	return map[string][]int64{
		"single":        {42},
		"constant":      {7, 7, 7, 7, 7, 7, 7},
		"constantMin":   {math.MinInt64, math.MinInt64, math.MinInt64},
		"extremes":      {math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1},
		"runs":          long,
		"wide":          wide,
		"sparseDict":    dict,
		"denseRange":    dense,
		"negativeRun":   {-5, -5, -5, -5, -4, -4, -4, -4, -3, -3, -3, -3},
		"alternating":   {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
		"fullRangePair": {math.MinInt64, math.MaxInt64},
	}
}

func TestI64CodecRoundTrip(t *testing.T) {
	for name, vals := range adversarialI64() {
		codec, buf := new(encScratch).encodeI64Block(nil, vals)
		got := make([]int64, len(vals))
		decodeI64Block(codec, buf, got)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%s (codec %d): value %d = %d, want %d",
					name, codec, i, got[i], vals[i])
			}
		}
		if len(buf) > 8*len(vals) {
			t.Errorf("%s: encoded %d bytes > raw %d", name, len(buf), 8*len(vals))
		}
	}
}

// adversarialF64 covers the float64 bit patterns that naive codecs corrupt:
// NaN (including non-default payloads), ±Inf, -0, subnormals, extreme
// exponents, integral values at the int64-exactness boundary.
func adversarialF64() map[string][]float64 {
	rng := rand.New(rand.NewSource(2))
	noise := make([]float64, BlockRows)
	for i := range noise {
		noise[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	smooth := make([]float64, BlockRows)
	for i := range smooth {
		smooth[i] = 20.5 + math.Sin(float64(i)/50)*0.25
	}
	ints := make([]float64, BlockRows)
	for i := range ints {
		ints[i] = float64(rng.Intn(10000))
	}
	nanPayload := math.Float64frombits(0x7ff8dead_beef0001)
	return map[string][]float64{
		"single":     {3.14},
		"constant":   {2.5, 2.5, 2.5, 2.5},
		"constNaN":   {math.NaN(), math.NaN(), math.NaN()},
		"specials":   {math.NaN(), nanPayload, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)},
		"negZeroRun": {math.Copysign(0, -1), math.Copysign(0, -1), 0, 0},
		"subnormals": {5e-324, -5e-324, math.SmallestNonzeroFloat64, 1e-310},
		"extremes":   {math.MaxFloat64, -math.MaxFloat64, 1e308, -1e-308},
		"intBoundary": {
			9.223372036854775e18, -9.223372036854775e18,
			9007199254740992, 9007199254740993, // 2^53, 2^53+1 (rounds to 2^53)
		},
		"integral": ints,
		"smooth":   smooth,
		"noise":    noise,
	}
}

func TestF64CodecRoundTrip(t *testing.T) {
	for name, vals := range adversarialF64() {
		codec, buf := new(encScratch).encodeF64Block(nil, vals)
		got := make([]float64, len(vals))
		decodeF64Block(codec, buf, got, nil)
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s (codec %d): value %d = %x, want %x",
					name, codec, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
		if len(buf) > 8*len(vals) {
			t.Errorf("%s: encoded %d bytes > raw %d", name, len(buf), 8*len(vals))
		}
	}
}

func TestIntegralF64(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want bool
	}{
		{0, true},
		{math.Copysign(0, -1), false}, // -0 would lose its sign bit
		{1.5, false},
		{float64(1 << 62), true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{9.3e18, false}, // beyond int64
		{-9.3e18, false},
	} {
		if got := integralF64(tc.v); got != tc.want {
			t.Errorf("integralF64(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestBitWriterReader(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	widths := make([]uint, 200)
	vals := make([]uint64, 200)
	for i := range widths {
		widths[i] = uint(rng.Intn(64) + 1)
		vals[i] = rng.Uint64() & ((uint64(1) << widths[i]) - 1)
		if widths[i] == 64 {
			vals[i] = rng.Uint64()
		}
	}
	var w bitWriter
	for i := range vals {
		w.writeBits(vals[i], widths[i])
	}
	r := bitReader{buf: w.finish()}
	for i := range vals {
		if got := r.readBits(widths[i]); got != vals[i] {
			t.Fatalf("bits %d (width %d) = %x, want %x", i, widths[i], got, vals[i])
		}
	}
}

func TestPackedCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, width := range []uint{0, 1, 3, 7, 8, 13, 16, 17} {
		codes := make([]uint32, 300)
		for i := range codes {
			if width > 0 {
				codes[i] = rng.Uint32() & ((1 << width) - 1)
			}
		}
		buf := packCodes(nil, codes, width)
		for i, want := range codes {
			if got := readPackedCode(buf, i, width); got != want {
				t.Fatalf("width %d code %d = %d, want %d", width, i, got, want)
			}
		}
	}
}

// readPackedCode extracts the idx-th width-bit code from a packed buffer,
// one code at a time: the reference unpack must match. width <= 32, so
// the value spans at most five bytes.
func readPackedCode(buf []byte, idx int, width uint) uint32 {
	if width == 0 {
		return 0
	}
	bitPos := uint64(idx) * uint64(width)
	byteOff := bitPos >> 3
	shift := uint(bitPos & 7)
	var v uint64
	for i := uint(0); i*8 < shift+width; i++ {
		if int(byteOff)+int(i) < len(buf) {
			v |= uint64(buf[byteOff+uint64(i)]) << (8 * i)
		}
	}
	return uint32((v >> shift) & ((1 << width) - 1))
}

// TestUnpackCodesMatchesReadPackedCode: the word-at-a-time unpack of a
// dictionary block equals the one-code-at-a-time reference for every width
// a string dictionary can use, on full blocks and short last blocks.
func TestUnpackCodesMatchesReadPackedCode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for width := uint(0); width <= 16; width++ {
		for _, n := range []int{BlockRows, BlockRows - 1, 317, 63, 9, 1} {
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = rng.Uint32() & (1<<width - 1)
			}
			buf := packCodes(nil, codes, width)
			got := make([]uint16, n)
			unpack(buf, width, got)
			for i := range codes {
				if want := readPackedCode(buf, i, width); uint32(got[i]) != want || want != codes[i] {
					t.Fatalf("width %d n %d code %d = %d, reference %d, packed %d",
						width, n, i, got[i], want, codes[i])
				}
			}
		}
	}
	// A truncated payload reads zeros past its end, like the reference.
	buf := packCodes(nil, []uint32{5, 6, 7, 8, 9, 10, 11, 12, 13}, 11)[:5]
	got := make([]uint16, 9)
	unpack(buf, 11, got)
	for i := range got {
		if want := readPackedCode(buf, i, 11); uint32(got[i]) != want {
			t.Fatalf("truncated code %d = %d, reference %d", i, got[i], want)
		}
	}
}

// oracleBitReader is the byte-at-a-time reader the codecs used before the
// word-at-a-time unpacker: it refills one byte per loop and splits reads
// wider than 32 bits in two. The differential tests below hold the new
// readers to its output bit for bit.
type oracleBitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

func (r *oracleBitReader) read32(nb uint) uint64 {
	for r.n < nb {
		if r.pos >= len(r.buf) {
			break
		}
		r.acc |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := r.acc & ((uint64(1) << nb) - 1)
	r.acc >>= nb
	if r.n >= nb {
		r.n -= nb
	} else {
		r.n = 0
	}
	return v
}

func (r *oracleBitReader) readBits(nb uint) uint64 {
	if nb > 32 {
		lo := r.read32(32)
		return lo | r.read32(nb-32)<<32
	}
	return r.read32(nb)
}

// TestUnpackMatchesOracle: for every width 0-64 and block lengths 1-1024,
// unpack into int64 (and, up to width 16, into uint16) equals the
// oracle reader's values, on payloads whose final word is short and on
// payloads cut short inside a value, where missing bits read as zero.
func TestUnpackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]uint64, BlockRows)
	got := make([]int64, BlockRows)
	got16 := make([]uint16, BlockRows)
	// Every length up to 130 meets each phase of values against word
	// boundaries; past that a stride of 7, and the full block.
	var lengths []int
	for n := 1; n < BlockRows; n += 1 + 6*min(n/130, 1) {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, BlockRows)
	for width := uint(0); width <= 64; width++ {
		var w bitWriter
		for i := range vals {
			vals[i] = rng.Uint64() & (uint64(1)<<width - 1)
			w.writeBits(vals[i], width)
		}
		full := w.finish()
		for _, n := range lengths {
			whole := (n*int(width) + 7) / 8
			for _, buf := range [][]byte{full[:whole], full[:whole/2]} {
				unpack(buf, width, got[:n])
				if width <= 16 {
					unpack(buf, width, got16[:n])
				}
				r := oracleBitReader{buf: buf}
				for i := 0; i < n; i++ {
					want := r.readBits(width)
					if len(buf) == whole && want != vals[i] {
						t.Fatalf("width %d n %d: oracle value %d = %#x, packed %#x", width, n, i, want, vals[i])
					}
					if uint64(got[i]) != want || (width <= 16 && uint64(got16[i]) != want) {
						t.Fatalf("width %d n %d (%d of %d bytes): value %d = %#x (uint16 %#x), oracle %#x",
							width, n, len(buf), whole, i, got[i], got16[i], want)
					}
				}
			}
		}
	}
}

// TestBitReaderMatchesOracle: mixed-width reads — the Gorilla decoder's 1-,
// 6- and up-to-64-bit fields — return the oracle reader's bits, through the
// end of the stream and past it.
func TestBitReaderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		r, o := bitReader{buf: buf}, oracleBitReader{buf: buf}
		for read := 0; read*8 < 8*len(buf)+128; {
			nb := uint(rng.Intn(65))
			if got, want := r.readBits(nb), o.readBits(nb); got != want {
				t.Fatalf("trial %d: read of %d bits = %#x, oracle %#x", trial, nb, got, want)
			}
			read += int(nb)
		}
	}
}

// TestDecodeMatchesOracle: the frame-of-reference, int dictionary,
// integral-float and XOR blocks decode to what the oracle reader's
// per-value loops decoded, on the adversarial blocks and random ones.
func TestDecodeMatchesOracle(t *testing.T) {
	oracleI64 := func(codec byte, payload []byte, dst []int64) {
		switch codec {
		case codecForI64:
			u, sz := binary.Uvarint(payload)
			r := oracleBitReader{buf: payload[sz+1:]}
			for i := range dst {
				dst[i] = unzigzag(u) + int64(r.readBits(uint(payload[sz])))
			}
		case codecDictI64:
			ndist, sz := binary.Uvarint(payload)
			payload = payload[sz:]
			dict := make([]int64, ndist)
			for i := range dict {
				u, sz := binary.Uvarint(payload)
				payload = payload[sz:]
				dict[i] = unzigzag(u)
			}
			r := oracleBitReader{buf: payload[1:]}
			for i := range dst {
				dst[i] = dict[r.readBits(uint(payload[0]))]
			}
		default:
			decodeI64Block(codec, payload, dst)
		}
	}
	oracleXor := func(payload []byte, dst []float64) {
		r := oracleBitReader{buf: payload}
		prev := r.readBits(64)
		dst[0] = math.Float64frombits(prev)
		var lead, sig, trail uint
		for i := 1; i < len(dst); i++ {
			if r.readBits(1) == 0 {
				dst[i] = math.Float64frombits(prev)
				continue
			}
			if r.readBits(1) == 1 {
				lead = uint(r.readBits(6))
				sig = uint(r.readBits(6)) + 1
				trail = 64 - lead - sig
			}
			prev ^= r.readBits(sig) << trail
			dst[i] = math.Float64frombits(prev)
		}
	}
	rng := rand.New(rand.NewSource(8))
	i64s := adversarialI64()
	for k := 0; k < 40; k++ {
		n := 1 + rng.Intn(BlockRows)
		vals := make([]int64, n)
		spread := int64(1) << uint(rng.Intn(63))
		for i := range vals {
			vals[i] = rng.Int63n(spread) - spread/2
			if k%3 == 0 {
				vals[i] = int64(rng.Intn(1+k)) * 1_000_003 // few distinct: dictionary
			}
		}
		i64s[fmt.Sprintf("random%d", k)] = vals
	}
	for name, vals := range i64s {
		codec, buf := new(encScratch).encodeI64Block(nil, vals)
		got, want := make([]int64, len(vals)), make([]int64, len(vals))
		decodeI64Block(codec, buf, got)
		oracleI64(codec, buf, want)
		for i := range vals {
			if got[i] != want[i] || got[i] != vals[i] {
				t.Fatalf("%s codec %d: value %d = %d, oracle %d, encoded %d", name, codec, i, got[i], want[i], vals[i])
			}
		}
	}
	f64s := adversarialF64()
	for k := 0; k < 40; k++ {
		n := 2 + rng.Intn(BlockRows-1)
		vals := make([]float64, n)
		x := rng.NormFloat64()
		for i := range vals {
			if rng.Intn(4) > 0 {
				x += float64(rng.Intn(64)) / 16 // steps that keep XOR windows short
			}
			vals[i] = x
		}
		f64s[fmt.Sprintf("walk%d", k)] = vals
	}
	for name, vals := range f64s {
		codec, buf := new(encScratch).encodeF64Block(nil, vals)
		got, want := make([]float64, len(vals)), make([]float64, len(vals))
		decodeF64Block(codec, buf, got, nil)
		switch codec {
		case codecXorF64:
			oracleXor(buf, want)
		case codecIntF64:
			ints := make([]int64, len(vals))
			oracleI64(buf[0], buf[1:], ints)
			for i, v := range ints {
				want[i] = float64(v)
			}
		default:
			decodeF64Block(codec, buf, want, nil)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s codec %d: value %d = %x, oracle %x, encoded %x", name, codec, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

// FuzzI64Codec round-trips arbitrary int64 blocks through the chooser.
func FuzzI64Codec(f *testing.F) {
	for _, vals := range adversarialI64() {
		f.Add(i64sToBytes(vals))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := bytesToI64s(raw)
		if len(vals) == 0 || len(vals) > BlockRows {
			return
		}
		codec, buf := new(encScratch).encodeI64Block(nil, vals)
		got := make([]int64, len(vals))
		decodeI64Block(codec, buf, got)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("codec %d: value %d = %d, want %d", codec, i, got[i], vals[i])
			}
		}
	})
}

// FuzzF64Codec round-trips arbitrary float64 bit patterns (NaN payloads
// included) through the chooser, comparing at the bit level.
func FuzzF64Codec(f *testing.F) {
	for _, vals := range adversarialF64() {
		f.Add(f64sToBytes(vals))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := bytesToF64s(raw)
		if len(vals) == 0 || len(vals) > BlockRows {
			return
		}
		codec, buf := new(encScratch).encodeF64Block(nil, vals)
		got := make([]float64, len(vals))
		decodeF64Block(codec, buf, got, nil)
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("codec %d: value %d = %x, want %x",
					codec, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	})
}

// FuzzStrBlock round-trips arbitrary string blocks through both dictionary
// and raw encodings.
func FuzzStrBlock(f *testing.F) {
	f.Add([]byte("a\x00b\x00a\x00c"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var vals []string
		for start, i := 0, 0; i <= len(raw); i++ {
			if i == len(raw) || raw[i] == 0 {
				vals = append(vals, string(raw[start:i]))
				start = i + 1
			}
			if len(vals) >= BlockRows {
				break
			}
		}
		if len(vals) == 0 {
			return
		}
		enc := newStrBlockEnc()
		enc.appendBlock(vals)
		col := enc.finish()
		got := make([]string, len(vals))
		col.ReadStr(got, 0)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("value %d = %q, want %q", i, got[i], vals[i])
			}
		}
	})
}

// FuzzStoreOpen puts arbitrary bytes over a small valid store image, and
// may cut it short, then opens it with and without digest verification. The
// image must open or be refused as a corrupt store. A verified open then
// checks every column and decodes each one its check passes; a column it
// refuses must say so with a CorruptColumnError. Nothing may panic.
func FuzzStoreOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.store")
	if err := WriteStore(path, blockTestTable(2*BlockRows+5)); err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	metaOff := uint32(binary.LittleEndian.Uint64(base[8:16]))
	whole := uint32(len(base))
	f.Add(uint32(0), []byte(storeMagicV1), whole)
	f.Add(uint32(8), []byte{0xff, 0xff, 0xff, 0xff}, whole)
	f.Add(metaOff-40, []byte{0xff, 0xff, 0xff, 0x7f}, whole) // a count in the last block table
	f.Add(metaOff+9, []byte("-1"), whole)                    // the row count
	outside := []byte(`{"rows":1,"columns":[{"data_off":24,"table_off":99999999,"table_len":16}]}`)
	f.Add(metaOff, outside, metaOff+uint32(len(outside)))
	f.Add(uint32(100), []byte{}, metaOff/2)
	f.Add(uint32(headerLen+5), []byte{0x5a}, whole) // a payload byte
	f.Fuzz(func(t *testing.T, at uint32, patch []byte, keep uint32) {
		img := append([]byte(nil), base[:min(keep, whole)]...)
		if len(img) > 0 {
			copy(img[int(at)%len(img):], patch)
		}
		for _, verify := range []bool{false, true} {
			tbl, err := storeFromBytes(img, verify)
			if err != nil {
				if !strings.Contains(err.Error(), "corrupt store") {
					t.Fatalf("verify=%v: error %q does not say corrupt store", verify, err)
				}
				continue
			}
			for i := 0; verify && i < tbl.NumCols(); i++ {
				var corrupt *CorruptColumnError
				if _, err := CheckColumn(tbl.Column(i)); err != nil {
					if !errors.As(err, &corrupt) {
						t.Fatalf("column %d: check error %v is not a CorruptColumnError", i, err)
					}
					continue
				}
				if err := decodeAll(tbl.Column(i)); err != nil {
					t.Fatalf("column %d: decode after a passed check: %v", i, err)
				}
			}
		}
	})
}

func i64sToBytes(vals []int64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func bytesToI64s(raw []byte) []int64 {
	out := make([]int64, 0, len(raw)/8)
	for i := 0; i+8 <= len(raw); i += 8 {
		out = append(out, int64(binary.LittleEndian.Uint64(raw[i:])))
	}
	return out
}

func f64sToBytes(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func bytesToF64s(raw []byte) []float64 {
	out := make([]float64, 0, len(raw)/8)
	for i := 0; i+8 <= len(raw); i += 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
	}
	return out
}

// BenchmarkXorBlockDecode decodes a full block of the Gorilla XOR codec: a
// random walk in sixteenths that holds still a quarter of the time, so the
// stream mixes 1-bit repeats, reused windows and new 6+6-bit window headers.
func BenchmarkXorBlockDecode(b *testing.B) {
	src := rand.New(rand.NewSource(9))
	vals := make([]float64, BlockRows)
	x := src.NormFloat64()
	for i := range vals {
		if src.Intn(4) > 0 {
			x += float64(src.Intn(64)) / 16
		}
		vals[i] = x
	}
	codec, buf := new(encScratch).encodeF64Block(nil, vals)
	if codec != codecXorF64 {
		b.Fatalf("codec %d, want the XOR codec", codec)
	}
	dst := make([]float64, BlockRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeF64Block(codec, buf, dst, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e3, "us/block")
}
