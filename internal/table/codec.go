package table

// Lightweight per-block codecs for the compressed and mmap column backings.
// Every codec is bit-exact: decode(encode(x)) reproduces the original values
// down to the float64 bit pattern (NaN payloads, -0, subnormals), which is
// what lets the engine promise bit-identical answers and confidence
// intervals across storage backings (pinned by the codec fuzz tests).
//
// Codec selection is per block (BlockRows values): a single stats pass —
// min/max, run count, capped distinct count, integrality, a sampled XOR
// profile — gates which candidate encodings are even attempted, the
// candidates are encoded for real, and the smallest wins. Raw is always the
// fallback, so a block never grows past its uncompressed size plus the
// fixed per-block metadata.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Codec identifiers, stored one byte per block. Float and int codecs live
// in disjoint ranges so a corrupt store cannot silently decode a float
// block with an int codec.
const (
	codecRawF64   byte = 0 // 8 bytes/value, little-endian float64 bits
	codecConstF64 byte = 1 // one 8-byte bit pattern for the whole block
	codecXorF64   byte = 2 // Gorilla-style XOR-with-previous bit packing
	codecIntF64   byte = 3 // integral floats re-encoded with an int codec

	codecRawI64   byte = 16 // 8 bytes/value, little-endian
	codecConstI64 byte = 17 // one zigzag-varint value
	codecForI64   byte = 18 // frame-of-reference bit packing: min + deltas
	codecRleI64   byte = 19 // (zigzag-varint value, varint run) pairs
	codecDictI64  byte = 20 // distinct values + bit-packed indexes
)

// --- Bit-level I/O (LSB-first within the byte stream). ---

type bitWriter struct {
	buf []byte
	acc uint64
	n   uint // bits occupied in acc
}

// writeBits appends the low nb bits of v (nb <= 64).
func (w *bitWriter) writeBits(v uint64, nb uint) {
	if nb == 0 {
		return
	}
	if nb < 64 {
		v &= (uint64(1) << nb) - 1
	}
	w.acc |= v << w.n
	if w.n+nb >= 64 {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], w.acc)
		w.buf = append(w.buf, tmp[:]...)
		// Go defines shifts >= 64 as zero, so w.n == 0 leaves acc empty.
		w.acc = v >> (64 - w.n)
		w.n = w.n + nb - 64
	} else {
		w.n += nb
	}
}

// finish flushes the partial tail word and returns the byte stream.
func (w *bitWriter) finish() []byte {
	for w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		if w.n >= 8 {
			w.n -= 8
		} else {
			w.n = 0
		}
	}
	return w.buf
}

// bitReader reads the bitWriter's stream a 64-bit little-endian word per
// load. Bits past the end of buf read as zero: only a well-formed stream's
// final padding lies there.
type bitReader struct {
	buf []byte
	acc uint64 // the next n unread bits, LSB first; the bits above n are zero
	n   uint
}

// readBits returns the next nb bits (nb <= 64), composed LSB-first.
func (r *bitReader) readBits(nb uint) uint64 {
	if nb <= r.n {
		var v uint64
		v, r.acc, r.n = splitBits(r.acc, r.n, nb)
		return v
	}
	// The value's low n bits are in acc; the rest start the next word.
	w, got := loadWord(&r.buf)
	v := (r.acc | w<<r.n) & (uint64(1)<<nb - 1) // all ones at nb == 64: the shift gives 0
	used := nb - r.n
	r.acc = w >> used
	r.n = got - min(used, got)
	return v
}

// splitBits splits the low nb bits (nb <= n) off acc, a word of n unread
// bits: it returns them, then the word and count that remain. It is
// readBits' path within the loaded word, kept small enough to inline so
// that decodeXorF64 can run it on a word held in registers.
func splitBits(acc uint64, n, nb uint) (v, rest uint64, left uint) {
	return acc & (uint64(1)<<nb - 1), acc >> nb, n - nb
}

// loadWord takes the next little-endian word off *buf, zero-filled past its
// end, and returns it with the number of bits it got from buf (64 unless
// buf ran out).
func loadWord(buf *[]byte) (uint64, uint) {
	b := *buf
	if len(b) >= 8 {
		*buf = b[8:]
		return binary.LittleEndian.Uint64(b), 64
	}
	var w uint64
	for j, c := range b {
		w |= uint64(c) << (8 * j)
	}
	*buf = nil
	return w, uint(8 * len(b))
}

// unpack decodes len(dst) width-bit values (width <= 64) packed LSB-first
// by bitWriter, reading the payload a 64-bit word at a time. It is the one
// bit-unpacker of the codecs: frame-of-reference deltas, int dictionary
// indexes (and so integral-float payloads) and string dictionary codes.
// Bits past the end of buf read as zero.
func unpack[T uint16 | int64](buf []byte, width uint, dst []T) {
	if width == 0 {
		clear(dst)
		return
	}
	mask := uint64(1)<<width - 1
	var acc uint64 // the next n unread bits, LSB first
	var n uint
	for i := range dst {
		if n >= width {
			dst[i] = T(acc & mask)
			acc >>= width
			n -= width
			continue
		}
		// Refill: the value's low n bits are in acc, the rest start the next word.
		w, got := loadWord(&buf)
		dst[i] = T((acc | w<<n) & mask)
		used := width - n
		acc = w >> used
		n = got - min(used, got)
	}
}

// --- Varint / zigzag helpers. ---

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// --- int64 block codecs. ---

// encScratch holds the working buffers of the per-block codec choosers —
// the distinct-value table, the candidate encodings, the integral-float
// re-encode — so the blocks of one column reuse them instead of allocating
// afresh per block. The zero value is ready to use; it is not safe for
// concurrent use, and nothing it holds outlives the call that filled it
// (winning candidates are copied into the caller's dst).
type encScratch struct {
	seen  map[int64]uint64 // distinct block values → first-appearance code
	dict  []int64          // the same values in code order
	cand  []byte           // the candidate being tried
	best  []byte           // the smallest candidate so far
	ints  []int64          // integral floats as int64
	inner []byte           // their int64 encoding
}

// i64Stats is the one-pass profile the chooser gates candidates on.
type i64Stats struct {
	min, max int64
	runs     int // count of value-change boundaries + 1
	distinct int // capped at dictMaxDistinct+1
}

// dictMaxDistinct bounds the dictionary codec: past 256 distinct values per
// 1024-row block the index width approaches the FOR width anyway.
const dictMaxDistinct = 256

// statsI64 profiles vals and leaves their first dictMaxDistinct+1 distinct
// values in e.seen/e.dict, coded by first appearance — exactly the
// dictionary the dictionary codec writes when distinct <= dictMaxDistinct.
func (e *encScratch) statsI64(vals []int64) i64Stats {
	s := i64Stats{min: vals[0], max: vals[0], runs: 1}
	if e.seen == nil {
		e.seen = make(map[int64]uint64, dictMaxDistinct+1)
	}
	clear(e.seen)
	e.dict = e.dict[:0]
	for i, v := range vals {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
		if i > 0 && v != vals[i-1] {
			s.runs++
		}
		if len(e.dict) <= dictMaxDistinct {
			if _, ok := e.seen[v]; !ok {
				e.seen[v] = uint64(len(e.dict))
				e.dict = append(e.dict, v)
			}
		}
	}
	s.distinct = len(e.dict)
	return s
}

// keepSmaller makes the candidate just built in e.cand the best so far when
// it beats both the raw size and the current best.
func (e *encScratch) keepSmaller(codec byte, best *byte, rawSize int) {
	if len(e.cand) < rawSize && (*best == codecRawI64 || len(e.cand) < len(e.best)) {
		*best = codec
		e.cand, e.best = e.best, e.cand
	}
}

// encodeI64Block picks a codec for vals and appends the encoded payload to
// dst, returning the codec id and the grown buffer. vals must be non-empty.
func (e *encScratch) encodeI64Block(dst []byte, vals []int64) (byte, []byte) {
	s := e.statsI64(vals)
	if s.min == s.max {
		return codecConstI64, appendUvarint(dst, zigzag(vals[0]))
	}
	rawSize := 8 * len(vals)
	best := codecRawI64

	// Frame-of-reference: always a candidate — cheap and usually competitive.
	// Delta arithmetic is two's-complement, so min == MinInt64 wraps safely.
	if width := uint(bits.Len64(uint64(s.max - s.min))); width < 64 {
		buf := appendUvarint(e.cand[:0], zigzag(s.min))
		buf = append(buf, byte(width))
		w := bitWriter{buf: buf}
		for _, v := range vals {
			w.writeBits(uint64(v-s.min), width)
		}
		e.cand = w.finish()
		e.keepSmaller(codecForI64, &best, rawSize)
	}

	// Run-length: only worth encoding when runs are long on average.
	if s.runs*4 <= len(vals) {
		buf := appendUvarint(e.cand[:0], uint64(s.runs))
		start := 0
		for i := 1; i <= len(vals); i++ {
			if i == len(vals) || vals[i] != vals[start] {
				buf = appendUvarint(buf, zigzag(vals[start]))
				buf = appendUvarint(buf, uint64(i-start))
				start = i
			}
		}
		e.cand = buf
		e.keepSmaller(codecRleI64, &best, rawSize)
	}

	// Dictionary: few distinct but wide-ranging values (sparse IDs).
	if s.distinct <= dictMaxDistinct {
		width := uint(bits.Len64(uint64(len(e.dict) - 1)))
		buf := appendUvarint(e.cand[:0], uint64(len(e.dict)))
		for _, v := range e.dict {
			buf = appendUvarint(buf, zigzag(v))
		}
		buf = append(buf, byte(width))
		w := bitWriter{buf: buf}
		for _, v := range vals {
			w.writeBits(e.seen[v], width)
		}
		e.cand = w.finish()
		e.keepSmaller(codecDictI64, &best, rawSize)
	}

	if best == codecRawI64 {
		n := len(dst)
		dst = append(dst, make([]byte, rawSize)...)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dst[n+8*i:], uint64(v))
		}
		return codecRawI64, dst
	}
	return best, append(dst, e.best...)
}

// decodeI64Block decodes n values of the given codec from payload into
// dst[:n]. payload must be exactly the block's encoded bytes.
func decodeI64Block(codec byte, payload []byte, dst []int64) {
	n := len(dst)
	switch codec {
	case codecRawI64:
		for i := 0; i < n; i++ {
			dst[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case codecConstI64:
		u, _ := binary.Uvarint(payload)
		v := unzigzag(u)
		for i := range dst {
			dst[i] = v
		}
	case codecForI64:
		u, sz := binary.Uvarint(payload)
		min := unzigzag(u)
		unpack(payload[sz+1:], uint(payload[sz]), dst)
		for i := range dst {
			dst[i] += min // two's-complement: the encoder's v-min wraps back
		}
	case codecRleI64:
		runs, sz := binary.Uvarint(payload)
		payload = payload[sz:]
		i := 0
		for run := uint64(0); run < runs; run++ {
			u, sz := binary.Uvarint(payload)
			payload = payload[sz:]
			v := unzigzag(u)
			cnt, sz := binary.Uvarint(payload)
			payload = payload[sz:]
			for j := uint64(0); j < cnt && i < n; j++ {
				dst[i] = v
				i++
			}
		}
	case codecDictI64:
		ndist, sz := binary.Uvarint(payload)
		payload = payload[sz:]
		var stack [dictMaxDistinct]int64
		dict := stack[:0]
		if ndist > dictMaxDistinct {
			dict = make([]int64, 0, ndist)
		}
		for range ndist {
			u, sz := binary.Uvarint(payload)
			payload = payload[sz:]
			dict = append(dict, unzigzag(u))
		}
		// The indexes unpack into dst, then each is replaced by its value.
		unpack(payload[1:], uint(payload[0]), dst)
		for i, code := range dst {
			dst[i] = dict[code]
		}
	default:
		panic("table: unknown int64 block codec")
	}
}

// --- float64 block codecs. ---

// integralF64 reports whether v survives a float64 → int64 → float64 round
// trip bit-exactly: finite, integer-valued, in int64 range, and not -0
// (whose sign bit the round trip would erase).
func integralF64(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	if v == 0 {
		return !math.Signbit(v)
	}
	// Integral float64 values with |v| < 2^63 convert exactly both ways.
	return v == math.Trunc(v) && v >= -9.223372036854775e18 && v <= 9.223372036854775e18
}

// encodeF64Block picks a codec for vals and appends the payload to dst.
// vals must be non-empty.
func (e *encScratch) encodeF64Block(dst []byte, vals []float64) (byte, []byte) {
	first := math.Float64bits(vals[0])
	allConst, allInt := true, true
	for _, v := range vals {
		if math.Float64bits(v) != first {
			allConst = false
		}
		if allInt && !integralF64(v) {
			allInt = false
		}
		if !allConst && !allInt {
			break
		}
	}
	if allConst {
		return codecConstF64, binary.LittleEndian.AppendUint64(dst, first)
	}
	rawSize := 8 * len(vals)

	// Integral floats (counts, IDs, cents) re-encode through the int64
	// chooser, which typically beats any float scheme by a wide margin.
	if allInt {
		if cap(e.ints) < len(vals) {
			e.ints = make([]int64, len(vals))
		}
		ints := e.ints[:len(vals)]
		for i, v := range vals {
			ints[i] = int64(v)
		}
		var codec byte
		codec, e.inner = e.encodeI64Block(e.inner[:0], ints)
		if len(e.inner)+1 < rawSize {
			dst = append(dst, codec)
			return codecIntF64, append(dst, e.inner...)
		}
	}

	// XOR packing: profile a sample of adjacent pairs first — high-entropy
	// mantissas (uniform noise) make XOR a guaranteed loss, and the sample
	// spots that without paying for a full encode.
	if xorProfitable(vals) {
		e.cand = encodeXorF64(e.cand[:0], vals)
		if len(e.cand) < rawSize {
			return codecXorF64, append(dst, e.cand...)
		}
	}

	n := len(dst)
	dst = append(dst, make([]byte, rawSize)...)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[n+8*i:], math.Float64bits(v))
	}
	return codecRawF64, dst
}

// xorProfitable estimates the XOR codec's bits/value on up to 128 sampled
// adjacent pairs and accepts when the estimate beats raw by ~15%.
func xorProfitable(vals []float64) bool {
	pairs := len(vals) - 1
	if pairs <= 0 {
		return false
	}
	stride := 1
	if pairs > 128 {
		stride = pairs / 128
	}
	bitsTotal, n := 0, 0
	for i := stride; i < len(vals); i += stride {
		xor := math.Float64bits(vals[i-1]) ^ math.Float64bits(vals[i])
		if xor == 0 {
			bitsTotal++
		} else {
			sig := 64 - bits.LeadingZeros64(xor) - bits.TrailingZeros64(xor)
			bitsTotal += 14 + sig // control + window header + significant bits
		}
		n++
	}
	return float64(bitsTotal)/float64(n) < 54 // ~0.85 * 64
}

// encodeXorF64 is Gorilla-style XOR compression: each value XORs with its
// predecessor; a zero XOR costs one bit, a nonzero XOR reuses the previous
// (leading, significant) window when it still fits, or opens a new one.
func encodeXorF64(dst []byte, vals []float64) []byte {
	w := bitWriter{buf: dst}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	var prevLead, prevSig, prevTrail uint
	haveWindow := false
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		xor := prev ^ cur
		prev = cur
		if xor == 0 {
			w.writeBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(xor))
		if lead > 63 {
			lead = 63
		}
		trail := uint(bits.TrailingZeros64(xor))
		if haveWindow && lead >= prevLead && trail >= prevTrail {
			w.writeBits(0b01, 2) // '1' then '0': reuse window
			w.writeBits(xor>>prevTrail, prevSig)
			continue
		}
		sig := 64 - lead - trail
		w.writeBits(0b11, 2) // '1' then '1': new window
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig, prevTrail = lead, sig, trail
		haveWindow = true
	}
	return w.finish()
}

// decodeF64Block decodes n values of the given codec from payload into
// dst[:n]. scratch supplies an int64 buffer for codecIntF64 (nil allocates).
func decodeF64Block(codec byte, payload []byte, dst []float64, scratch []int64) {
	n := len(dst)
	switch codec {
	case codecRawF64:
		for i := 0; i < n; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case codecConstF64:
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		for i := range dst {
			dst[i] = v
		}
	case codecIntF64:
		if cap(scratch) < n {
			scratch = make([]int64, n)
		}
		ints := scratch[:n]
		decodeI64Block(payload[0], payload[1:], ints)
		for i, v := range ints {
			dst[i] = float64(v)
		}
	case codecXorF64:
		decodeXorF64(payload, dst)
	default:
		panic("table: unknown float64 block codec")
	}
}

// decodeXorF64 decodes encodeXorF64's stream into dst. Its reads are
// bitReader.readBits on local copies of the reader's word and bit count,
// so a field the word holds is splitBits in registers; only a read that
// crosses into the next word hands the copies back to readBits.
func decodeXorF64(payload []byte, dst []float64) {
	r := bitReader{buf: payload}
	prev := r.readBits(64)
	dst[0] = math.Float64frombits(prev)
	acc, n := r.acc, r.n
	read := func(nb uint) (v uint64) {
		if nb <= n {
			v, acc, n = splitBits(acc, n, nb)
			return v
		}
		r.acc, r.n = acc, n
		v = r.readBits(nb)
		acc, n = r.acc, r.n
		return v
	}
	var sig, trail uint
	for i := 1; i < len(dst); i++ {
		if read(1) == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if read(1) == 1 {
			h := uint(read(12)) // a new window: 6 bits of lead, then 6 of sig-1
			sig = h>>6 + 1
			trail = 64 - h&63 - sig
		}
		prev ^= read(sig) << trail
		dst[i] = math.Float64frombits(prev)
	}
}

// --- Packed string codes (dictionary columns). ---

// packCodes bit-packs codes at the given width, byte-aligned per call so a
// block's codes can be addressed independently.
func packCodes(dst []byte, codes []uint32, width uint) []byte {
	w := bitWriter{buf: dst}
	for _, c := range codes {
		w.writeBits(uint64(c), width)
	}
	return w.finish()
}
