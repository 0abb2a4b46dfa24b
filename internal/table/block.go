package table

// Block-oriented column backings. A block column stores BlockRows-row blocks
// encoded with the per-block codecs in codec.go, plus per-block metadata:
// payload offsets, codec ids, and min/max zone envelopes captured during
// encoding (so zone maps on compressed tables cost no extra pass). The same
// column types back both the in-memory compressed backing (data on the Go
// heap) and the mmap/disk backing (data is a window into a read-only file
// mapping; see store.go) — decode never cares which.
//
// Exec reaches block columns through the F64Reader/I64Reader/StrReader
// interfaces and decodes per block into pooled scratch only after zone-map
// admission; see internal/exec/expr.go. Raw columns implement the same
// interfaces trivially, so every consumer has one generic slow path and the
// raw fast paths it already had.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Backing selects the physical representation used for stored tables.
type Backing int

const (
	// BackingRaw keeps columns as plain heap slices (the historical layout).
	BackingRaw Backing = iota
	// BackingCompressed re-encodes columns into per-block compressed form.
	BackingCompressed
)

func (b Backing) String() string {
	switch b {
	case BackingRaw:
		return "raw"
	case BackingCompressed:
		return "compressed"
	default:
		return fmt.Sprintf("Backing(%d)", int(b))
	}
}

// BlockRows is the row count per storage block. It deliberately equals
// ZoneBlockRows: one zone-map envelope governs exactly one decodable unit,
// so a skipped block avoids its decode entirely.
const BlockRows = ZoneBlockRows

func numBlocksFor(rows int) int { return (rows + BlockRows - 1) / BlockRows }

// decodedBlocksTotal counts block decodes process-wide; tests use it to
// assert streaming one-pass behavior (e.g. sample build decodes each block
// at most once per column).
var decodedBlocksTotal atomic.Int64

// DecodedBlocks returns the process-wide count of storage block decodes.
func DecodedBlocks() int64 { return decodedBlocksTotal.Load() }

// F64Reader is a float64 column readable in row ranges. Block columns
// implement it by decoding; raw columns by copying.
type F64Reader interface {
	Column
	// ReadF64 fills dst with the values of rows [off, off+len(dst)).
	ReadF64(dst []float64, off int)
}

// I64Reader is an int64 column readable in row ranges.
type I64Reader interface {
	Column
	// ReadI64 fills dst with the values of rows [off, off+len(dst)).
	ReadI64(dst []int64, off int)
}

// StrReader is a string column readable in row ranges.
type StrReader interface {
	Column
	// ReadStr fills dst with the values of rows [off, off+len(dst)).
	ReadStr(dst []string, off int)
}

// Raw column reader implementations: trivial copies, so the generic decode
// path works uniformly. Hot paths still type-switch to the raw slices first
// and never come through here.

// ReadF64 copies rows [off, off+len(dst)) into dst.
func (c Float64Col) ReadF64(dst []float64, off int) { copy(dst, c[off:]) }

// ReadI64 copies rows [off, off+len(dst)) into dst.
func (c Int64Col) ReadI64(dst []int64, off int) { copy(dst, c[off:]) }

// ReadF64 widens rows [off, off+len(dst)) into dst.
func (c Int64Col) ReadF64(dst []float64, off int) {
	for i := range dst {
		dst[i] = float64(c[off+i])
	}
}

// ReadStr copies rows [off, off+len(dst)) into dst.
func (c StringCol) ReadStr(dst []string, off int) { copy(dst, c[off:]) }

func (c Float64Col) lazy() bool { return false }
func (c Int64Col) lazy() bool   { return false }
func (c StringCol) lazy() bool  { return false }

func (c Float64Col) physBytes() int64 { return c.sizeBytes() }
func (c Int64Col) physBytes() int64   { return c.sizeBytes() }
func (c StringCol) physBytes() int64  { return c.sizeBytes() }

// --- float64 block column. ---

// F64BlockCol is a float64 column stored as per-block encoded payloads.
// data may point into a heap buffer or an mmap'd store file.
type F64BlockCol struct {
	data   []byte
	offs   []uint32 // len nb+1; block b payload is data[offs[b]:offs[b+1]]
	codecs []byte   // len nb
	mins   []float64
	maxs   []float64
	rows   int
	check  *payloadCheck // nil unless opened by OpenStoreVerified
}

// Len returns the number of rows.
func (c *F64BlockCol) Len() int { return c.rows }

// Type returns Float64.
func (c *F64BlockCol) Type() Type { return Float64 }

func (c *F64BlockCol) lazy() bool { return true }

func (c *F64BlockCol) sizeBytes() int64 { return int64(c.rows) * 8 }

func (c *F64BlockCol) physBytes() int64 {
	return int64(len(c.data)) + int64(len(c.offs))*4 + int64(len(c.codecs)) +
		int64(len(c.mins)+len(c.maxs))*8
}

func (c *F64BlockCol) blockLen(b int) int {
	if n := c.rows - b*BlockRows; n < BlockRows {
		return n
	}
	return BlockRows
}

func (c *F64BlockCol) decodeBlock(b int, dst []float64, iscratch []int64) {
	c.check.backstop(c.data)
	decodeF64Block(c.codecs[b], c.data[c.offs[b]:c.offs[b+1]], dst, iscratch)
	decodedBlocksTotal.Add(1)
}

// ReadF64 fills dst with rows [off, off+len(dst)), decoding each touched
// block once. Block-aligned full-block reads decode straight into dst.
func (c *F64BlockCol) ReadF64(dst []float64, off int) {
	var tmp []float64
	var ibuf [BlockRows]int64 // stack scratch: a read allocates nothing per call
	iscratch := ibuf[:]
	for len(dst) > 0 {
		b := off / BlockRows
		bStart := b * BlockRows
		bLen := c.blockLen(b)
		if off == bStart && len(dst) >= bLen {
			c.decodeBlock(b, dst[:bLen], iscratch)
			dst = dst[bLen:]
			off += bLen
			continue
		}
		if tmp == nil {
			tmp = make([]float64, BlockRows)
		}
		blk := tmp[:bLen]
		c.decodeBlock(b, blk, iscratch)
		k := copy(dst, blk[off-bStart:])
		dst = dst[k:]
		off += k
	}
}

// zoneEnvelope adopts the envelopes captured at encoding time; a column
// opened from a store that recorded none has none.
func (c *F64BlockCol) zoneEnvelope() (ColumnZones, bool) {
	return ColumnZones{Mins: c.mins, Maxs: c.maxs}, c.mins != nil
}

// --- int64 block column. ---

// I64BlockCol is an int64 column stored as per-block encoded payloads.
type I64BlockCol struct {
	data   []byte
	offs   []uint32
	codecs []byte
	mins   []float64
	maxs   []float64
	rows   int
	check  *payloadCheck
}

// Len returns the number of rows.
func (c *I64BlockCol) Len() int { return c.rows }

// Type returns Int64.
func (c *I64BlockCol) Type() Type { return Int64 }

func (c *I64BlockCol) lazy() bool { return true }

func (c *I64BlockCol) sizeBytes() int64 { return int64(c.rows) * 8 }

func (c *I64BlockCol) physBytes() int64 {
	return int64(len(c.data)) + int64(len(c.offs))*4 + int64(len(c.codecs)) +
		int64(len(c.mins)+len(c.maxs))*8
}

func (c *I64BlockCol) blockLen(b int) int {
	if n := c.rows - b*BlockRows; n < BlockRows {
		return n
	}
	return BlockRows
}

func (c *I64BlockCol) decodeBlock(b int, dst []int64) {
	c.check.backstop(c.data)
	decodeI64Block(c.codecs[b], c.data[c.offs[b]:c.offs[b+1]], dst)
	decodedBlocksTotal.Add(1)
}

// ReadI64 fills dst with rows [off, off+len(dst)), decoding each touched
// block once.
func (c *I64BlockCol) ReadI64(dst []int64, off int) {
	var tmp []int64
	for len(dst) > 0 {
		b := off / BlockRows
		bStart := b * BlockRows
		bLen := c.blockLen(b)
		if off == bStart && len(dst) >= bLen {
			c.decodeBlock(b, dst[:bLen])
			dst = dst[bLen:]
			off += bLen
			continue
		}
		if tmp == nil {
			tmp = make([]int64, BlockRows)
		}
		blk := tmp[:bLen]
		c.decodeBlock(b, blk)
		k := copy(dst, blk[off-bStart:])
		dst = dst[k:]
		off += k
	}
}

// ReadF64 widens rows [off, off+len(dst)) into dst, matching Int64Col.
func (c *I64BlockCol) ReadF64(dst []float64, off int) {
	// Widen through a stack buffer one block at a time, each chunk ending on
	// a block boundary so whole blocks decode straight into it.
	var buf [BlockRows]int64
	for len(dst) > 0 {
		k := BlockRows - off%BlockRows
		if k > len(dst) {
			k = len(dst)
		}
		c.ReadI64(buf[:k], off)
		for i, v := range buf[:k] {
			dst[i] = float64(v)
		}
		dst, off = dst[k:], off+k
	}
}

func (c *I64BlockCol) zoneEnvelope() (ColumnZones, bool) {
	return ColumnZones{Mins: c.mins, Maxs: c.maxs}, c.mins != nil
}

// --- string block column. ---

// strDictMax bounds the column-wide string dictionary; past this the column
// falls back to raw per-block payloads.
const strDictMax = 1 << 16

// StrBlockCol is a string column stored either as a column-wide dictionary
// with per-block bit-packed codes (dict != nil) or as raw per-block
// varint-length payloads.
type StrBlockCol struct {
	dict    []string
	widths  []byte // dict mode: per-block code bit width
	data    []byte
	offs    []uint32
	rows    int
	logical int64 // logical bytes as a raw StringCol would report
	check   *payloadCheck
}

// Len returns the number of rows.
func (c *StrBlockCol) Len() int { return c.rows }

// Type returns String.
func (c *StrBlockCol) Type() Type { return String }

func (c *StrBlockCol) lazy() bool { return true }

func (c *StrBlockCol) sizeBytes() int64 { return c.logical }

func (c *StrBlockCol) physBytes() int64 {
	n := int64(len(c.data)) + int64(len(c.offs))*4 + int64(len(c.widths))
	for _, s := range c.dict {
		n += int64(len(s)) + 16
	}
	return n
}

func (c *StrBlockCol) blockLen(b int) int {
	if n := c.rows - b*BlockRows; n < BlockRows {
		return n
	}
	return BlockRows
}

func (c *StrBlockCol) decodeBlock(b int, dst []string) {
	c.check.backstop(c.data)
	payload := c.data[c.offs[b]:c.offs[b+1]]
	if c.dict != nil {
		decodeDictBlock(c.dict, payload, uint(c.widths[b]), dst)
	} else {
		decodeRawStrBlock(payload, dst)
	}
	decodedBlocksTotal.Add(1)
}

// decodeDictBlock expands one dictionary-coded block in two passes: unpack
// the codes a 64-bit word at a time into a stack array (strDictMax is 2^16,
// so every code fits a uint16), then index the dictionary.
func decodeDictBlock(dict []string, payload []byte, width uint, dst []string) {
	var codes [BlockRows]uint16
	unpack(payload, width, codes[:len(dst)])
	for i, code := range codes[:len(dst)] {
		dst[i] = dict[code]
	}
}

// ReadStr fills dst with rows [off, off+len(dst)), decoding each touched
// block once.
func (c *StrBlockCol) ReadStr(dst []string, off int) {
	var tmp []string
	for len(dst) > 0 {
		b := off / BlockRows
		bStart := b * BlockRows
		bLen := c.blockLen(b)
		if off == bStart && len(dst) >= bLen {
			c.decodeBlock(b, dst[:bLen])
			dst = dst[bLen:]
			off += bLen
			continue
		}
		if tmp == nil {
			tmp = make([]string, BlockRows)
		}
		blk := tmp[:bLen]
		c.decodeBlock(b, blk)
		k := copy(dst, blk[off-bStart:])
		dst = dst[k:]
		off += k
	}
}

// --- shared small helpers. ---

func appendRawStrBlock(dst []byte, vals []string) []byte {
	for _, s := range vals {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

func decodeRawStrBlock(payload []byte, dst []string) {
	for i := range dst {
		n, sz := binary.Uvarint(payload)
		payload = payload[sz:]
		dst[i] = string(payload[:n])
		payload = payload[n:]
	}
}

// --- compression entry points. ---

// Compress re-encodes every column of t into block-compressed form and
// returns a new table with zone maps attached (the envelopes fall out of
// encoding for free). The input table is unchanged; already-compressed
// columns are reused as-is.
func Compress(t *Table) *Table {
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = compressColumn(c)
	}
	nt := &Table{schema: t.schema, cols: cols, rows: t.rows}
	nt.BuildZones()
	return nt
}

func compressColumn(c Column) Column {
	switch col := c.(type) {
	case Float64Col:
		return compressF64(col)
	case Int64Col:
		return compressI64(col)
	case StringCol:
		return compressStr(col)
	default:
		return c // already block-backed
	}
}

func compressF64(c Float64Col) *F64BlockCol {
	nb := numBlocksFor(len(c))
	e := f64BlockEnc{col: &F64BlockCol{
		offs:   make([]uint32, 1, nb+1),
		codecs: make([]byte, 0, nb),
		mins:   make([]float64, 0, nb),
		maxs:   make([]float64, 0, nb),
	}}
	for lo := 0; lo < len(c); lo += BlockRows {
		hi := min(lo+BlockRows, len(c))
		e.appendBlock(c[lo:hi], len(c)-hi)
	}
	return e.col
}

func compressI64(c Int64Col) *I64BlockCol {
	nb := numBlocksFor(len(c))
	e := i64BlockEnc{col: &I64BlockCol{
		offs:   make([]uint32, 1, nb+1),
		codecs: make([]byte, 0, nb),
		mins:   make([]float64, 0, nb),
		maxs:   make([]float64, 0, nb),
	}}
	for lo := 0; lo < len(c); lo += BlockRows {
		hi := min(lo+BlockRows, len(c))
		e.appendBlock(c[lo:hi], len(c)-hi)
	}
	return e.col
}

func compressStr(c StringCol) *StrBlockCol {
	enc := newStrBlockEnc()
	for lo := 0; lo < len(c); lo += BlockRows {
		hi := lo + BlockRows
		if hi > len(c) {
			hi = len(c)
		}
		enc.appendBlock(c[lo:hi])
	}
	return enc.finish()
}

// strBlockEnc incrementally encodes a string column block by block for
// Compress. It starts in dictionary mode and rewrites itself to raw payloads
// if the distinct count exceeds strDictMax (the dictionary still decodes the
// already-written blocks).
type strBlockEnc struct {
	dict    []string
	index   map[string]uint32
	raw     bool
	data    []byte
	offs    []uint32
	widths  []byte
	rows    int
	logical int64
	codes   []uint32 // scratch
}

func newStrBlockEnc() *strBlockEnc {
	return &strBlockEnc{index: map[string]uint32{}, offs: []uint32{0}}
}

func (e *strBlockEnc) appendBlock(vals []string) {
	for _, s := range vals {
		e.logical += int64(len(s)) + 16
	}
	e.rows += len(vals)
	if !e.raw {
		e.codes = e.codes[:0]
		maxCode := uint32(0)
		for _, s := range vals {
			code, ok := e.index[s]
			if !ok {
				code = uint32(len(e.dict))
				e.index[s] = code
				e.dict = append(e.dict, s)
			}
			if code > maxCode {
				maxCode = code
			}
			e.codes = append(e.codes, code)
		}
		if len(e.dict) <= strDictMax {
			width := uint(0)
			for maxCode>>width != 0 {
				width++
			}
			e.data = packCodes(e.data, e.codes, width)
			e.widths = append(e.widths, byte(width))
			e.offs = append(e.offs, uint32(len(e.data)))
			return
		}
		e.switchToRaw(vals)
		return
	}
	e.data = appendRawStrBlock(e.data, vals)
	e.offs = append(e.offs, uint32(len(e.data)))
}

// switchToRaw re-encodes every already-written dictionary block as a raw
// payload (decoding through the still-complete dictionary), then appends
// the current block raw. One-time cost, paid only by high-cardinality
// columns that looked dictionary-friendly at first.
func (e *strBlockEnc) switchToRaw(cur []string) {
	old := &StrBlockCol{dict: e.dict, widths: e.widths, data: e.data, offs: e.offs,
		rows: e.rows - len(cur)}
	var data []byte
	offs := []uint32{0}
	buf := make([]string, BlockRows)
	for b := 0; b+1 < len(e.offs); b++ {
		blk := buf[:old.blockLen(b)]
		decodeDictBlock(old.dict, old.data[old.offs[b]:old.offs[b+1]], uint(old.widths[b]), blk)
		data = appendRawStrBlock(data, blk)
		offs = append(offs, uint32(len(data)))
	}
	data = appendRawStrBlock(data, cur)
	offs = append(offs, uint32(len(data)))
	e.raw = true
	e.dict, e.index, e.widths = nil, nil, nil
	e.data, e.offs = data, offs
}

func (e *strBlockEnc) finish() *StrBlockCol {
	return &StrBlockCol{dict: e.dict, widths: e.widths, data: e.data,
		offs: e.offs, rows: e.rows, logical: e.logical}
}

// reserveRaw grows data, in one step, to hold rest more raw 8-byte values.
// A block falls back to the raw codec when its values are high-entropy, and
// then the rest of the column almost always does too — reserving their exact
// size once replaces regrowing the column by doubling, which allocates about
// three times the column's final size along the way.
func reserveRaw(data []byte, rest int) []byte {
	if cap(data)-len(data) >= 8*rest {
		return data
	}
	return append(make([]byte, 0, len(data)+8*rest), data...)
}

// f64BlockEnc encodes a float64 column block by block for Compress.
type f64BlockEnc struct {
	col     *F64BlockCol
	scratch encScratch
}

// appendBlock encodes vals (non-empty, at most BlockRows) as the column's
// next block and records its codec, payload offset and min/max envelope.
// rest is the number of rows that follow.
func (e *f64BlockEnc) appendBlock(vals []float64, rest int) {
	c := e.col
	codec, data := e.scratch.encodeF64Block(c.data, vals)
	if codec == codecRawF64 {
		data = reserveRaw(data, rest)
	}
	c.data = data
	c.codecs = append(c.codecs, codec)
	c.offs = append(c.offs, uint32(len(data)))
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	c.mins = append(c.mins, mn)
	c.maxs = append(c.maxs, mx)
	c.rows += len(vals)
}

// i64BlockEnc is f64BlockEnc's int64 counterpart.
type i64BlockEnc struct {
	col     *I64BlockCol
	scratch encScratch
}

func (e *i64BlockEnc) appendBlock(vals []int64, rest int) {
	c := e.col
	codec, data := e.scratch.encodeI64Block(c.data, vals)
	if codec == codecRawI64 {
		data = reserveRaw(data, rest)
	}
	c.data = data
	c.codecs = append(c.codecs, codec)
	c.offs = append(c.offs, uint32(len(data)))
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	c.mins = append(c.mins, float64(mn))
	c.maxs = append(c.maxs, float64(mx))
	c.rows += len(vals)
}

// BlockBase returns c when it is a block column, and nil for a raw one.
// A block column's identity is stable across queries — a registered table
// or sample holds one block column per field for its lifetime — so it
// serves as the cache key for decoded blocks: block b covers rows
// [b*BlockRows, (b+1)*BlockRows). Raw columns are already decoded, so
// caching them would only duplicate memory.
func BlockBase(c Column) Column {
	switch c.(type) {
	case *F64BlockCol, *I64BlockCol, *StrBlockCol:
		return c
	}
	return nil
}

// CacheableBlock reports whether block b of a block column returned by
// BlockBase is worth keeping decoded across queries: whether its codec
// transforms values. Int-coded and XOR float blocks, frame-of-reference,
// run-length and dictionary int blocks, and raw-payload string blocks are.
// Raw and constant blocks are not, because their decode is a copy out of
// storage, and neither are dictionary-coded string blocks, whose decode is
// one dictionary index per row: a cached copy costs memory (for strings,
// 8-16x the encoded codes) and saves little or no work.
func CacheableBlock(base Column, b int) bool {
	switch c := base.(type) {
	case *F64BlockCol:
		return c.codecs[b] == codecIntF64 || c.codecs[b] == codecXorF64
	case *I64BlockCol:
		return c.codecs[b] != codecRawI64 && c.codecs[b] != codecConstI64
	case *StrBlockCol:
		return c.dict == nil
	}
	return false
}

// ensure interfaces are satisfied (compile-time checks).
var (
	_ F64Reader = Float64Col(nil)
	_ F64Reader = Int64Col(nil)
	_ I64Reader = Int64Col(nil)
	_ StrReader = StringCol(nil)
	_ F64Reader = (*F64BlockCol)(nil)
	_ I64Reader = (*I64BlockCol)(nil)
	_ F64Reader = (*I64BlockCol)(nil)
	_ StrReader = (*StrBlockCol)(nil)
)
