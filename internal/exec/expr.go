// Package exec physically executes logical plans over columnar tables: it
// evaluates filter predicates and projection expressions vectorized over
// column slices, runs scans in parallel over row ranges of a table, applies
// Poissonized resampling weights, computes plain and weighted aggregates,
// and drives the bootstrap and diagnostic operators. It also meters the
// work performed (scans, rows, decoded blocks, weight draws, subqueries).
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/sql"
	"repro/internal/table"
)

// Scratch pooling: predicate evaluation allocates a handful of transient
// vectors (gathered columns, arithmetic intermediates, boolean masks) per
// partition per query, which at serving rates dominates the allocator. A
// scratch tracks every pooled slice handed out during one evaluation so
// the caller can return them all at once. Three callers use one: predicate
// evaluation and key reading, whose intermediates are dead once the block's
// survivors and their group ids are appended, the sample scan, which
// copies a block's input values into the columns it owns, and the exact
// operator, which folds them into its sinks, before releasing them.
// A nil scratch degrades every get to a plain make; the exact operator's
// zero-row type check passes one.
//
// The sample scan's selection vectors and group ids outlive a block: each
// partition takes one of each from i32Pool for phase 1, and
// scanFilterProject returns them once phase 2 has read them. Appends grow
// them to the partition's survivors, so a pooled slice comes back the size
// the scans it served needed, and no selectivity is guessed.
//
// The pools hold *[]T rather than []T so Put doesn't allocate (staticcheck
// SA6002).
var (
	f64Pool  = newPool[float64]()
	boolPool = newPool[bool]()
	strPool  = newPool[string]()
	i32Pool  = newPool[int32]()
)

func newPool[T any]() *sync.Pool {
	return &sync.Pool{New: func() any {
		s := make([]T, 0, table.ZoneBlockRows)
		return &s
	}}
}

// Pool accounting: every pooled get and put is counted so tests can pin
// that scratch discipline holds on every exit branch — errors, context
// cancellation and block-cache hits included (a cache hit skips the
// decode but its gather output still comes from, and returns to, the
// pool).
var (
	poolGets atomic.Int64
	poolPuts atomic.Int64
)

// PoolOutstanding reports pooled scratch slices currently checked out
// (gets minus puts). Between queries — once Run has returned —
// the value must be unchanged from before the query; the leak regression
// test pins this across success, error, cancellation and cache-hit
// paths.
func PoolOutstanding() int64 { return poolGets.Load() - poolPuts.Load() }

// getPooled takes an emptied slice from p, counted.
func getPooled[T any](p *sync.Pool) *[]T {
	poolGets.Add(1)
	s := p.Get().(*[]T)
	*s = (*s)[:0]
	return s
}

// putPooled returns s to p, counted.
func putPooled[T any](p *sync.Pool, s *[]T) {
	p.Put(s)
	poolPuts.Add(1)
}

// decodeMeter accumulates lazy-decode work (blocks decoded, wall ns spent
// decoding) during expression evaluation; it flows into Counters so the
// storage layer's cost is visible per query, per stage and on /metrics.
// With a block cache attached, hits/hitBytes count blocks (and copied
// bytes) served from the cache instead of decoding — those blocks are NOT
// charged to blocks, so BlocksDecoded keeps meaning "codec work done".
type decodeMeter struct {
	blocks   int64
	nanos    int64
	hits     int64
	hitBytes int64
}

type scratch struct {
	f64s  []*[]float64
	bools []*[]bool
	strs  []*[]string
	// m, when non-nil, receives decode work performed during evaluation.
	m *decodeMeter
	// blocks, when non-nil, is the cross-query decoded-block cache; reader
	// gathers consult it before decoding.
	blocks *cache.BlockCache
	// memo, when non-nil, holds one slot per schema column: the first
	// reference to a column in an evaluation stores its gathered value
	// there and later references — from any expression evaluated against
	// the same rows before the next release — reuse it, so a column named
	// by predicate, projection and GROUP BY key is decoded once. release
	// clears it along with the buffers the values point into.
	memo []value
	// off is the first row of the window an evaluation covers: rows
	// [off, off+n) of the table. Block walks move it from block to block.
	off int
}

func (sc *scratch) meter() *decodeMeter {
	if sc == nil {
		return nil
	}
	return sc.m
}

func (sc *scratch) cache() *cache.BlockCache {
	if sc == nil {
		return nil
	}
	return sc.blocks
}

func (sc *scratch) window() int {
	if sc == nil {
		return 0
	}
	return sc.off
}

func (sc *scratch) getF64(n int) []float64 {
	if sc == nil {
		return make([]float64, n)
	}
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	sc.f64s = append(sc.f64s, p)
	poolGets.Add(1)
	return (*p)[:n]
}

func (sc *scratch) getBool(n int) []bool {
	if sc == nil {
		return make([]bool, n)
	}
	p := boolPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	sc.bools = append(sc.bools, p)
	poolGets.Add(1)
	return (*p)[:n]
}

func (sc *scratch) getStr(n int) []string {
	if sc == nil {
		return make([]string, n)
	}
	p := strPool.Get().(*[]string)
	if cap(*p) < n {
		*p = make([]string, n)
	}
	sc.strs = append(sc.strs, p)
	poolGets.Add(1)
	return (*p)[:n]
}

// release returns every slice handed out by this scratch to the pools. The
// caller must not retain any value produced during the evaluation. It is
// safe (and a no-op) on a nil scratch, and callers run it via
// defer so every return branch — including mid-gather errors and context
// cancellation — hands its buffers back to the pool instead of leaking
// them to the GC.
func (sc *scratch) release() {
	if sc == nil {
		return
	}
	for _, p := range sc.f64s {
		f64Pool.Put(p)
	}
	for _, p := range sc.bools {
		boolPool.Put(p)
	}
	for _, p := range sc.strs {
		strPool.Put(p)
	}
	poolPuts.Add(int64(len(sc.f64s) + len(sc.bools) + len(sc.strs)))
	sc.f64s, sc.bools, sc.strs = sc.f64s[:0], sc.bools[:0], sc.strs[:0]
	for i := range sc.memo {
		sc.memo[i] = value{}
	}
}

// value is the result of evaluating an expression over a batch of rows:
// exactly one of the vectors is non-nil, or the value is a scalar constant
// broadcast over the batch.
type value struct {
	nums   []float64
	strs   []string
	bools  []bool
	scalar bool
	numS   float64
	strS   string
	isStr  bool
}

// numAt and strAt take v by pointer: they run once per row, and a value is
// over a hundred bytes to copy.
func (v *value) numAt(i int) float64 {
	if v.scalar {
		return v.numS
	}
	return v.nums[i]
}

func (v *value) strAt(i int) string {
	if v.scalar {
		return v.strS
	}
	return v.strs[i]
}

// evalExpr evaluates e over the n rows of tbl starting at sc's window offset
// (row 0 for a nil scratch). sc, when non-nil, supplies pooled scratch for
// the transient vectors.
func evalExpr(e sql.Expr, tbl *table.Table, n int, sc *scratch) (value, error) {
	switch ex := e.(type) {
	case *sql.Literal:
		if ex.IsStr {
			return value{scalar: true, strS: ex.Str, isStr: true}, nil
		}
		return value{scalar: true, numS: ex.Num}, nil

	case *sql.ColumnRef:
		idx := tbl.Schema().Index(ex.Name)
		if idx < 0 {
			return value{}, fmt.Errorf("exec: unknown column %q", ex.Name)
		}
		if sc != nil && sc.memo != nil {
			if v := sc.memo[idx]; v.nums != nil || v.strs != nil {
				return v, nil
			}
		}
		v, err := gatherColumn(tbl.Column(idx), ex.Name, sc.window(), n, sc)
		if err == nil && sc != nil && sc.memo != nil {
			sc.memo[idx] = v
		}
		return v, err

	case *sql.Unary:
		inner, err := evalExpr(ex.E, tbl, n, sc)
		if err != nil {
			return value{}, err
		}
		switch ex.Op {
		case "-":
			if inner.isStr {
				return value{}, fmt.Errorf("exec: cannot negate a string")
			}
			if inner.scalar {
				return value{scalar: true, numS: -inner.numS}, nil
			}
			out := sc.getF64(n)
			for i := range out {
				out[i] = -inner.nums[i]
			}
			return value{nums: out}, nil
		case "NOT":
			if inner.bools == nil {
				return value{}, fmt.Errorf("exec: NOT applied to non-boolean")
			}
			out := sc.getBool(n)
			for i := range out {
				out[i] = !inner.bools[i]
			}
			return value{bools: out}, nil
		default:
			return value{}, fmt.Errorf("exec: unknown unary operator %q", ex.Op)
		}

	case *sql.Binary:
		return evalBinary(ex, tbl, n, sc)

	case *sql.FuncCall:
		return value{}, fmt.Errorf("exec: nested aggregate %s in row expression", ex.Name)

	case *sql.Star:
		return value{}, fmt.Errorf("exec: * outside COUNT")

	default:
		return value{}, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

// gatherColumn materializes rows [off, off+n) of one column. Raw columns
// read their slices; block-backed columns decode after admission, through
// the reader interfaces, metering the decode work. Raw float64 and string
// columns return their own storage, which callers must treat as read-only.
func gatherColumn(col table.Column, name string, off, n int, sc *scratch) (value, error) {
	switch c := col.(type) {
	case table.Float64Col:
		return value{nums: c[off : off+n]}, nil
	case table.Int64Col:
		return value{nums: gatherI64(c, off, n, sc)}, nil
	case table.StringCol:
		return value{strs: c[off : off+n], isStr: true}, nil
	}
	if r, ok := col.(table.F64Reader); ok {
		return value{nums: gatherReader(r, off, sc.getF64(n), table.F64Reader.ReadF64, 8, sc)}, nil
	}
	if r, ok := col.(table.StrReader); ok {
		// A hit copies 16 B per string header; the payload bytes are shared.
		return value{strs: gatherReader(r, off, sc.getStr(n), table.StrReader.ReadStr, 16, sc), isStr: true}, nil
	}
	return value{}, fmt.Errorf("exec: unsupported column type for %q", name)
}

// gatherI64 widens rows [off, off+n) of an int64 column to float64.
func gatherI64(c table.Int64Col, off, n int, sc *scratch) []float64 {
	out := sc.getF64(n)
	for i, v := range c[off : off+n] {
		out[i] = float64(v)
	}
	return out
}

// gatherReader decodes rows [off, off+len(out)) of a lazily decoded column
// into out, through the block cache where one is attached. out comes from
// sc, so the caller's deferred release reclaims it on every return path,
// error and cancellation included. read is the column's reader, a method
// expression, so calling it allocates nothing; a cache hit copies size
// bytes per value.
func gatherReader[R table.Column, T any](r R, off int, out []T, read func(R, []T, int), size int64, sc *scratch) []T {
	m := sc.meter()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	n := len(out)
	var blocks, hits, hitBytes int64
	base := table.BlockBase(r)
	if cc := sc.cache(); cc != nil && base != nil {
		// Cross-query cache, full-range read: walk the column's blocks,
		// copying each cacheable block's cached decode (filling on a miss)
		// and reading the rest from storage, as a decode. A hit replaces the
		// codec decode with a memcpy; the decoded values are bit-identical
		// either way, since block decodes are deterministic.
		for covered := 0; covered < n; {
			abs := off + covered
			b := abs / table.BlockRows
			bStart := b * table.BlockRows
			bLen := min(r.Len()-bStart, table.BlockRows)
			if !table.CacheableBlock(base, b) {
				k := min(bStart+bLen-abs, n-covered)
				read(r, out[covered:covered+k], abs)
				covered += k
				blocks++
				continue
			}
			vals, hit := cachedBlock(cc, base, b, bLen, func(dst []T) { read(r, dst, bStart) })
			k := copy(out[covered:], vals[abs-bStart:])
			covered += k
			if hit {
				hits++
				hitBytes += int64(k) * size
			} else {
				blocks++
			}
		}
	} else {
		read(r, out, off)
		blocks = blocksSpanned(off, n)
	}
	if m != nil {
		m.blocks += blocks
		m.hits += hits
		m.hitBytes += hitBytes
		m.nanos += time.Since(start).Nanoseconds()
	}
	return out
}

// cachedBlock is the block cache's lookup for T, float64 or string: block b
// of base, bLen values, decoded by fill on a miss. The type switch keeps the
// lookup a direct call, so fill stays on the caller's stack.
func cachedBlock[T any](cc *cache.BlockCache, base table.Column, b, bLen int, fill func([]T)) ([]T, bool) {
	switch f := any(fill).(type) {
	case func([]float64):
		vals, hit := cc.GetF64(base, b, bLen, f)
		return any(vals).([]T), hit
	case func([]string):
		vals, hit := cc.GetStr(base, b, bLen, f)
		return any(vals).([]T), hit
	}
	panic("exec: no block cache for this element type")
}

// blocksSpanned counts the storage blocks rows [off, off+n) touch.
func blocksSpanned(off, n int) int64 {
	if n == 0 {
		return 0
	}
	return int64((off+n-1)/table.ZoneBlockRows - off/table.ZoneBlockRows + 1)
}

func evalBinary(ex *sql.Binary, tbl *table.Table, n int, sc *scratch) (value, error) {
	l, err := evalExpr(ex.L, tbl, n, sc)
	if err != nil {
		return value{}, err
	}
	r, err := evalExpr(ex.R, tbl, n, sc)
	if err != nil {
		return value{}, err
	}
	switch ex.Op {
	case "AND", "OR":
		if l.bools == nil || r.bools == nil {
			return value{}, fmt.Errorf("exec: %s applied to non-boolean operands", ex.Op)
		}
		out := sc.getBool(n)
		if ex.Op == "AND" {
			for i := range out {
				out[i] = l.bools[i] && r.bools[i]
			}
		} else {
			for i := range out {
				out[i] = l.bools[i] || r.bools[i]
			}
		}
		return value{bools: out}, nil

	case "+", "-", "*", "/":
		if l.isStr || r.isStr || l.bools != nil || r.bools != nil {
			return value{}, fmt.Errorf("exec: arithmetic %q on non-numeric operands", ex.Op)
		}
		if l.scalar && r.scalar {
			return value{scalar: true, numS: applyArith(ex.Op, l.numS, r.numS)}, nil
		}
		out := sc.getF64(n)
		for i := range out {
			out[i] = applyArith(ex.Op, l.numAt(i), r.numAt(i))
		}
		return value{nums: out}, nil

	case "=", "!=", "<", "<=", ">", ">=":
		out := sc.getBool(n)
		switch {
		case l.isStr && r.isStr:
			for i := range out {
				out[i] = applyStrCmp(ex.Op, l.strAt(i), r.strAt(i))
			}
		case !l.isStr && !r.isStr && l.bools == nil && r.bools == nil:
			for i := range out {
				out[i] = applyNumCmp(ex.Op, l.numAt(i), r.numAt(i))
			}
		default:
			return value{}, fmt.Errorf("exec: comparison %q between mismatched types", ex.Op)
		}
		return value{bools: out}, nil

	default:
		return value{}, fmt.Errorf("exec: unknown operator %q", ex.Op)
	}
}

func applyArith(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	default: // "/"
		return a / b
	}
}

func applyNumCmp(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default: // ">="
		return a >= b
	}
}

func applyStrCmp(op string, a, b string) bool {
	c := strings.Compare(a, b)
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}

// walkBlocks steps rows [lo, hi) of a table one zone block at a time, in
// row order; the first block is short when lo is not a block boundary. It
// passes over the blocks skip marks (rows there provably cannot match, so on
// block-backed tables they are never decoded), points sc's window at each
// other block, calls visit with the block's rows [row, end) and then
// releases sc's scratch, on the error path too. Cancellation is checked
// every 64 visited blocks.
func walkBlocks(ctx context.Context, lo, hi int, skip []bool, sc *scratch, visit func(row, end int) error) error {
	const ctxCheckBlocks = 64
	visited := 0
	for row := lo; row < hi; {
		block := row / table.ZoneBlockRows
		end := min((block+1)*table.ZoneBlockRows, hi)
		if block < len(skip) && skip[block] {
			row = end
			continue
		}
		if visited%ctxCheckBlocks == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		visited++
		sc.off = row
		err := visit(row, end)
		sc.release()
		if err != nil {
			return err
		}
		row = end
	}
	return nil
}

// isCovered reports whether covered marks the block holding row r.
func isCovered(covered []bool, r int) bool {
	b := r / table.ZoneBlockRows
	return b < len(covered) && covered[b]
}

// evalPredicateSkipping evaluates predicate e over the blocks of rows
// [lo, hi) of tbl that skip admits (walkBlocks), appends the matching rows
// to sel and returns it, on an error too, so that a pooled sel goes back
// to its pool. A nil e keeps every row and leaves sel alone. On a block
// covered marks (e holds on every row; see zoneSkip) every row matches
// without evaluating e. A non-nil key reads the GROUP BY key of every block
// with a survivor and appends the survivors' group ids to its ids, so
// grouping costs no pass of its own.
func evalPredicateSkipping(ctx context.Context, e sql.Expr, tbl *table.Table, lo, hi int, skip, covered []bool, m *decodeMeter, cc *cache.BlockCache, sel []int32, key *keyReader) ([]int32, error) {
	sc := &scratch{m: m, blocks: cc}
	err := walkBlocks(ctx, lo, hi, skip, sc, func(row, end int) error {
		var keep []bool
		if e != nil && isCovered(covered, row) {
			for r := row; r < end; r++ {
				sel = append(sel, int32(r))
			}
		} else if e != nil {
			v, err := evalExpr(e, tbl, end-row, sc)
			if err != nil {
				return err
			}
			if v.bools == nil {
				return fmt.Errorf("exec: WHERE expression %s is not boolean", e)
			}
			before := len(sel)
			for i, ok := range v.bools {
				if ok {
					sel = append(sel, int32(row+i))
				}
			}
			if len(sel) == before {
				return nil
			}
			keep = v.bools
		}
		if key != nil {
			if err := key.read(tbl, end-row, sc); err != nil {
				return err
			}
			key.ids = key.number(keep, key.ids)
		}
		return nil
	})
	return sel, err
}
