package table

// Row gathering: GatherStored copies the rows at idx into a new table, in
// idx order. For block-backed sources the cost that matters is
// decoding, so the visiting order — positions of idx bucketed by the source
// block their row lives in — is planned once per call by an O(n + blocks)
// counting sort and shared by every column; each column then decodes every
// touched block exactly once and scatters its values to their output
// positions. GatherStored runs the columns on a bounded set of goroutines and
// finishes each one (encode, zone envelope) before starting the next, so the
// raw form of at most `workers` columns is alive at any time.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// gatherPlan is one gather's row draw plus its block-bucketed visiting
// order: the positions of idx whose row falls in block b are
// order[starts[b]:starts[b+1]], in ascending position order. Every block
// column of the table shares it; it is read-only once the column work
// starts.
type gatherPlan struct {
	idx    []int
	order  []int
	starts []int
}

// prepare computes the visiting order over a table of rows rows.
func (p *gatherPlan) prepare(rows int) {
	nb := numBlocksFor(rows)
	p.starts = make([]int, nb+1)
	for _, r := range p.idx {
		p.starts[r/BlockRows+1]++
	}
	for b := 0; b < nb; b++ {
		p.starts[b+1] += p.starts[b]
	}
	p.order = make([]int, len(p.idx))
	next := append([]int(nil), p.starts[:nb]...)
	for k, r := range p.idx {
		b := r / BlockRows
		p.order[next[b]] = k
		next[b]++
	}
}

// gatherBlocks is the block-column gather shared by the three value types:
// walk the touched source blocks in order, decode each once into buf, and
// scatter its drawn rows into their output positions.
func gatherBlocks[T any](p *gatherPlan, buf []T, blockLen func(b int) int, decode func(b int, dst []T)) []T {
	out := make([]T, len(p.idx))
	for b := 0; b+1 < len(p.starts); b++ {
		ks := p.order[p.starts[b]:p.starts[b+1]]
		if len(ks) == 0 {
			continue
		}
		blk := buf[:blockLen(b)]
		decode(b, blk)
		first := b * BlockRows
		for _, k := range ks {
			out[k] = blk[p.idx[k]-first]
		}
	}
	return out
}

func (c *F64BlockCol) gather(p *gatherPlan) Column {
	iscratch := make([]int64, BlockRows)
	return Float64Col(gatherBlocks(p, make([]float64, BlockRows), c.blockLen,
		func(b int, dst []float64) { c.decodeBlock(b, dst, iscratch) }))
}

func (c *I64BlockCol) gather(p *gatherPlan) Column {
	return Int64Col(gatherBlocks(p, make([]int64, BlockRows), c.blockLen, c.decodeBlock))
}

func (c *StrBlockCol) gather(p *gatherPlan) Column {
	return StringCol(gatherBlocks(p, make([]string, BlockRows), c.blockLen, c.decodeBlock))
}

// GatherStored gathers a table that is about to be stored and queried — a
// sample: the result's columns are block-compressed unless backing is
// BackingRaw, and its zone maps are attached. Up to workers goroutines each
// take one column at a time through gather → encode → envelope, so the build
// holds at most that many raw columns beside the finished ones. Rows, row
// order, codecs and envelopes do not depend on workers.
func (t *Table) GatherStored(idx []int, backing Backing, workers int) *Table {
	nb := numBlocksFor(len(idx))
	envs := make([]ColumnZones, len(t.cols))
	numeric := make([]bool, len(t.cols))
	cols := t.gatherColumns(idx, workers, func(ci int, col Column) Column {
		if backing != BackingRaw {
			col = compressColumn(col)
		}
		envs[ci], numeric[ci] = envelopeFor(col, nb)
		return col
	})
	out := &Table{schema: t.schema, cols: cols, rows: len(idx)}
	if out.rows > 0 {
		out.zones = &Zones{rows: out.rows, byCol: make(map[int]ColumnZones, len(cols))}
		for ci, ok := range numeric {
			if ok {
				out.zones.byCol[ci] = envs[ci]
			}
		}
	}
	return out
}

// gatherColumns gathers every column on at most workers goroutines, each
// taking one column at a time: finish receives the raw gathered column and
// returns what the output table keeps, so the raw form of a column that
// finish re-encodes is garbage before its goroutine starts the next one.
func (t *Table) gatherColumns(idx []int, workers int, finish func(ci int, raw Column) Column) []Column {
	// A bad index must panic here, on the caller's goroutine, where it can be
	// recovered — not inside a column worker.
	for _, r := range idx {
		if r < 0 || r >= t.rows {
			panic(fmt.Sprintf("table: Gather row %d out of range [0, %d)", r, t.rows))
		}
	}
	p := &gatherPlan{idx: idx}
	for _, c := range t.cols {
		if BlockBase(c) != nil {
			p.prepare(t.rows)
			break
		}
	}
	cols := make([]Column, len(t.cols))
	if workers > len(cols) {
		workers = len(cols)
	}
	if workers <= 1 {
		for ci, c := range t.cols {
			cols[ci] = finish(ci, c.gather(p))
		}
		return cols
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := int(next.Add(1)) - 1; ci < len(cols); ci = int(next.Add(1)) - 1 {
				cols[ci] = finish(ci, t.cols[ci].gather(p))
			}
		}()
	}
	wg.Wait()
	return cols
}
