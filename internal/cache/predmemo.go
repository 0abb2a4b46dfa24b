package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// skipKey identifies a zone-map admission decision: the storage identity
// (the *table.Table pointer of the scanned table or sample — immutable
// after registration) plus the EXACT predicate text. Skip lists depend on
// literal values (WHERE t < 5 admits different blocks than WHERE t < 50),
// so this layer must NOT use literal-normalized signatures.
type skipKey struct {
	store any
	pred  string
}

type skipEntry struct {
	skip, covered []bool
	skipped       int64
}

// selKey identifies a selectivity observation: storage identity plus the
// literal-normalized predicate signature (sql.PredicateSignature), so
// repeated query *shapes* (same structure, different literals) share one
// estimate for planning hints.
type selKey struct {
	store any
	sig   string
}

// selEntry holds an exponentially-weighted selectivity estimate. Hints
// only pre-size executor buffers and inform planning; they never alter
// which rows pass a predicate, so a stale or shared estimate is
// answer-neutral by construction.
type selEntry struct {
	sel float64
	n   int64
}

// predMemoCap bounds each memo: skip lists are small but a hostile
// workload could mint unbounded distinct literals, so at most predMemoCap/8
// of them are probationary (see slru), and the shape map starts over at
// predMemoCap shapes.
const predMemoCap = 4096

// PredMemo caches zone-map admission decisions (exact-keyed) and measured
// predicate selectivity (signature-keyed) across queries. Safe for
// concurrent use.
type PredMemo struct {
	mu    sync.RWMutex
	skips *slru[skipKey, skipEntry]
	sels  map[selKey]selEntry

	hits   atomic.Int64
	misses atomic.Int64

	mHits, mMisses *obs.Counter
}

// NewPredMemo returns an empty predicate memo, registering aqp_cache_*
// metrics for the "predicate" layer when reg is non-nil.
func NewPredMemo(reg *obs.Registry) *PredMemo {
	m := &PredMemo{
		skips: newSLRU[skipKey, skipEntry](predMemoCap),
		sels:  map[selKey]selEntry{},
	}
	if reg != nil {
		m.mHits = reg.Counter("aqp_cache_hits_total",
			"Cache hits, by layer.", "layer", "predicate")
		m.mMisses = reg.Counter("aqp_cache_misses_total",
			"Cache misses, by layer.", "layer", "predicate")
	}
	return m
}

// Lookup returns the memoized zone-map skip and covered lists for (store,
// exact predicate text), promoting them on their first hit, or ok=false
// when the analyzer walk must run. The returned slices are shared
// read-only.
func (m *PredMemo) Lookup(store any, pred string) (skip, covered []bool, skipped int64, ok bool) {
	if m == nil {
		return nil, nil, 0, false
	}
	m.mu.Lock()
	it := m.skips.get(skipKey{store, pred})
	if it != nil {
		m.skips.hit(it)
		skip, covered, skipped = it.val.skip, it.val.covered, it.val.skipped
	}
	m.mu.Unlock()
	if it != nil {
		m.hits.Add(1)
		m.mHits.Inc()
		return skip, covered, skipped, true
	}
	m.misses.Add(1)
	m.mMisses.Inc()
	return nil, nil, 0, false
}

// Store memoizes freshly computed skip and covered lists as a probationary
// entry. Nil lists (nothing skippable or covered, or zones absent) are
// memoized too — recomputing "nothing to skip" is exactly the walk this
// layer exists to avoid.
func (m *PredMemo) Store(store any, pred string, skip, covered []bool, skipped int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.skips.put(skipKey{store, pred}, skipEntry{skip: skip, covered: covered, skipped: skipped})
	m.mu.Unlock()
}

// ObserveSelectivity folds one measured selectivity (rows passed / rows
// scanned) into the shape's running estimate.
func (m *PredMemo) ObserveSelectivity(store any, sig string, sel float64) {
	if m == nil || sig == "" {
		return
	}
	k := selKey{store, sig}
	m.mu.Lock()
	if len(m.sels) >= predMemoCap {
		m.sels = map[selKey]selEntry{}
	}
	e := m.sels[k]
	if e.n == 0 {
		e.sel = sel
	} else {
		// EWMA with a fast-moving constant: serving workloads drift and the
		// hint only needs to be in the right ballpark.
		e.sel = 0.75*e.sel + 0.25*sel
	}
	e.n++
	m.sels[k] = e
	m.mu.Unlock()
}

// Hint returns the remembered selectivity for a predicate shape, or
// ok=false when the shape has not been observed on this store.
func (m *PredMemo) Hint(store any, sig string) (sel float64, ok bool) {
	if m == nil || sig == "" {
		return 0, false
	}
	m.mu.RLock()
	e, ok := m.sels[selKey{store, sig}]
	m.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return e.sel, true
}

// PredStats is a point-in-time summary of the predicate-memo layer.
type PredStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	SkipLists int   `json:"skip_lists"`
	Shapes    int   `json:"shapes"`
}

// Stats returns the memo's counters. Zero values on a nil memo.
func (m *PredMemo) Stats() PredStats {
	if m == nil {
		return PredStats{}
	}
	m.mu.RLock()
	skips, shapes := m.skips.len(), len(m.sels)
	m.mu.RUnlock()
	return PredStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		SkipLists: skips,
		Shapes:    shapes,
	}
}
