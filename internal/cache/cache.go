// Package cache provides the engine's cross-query reuse layers: a
// byte-budgeted decoded-block cache sitting between the executor and the
// block-compressed table backings, and an answer cache that replays
// finished answers for exact-match repeated SQL.
//
// Both layers are strictly inert with respect to query results: block
// decodes are deterministic (the cache returns the same values
// table.Compress/OpenStore decode today), and answers are bit-identical on
// re-execution because all engine randomness derives from (seed, stream)
// pairs. Caching therefore changes latency, never answers — pinned by the
// bit-identity tests in internal/core.
//
// Each layer keeps only what saves work. The executor offers the block
// layer only blocks whose codec transforms values (table.CacheableBlock);
// a block whose decode is a copy out of storage, or one dictionary index
// per row, is read from storage every time. Answers enter on probation and
// stay resident past a stream of one-off queries only once they have been
// reused (slru).
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// block value kinds; part of the cache key so an entry is only ever read
// back as the type it was decoded to.
const (
	kindF64 = iota
	kindStr
)

// entryOverhead is the accounting charge per cache entry beyond its
// payload: key, slice header, ring slot, bookkeeping.
const entryOverhead = 96

// blockKey identifies one decoded block: the base column's identity (the
// column pointer — columns are immutable after registration, so identity
// is also a version), the block index, and the decoded value kind.
type blockKey struct {
	col   any
	block int
	kind  uint8
}

// entry is one resident decoded block. ref is the CLOCK reference bit:
// set on every hit, cleared (once) by the eviction hand before the entry
// becomes a victim, so blocks touched by more than one scan survive a
// one-pass sweep that would flush a plain LRU.
type entry struct {
	key   blockKey
	val   any // []float64 or []string
	bytes int64
	ref   atomic.Bool
}

// inflight is the singleflight slot for one block being decoded: waiters
// block on done and read val, so N concurrent queries needing the same
// block pay for one decode.
type inflight struct {
	done chan struct{}
	val  any
}

type blockShard struct {
	mu     sync.RWMutex
	m      map[blockKey]*entry
	flight map[blockKey]*inflight
}

// blockShards is the lookup-shard count. Sharding bounds hit-path lock
// contention; the byte budget and eviction clock stay global so the budget
// is never exceeded by more than one block.
const blockShards = 16

// BlockConfig tunes a BlockCache.
type BlockConfig struct {
	// Bytes is the global byte budget. Must be positive; the engine keeps
	// the cache nil (= off) otherwise.
	Bytes int64
	// Metrics, when non-nil, receives aqp_cache_* counters and gauges for
	// the block layer.
	Metrics *obs.Registry
}

// BlockCache is a sharded, byte-budgeted cache of decoded storage blocks
// with CLOCK (second-chance) scan-resistant eviction and per-block
// singleflight. It is safe for concurrent use. Cached slices are shared
// read-only: callers copy out of them and must never mutate them.
type BlockCache struct {
	budget int64
	shards []blockShard

	// emu serializes insertion accounting and eviction: the ring, the
	// clock hand, the byte total and the per-column residency map. Hits
	// never take it; misses pay it once after decoding (outside the lock).
	// Lock order is emu -> shard.mu, never the reverse.
	emu      sync.Mutex
	ring     []*entry
	hand     int
	bytes    atomic.Int64
	colBytes map[any]int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	mHits, mMisses, mEvicted *obs.Counter
	mBytes                   *obs.Gauge
}

// NewBlockCache returns a block cache with the given budget. A nil return
// means the configuration disables caching (Bytes <= 0).
func NewBlockCache(cfg BlockConfig) *BlockCache {
	if cfg.Bytes <= 0 {
		return nil
	}
	c := &BlockCache{
		budget:   cfg.Bytes,
		shards:   make([]blockShard, blockShards),
		colBytes: map[any]int64{},
	}
	for i := range c.shards {
		c.shards[i].m = map[blockKey]*entry{}
		c.shards[i].flight = map[blockKey]*inflight{}
	}
	if reg := cfg.Metrics; reg != nil {
		c.mHits = reg.Counter("aqp_cache_hits_total",
			"Cache hits, by layer.", "layer", "block")
		c.mMisses = reg.Counter("aqp_cache_misses_total",
			"Cache misses, by layer.", "layer", "block")
		c.mEvicted = reg.Counter("aqp_cache_evicted_total",
			"Cache entries evicted, by layer.", "layer", "block")
		c.mBytes = reg.Gauge("aqp_cache_bytes",
			"Resident cache bytes, by layer.", "layer", "block")
	}
	return c
}

// shard maps a key to its lookup shard. Column identity barely matters
// here — shards only spread lock contention — so a cheap integer mix of
// the block index is enough.
func (c *BlockCache) shard(k blockKey) *blockShard {
	h := uint32(k.block)*2654435761 + uint32(k.kind)*97
	return &c.shards[h%uint32(len(c.shards))]
}

// GetF64 returns decoded block b of col (bLen values), calling fill to
// decode on a miss. hit reports whether the block was served without
// decoding (fill not called). The returned slice is shared and read-only.
func (c *BlockCache) GetF64(col any, b, bLen int, fill func([]float64)) (vals []float64, hit bool) {
	v, hit := c.getSized(blockKey{col: col, block: b, kind: kindF64},
		func() (any, int64) {
			dst := make([]float64, bLen)
			fill(dst)
			return dst, int64(bLen)*8 + entryOverhead
		})
	return v.([]float64), hit
}

// GetStr is GetF64 for string blocks. The payload (string headers plus
// bytes) is accounted after the decode, since the size is not known up front.
func (c *BlockCache) GetStr(col any, b, bLen int, fill func([]string)) (vals []string, hit bool) {
	v, hit := c.getSized(blockKey{col: col, block: b, kind: kindStr},
		func() (any, int64) {
			dst := make([]string, bLen)
			fill(dst)
			sz := int64(entryOverhead)
			for _, s := range dst {
				sz += int64(len(s)) + 16
			}
			return dst, sz
		})
	return v.([]string), hit
}

func (c *BlockCache) getSized(k blockKey, fill func() (any, int64)) (any, bool) {
	s := c.shard(k)
	s.mu.RLock()
	e := s.m[k]
	s.mu.RUnlock()
	if e != nil {
		e.ref.Store(true)
		c.hits.Add(1)
		c.mHits.Inc()
		return e.val, true
	}

	// Miss: join an in-flight decode when one exists, otherwise own it.
	s.mu.Lock()
	if e := s.m[k]; e != nil {
		s.mu.Unlock()
		e.ref.Store(true)
		c.hits.Add(1)
		c.mHits.Inc()
		return e.val, true
	}
	if call, ok := s.flight[k]; ok {
		s.mu.Unlock()
		<-call.done
		// The leader's decode served us: a hit from this caller's point of
		// view — no decode work was performed here.
		c.hits.Add(1)
		c.mHits.Inc()
		return call.val, true
	}
	call := &inflight{done: make(chan struct{})}
	s.flight[k] = call
	s.mu.Unlock()

	val, sz := fill()
	call.val = val
	c.misses.Add(1)
	c.mMisses.Inc()
	c.insert(k, val, sz)
	s.mu.Lock()
	delete(s.flight, k)
	s.mu.Unlock()
	close(call.done)
	return val, false
}

// insert admits one decoded block under the byte budget: victims are
// evicted FIRST, so the resident total never exceeds the budget while the
// budget can hold at least one block (and never exceeds it by more than
// that one block otherwise).
func (c *BlockCache) insert(k blockKey, val any, sz int64) {
	c.emu.Lock()
	for c.bytes.Load()+sz > c.budget && len(c.ring) > 0 {
		c.evictOneLocked()
	}
	e := &entry{key: k, val: val, bytes: sz}
	c.ring = append(c.ring, e)
	c.bytes.Add(sz)
	c.colBytes[k.col] += sz
	c.mBytes.Set(c.bytes.Load())
	c.emu.Unlock()

	s := c.shard(k)
	s.mu.Lock()
	// If a racing insert beat us between singleflight release and here,
	// the newer entry wins the map slot and the clock reaps the orphan
	// (it stays accounted in the ring until evicted).
	s.m[k] = e
	s.mu.Unlock()
}

// evictOneLocked advances the CLOCK hand until a victim falls out:
// referenced entries get their bit cleared and one more lap of life,
// unreferenced entries are evicted. Called with emu held.
func (c *BlockCache) evictOneLocked() {
	for spins := 2*len(c.ring) + 1; spins > 0; spins-- {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.ref.Load() && spins > 1 {
			e.ref.Store(false)
			c.hand++
			continue
		}
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring[last] = nil
		c.ring = c.ring[:last]
		c.bytes.Add(-e.bytes)
		if n := c.colBytes[e.key.col] - e.bytes; n > 0 {
			c.colBytes[e.key.col] = n
		} else {
			delete(c.colBytes, e.key.col)
		}
		c.evictions.Add(1)
		c.mEvicted.Inc()
		c.mBytes.Set(c.bytes.Load())
		s := c.shard(e.key)
		s.mu.Lock()
		if s.m[e.key] == e {
			delete(s.m, e.key)
		}
		s.mu.Unlock()
		return
	}
}

// BytesFor returns the resident bytes attributable to one column
// identity — the per-table "hot fraction" numerator.
func (c *BlockCache) BytesFor(col any) int64 {
	if c == nil {
		return 0
	}
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.colBytes[col]
}

// BlockStats is a point-in-time summary of the block layer.
type BlockStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget_bytes"`
}

// Stats returns the block layer's counters. Zero values on a nil cache.
func (c *BlockCache) Stats() BlockStats {
	if c == nil {
		return BlockStats{}
	}
	c.emu.Lock()
	entries := len(c.ring)
	c.emu.Unlock()
	return BlockStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     c.bytes.Load(),
		Budget:    c.budget,
	}
}
