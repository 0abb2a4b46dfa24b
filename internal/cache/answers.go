package cache

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// answerCap bounds the number of resident answers, answerCap/8 of them
// probationary (see slru). Answers are small (group rows and interval
// floats), so a count bound is sufficient.
const answerCap = 1024

// DefaultAnswerTTL bounds reuse of a finished answer when the engine
// config leaves CacheTTL zero. Catalog changes invalidate immediately via
// the generation counter baked into keys; the TTL only bounds staleness
// relative to wall-clock expectations (freshness of Elapsed-style
// telemetry, operator surprise).
const DefaultAnswerTTL = 60 * time.Second

type ansEntry struct {
	val    any
	stored time.Time
}

// AnswerConfig tunes an AnswerCache.
type AnswerConfig struct {
	// TTL is the maximum age of a reusable answer (0 = DefaultAnswerTTL).
	TTL time.Duration
	// Metrics, when non-nil, receives aqp_cache_* counters for the
	// "answer" layer.
	Metrics *obs.Registry
}

// AnswerCache reuses finished answers for exact-match canonical SQL.
// Values are opaque (the engine stores deep-cloned *core.Answer); keys
// embed the engine's catalog generation so RegisterTable and sample
// rebuilds invalidate by construction. An answer that has never been
// replayed is probationary: a stream of one-off queries keeps at most
// answerCap/8 of them and never evicts a replayed one. Safe for concurrent
// use.
type AnswerCache struct {
	mu  sync.Mutex
	lru *slru[string, ansEntry]
	ttl time.Duration

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	mHits, mMisses, mEvicted *obs.Counter
}

// NewAnswerCache returns an empty answer cache.
func NewAnswerCache(cfg AnswerConfig) *AnswerCache {
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = DefaultAnswerTTL
	}
	c := &AnswerCache{lru: newSLRU[string, ansEntry](answerCap), ttl: ttl}
	if reg := cfg.Metrics; reg != nil {
		c.mHits = reg.Counter("aqp_cache_hits_total",
			"Cache hits, by layer.", "layer", "answer")
		c.mMisses = reg.Counter("aqp_cache_misses_total",
			"Cache misses, by layer.", "layer", "answer")
		c.mEvicted = reg.Counter("aqp_cache_evicted_total",
			"Cache entries evicted, by layer.", "layer", "answer")
	}
	return c
}

// Get returns the cached value for key if present and younger than the
// TTL, promoting it on its first hit. Expired entries are dropped on the
// way out.
func (c *AnswerCache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	now := time.Now()
	var val any
	evicted := 0
	c.mu.Lock()
	it := c.lru.get(key)
	if it != nil && now.Sub(it.val.stored) > c.ttl {
		c.lru.remove(it)
		evicted, it = 1, nil
	} else if it != nil {
		evicted = c.lru.hit(it)
		val = it.val.val
	}
	c.mu.Unlock()
	c.evicted(evicted)
	if it == nil {
		c.misses.Add(1)
		c.mMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	c.mHits.Inc()
	return val, true
}

// Put stores a finished answer under key as a probationary entry (an
// existing entry takes the new answer and keeps its standing).
func (c *AnswerCache) Put(key string, val any) {
	if c == nil {
		return
	}
	now := time.Now()
	c.mu.Lock()
	evicted := c.lru.put(key, ansEntry{val: val, stored: now})
	c.mu.Unlock()
	c.evicted(evicted)
}

func (c *AnswerCache) evicted(n int) {
	c.evictions.Add(int64(n))
	c.mEvicted.Add(int64(n))
}

// AnswerStats is a point-in-time summary of the answer layer.
type AnswerStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	TTL       float64 `json:"ttl_seconds"`
}

// Stats returns the answer layer's counters. Zero values on a nil cache.
func (c *AnswerCache) Stats() AnswerStats {
	if c == nil {
		return AnswerStats{}
	}
	c.mu.Lock()
	entries := c.lru.len()
	c.mu.Unlock()
	return AnswerStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		TTL:       c.ttl.Seconds(),
	}
}

// CanonicalSQL normalizes a query for exact-match answer reuse: leading
// and trailing whitespace is dropped and interior whitespace runs
// collapse to a single space, except inside single-quoted string
// literals, which are preserved byte for byte. Case is NOT folded —
// string literals are case-sensitive and the tokenizer-free collapse
// cannot tell identifiers from literals, so `where  city = 'NYC'` and
// `where city = 'NYC'` share an entry while `'nyc'` does not.
func CanonicalSQL(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				inStr = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			pendingSpace = b.Len() > 0
		default:
			if pendingSpace {
				b.WriteByte(' ')
				pendingSpace = false
			}
			b.WriteByte(c)
			if c == '\'' {
				inStr = true
			}
		}
	}
	return b.String()
}
