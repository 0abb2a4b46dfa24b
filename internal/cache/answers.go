package cache

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// answerCap bounds the number of resident answers; beyond it the entry
// with the oldest last use is dropped. Answers are small (group rows and
// interval floats), so a count bound is sufficient.
const answerCap = 1024

// DefaultAnswerTTL bounds reuse of a finished answer when the engine
// config leaves CacheTTL zero. Catalog changes invalidate immediately via
// the generation counter baked into keys; the TTL only bounds staleness
// relative to wall-clock expectations (freshness of Elapsed-style
// telemetry, operator surprise).
const DefaultAnswerTTL = 60 * time.Second

type ansEntry struct {
	val      any
	stored   time.Time
	lastUsed time.Time
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
// rebuilds invalidate by construction. Safe for concurrent use.
type AnswerCache struct {
	mu  sync.Mutex
	m   map[string]*ansEntry
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
	c := &AnswerCache{m: map[string]*ansEntry{}, ttl: ttl}
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
// TTL. Expired entries are dropped on the way out.
func (c *AnswerCache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	now := time.Now()
	c.mu.Lock()
	e, ok := c.m[key]
	if ok && now.Sub(e.stored) > c.ttl {
		delete(c.m, key)
		c.evictions.Add(1)
		c.mEvicted.Inc()
		ok = false
	}
	if ok {
		e.lastUsed = now
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		c.mMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	c.mHits.Inc()
	return e.val, true
}

// Put stores a finished answer under key, evicting the least-recently
// used entry when the cache is full.
func (c *AnswerCache) Put(key string, val any) {
	if c == nil {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if _, ok := c.m[key]; !ok && len(c.m) >= answerCap {
		var oldest string
		var oldestT time.Time
		for k, e := range c.m {
			if oldest == "" || e.lastUsed.Before(oldestT) {
				oldest, oldestT = k, e.lastUsed
			}
		}
		delete(c.m, oldest)
		c.evictions.Add(1)
		c.mEvicted.Inc()
	}
	c.m[key] = &ansEntry{val: val, stored: now, lastUsed: now}
	c.mu.Unlock()
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
	entries := len(c.m)
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
