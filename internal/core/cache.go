package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/table"
)

// execConfig assembles the executor configuration, attaching the engine's
// cross-query cache layers (nil when caching is off, which reproduces
// decode-every-time execution exactly).
func (e *Engine) execConfig() exec.Config {
	return exec.Config{
		Workers: e.cfg.workers(),
		Seed:    e.cfg.Seed,
		Blocks:  e.blocks,
	}
}

// answerKey builds the answer-cache key: catalog generation, resample
// cap, and whitespace-canonicalized SQL. The generation makes every
// registration mutation an instant invalidation; the kCap keeps a
// serving-layer-capped answer from being replayed to an uncapped caller.
func answerCacheKey(gen uint64, kCap int, query string) string {
	return fmt.Sprintf("g%d|k%d|%s", gen, kCap, cache.CanonicalSQL(query))
}

// answerCacheGet returns a private deep clone of a cached answer for
// (gen, query, kCap), or nil on a miss. The clone carries zeroed Counters
// (no physical work happened) and Cached=true.
func (e *Engine) answerCacheGet(gen uint64, query string, kCap int) *Answer {
	if e.answers == nil {
		return nil
	}
	v, ok := e.answers.Get(answerCacheKey(gen, kCap, query))
	if !ok {
		return nil
	}
	ans := v.(*Answer).clone()
	ans.Counters = exec.Counters{}
	ans.Cached = true
	return ans
}

// answerCachePut stores a deep clone of a finished answer under (gen, query,
// kCap). A replay is not stored again.
func (e *Engine) answerCachePut(gen uint64, query string, kCap int, ans *Answer) {
	if e.answers == nil || ans == nil || ans.Cached {
		return
	}
	e.answers.Put(answerCacheKey(gen, kCap, query), ans.clone())
}

// CachedAnswer returns a replay of a finished answer for the exact same
// canonical SQL (and resample cap) when one is cached under the current
// catalog generation. It performs no execution and consumes no admission
// or worker resources — the serving layer calls it BEFORE spending an
// admission slot. The replayed answer still gets a query trace, event-log
// record and history entry (marked cached); the watchdog is NOT
// re-observed, since no new statistical work happened. ok=false when the
// answer cache is disabled or has no entry — a miss starts no trace.
func (e *Engine) CachedAnswer(ctx context.Context, query string, kCap int) (*Answer, bool) {
	q, ans, _ := e.begin(ctx, query, RunOptions{BootstrapK: kCap}, true)
	if ans == nil {
		return nil, false
	}
	e.finish(&q, ans, nil)
	return ans, true
}

// CacheStats is the /debug/cache document: per-layer counters plus the
// per-sample hot residency breakdown.
type CacheStats struct {
	Enabled    bool              `json:"enabled"`
	Generation uint64            `json:"catalog_generation"`
	Block      cache.BlockStats  `json:"block"`
	Answer     cache.AnswerStats `json:"answer"`
	Tables     []TableCacheStats `json:"tables,omitempty"`
}

// TableCacheStats reports how much of one stored sample is resident in the
// block cache. Base tables are never listed: only exact plans read them, and
// the exact operator streams past the cache.
type TableCacheStats struct {
	// Name is the registered table name plus "/sample[rows]" or
	// "/stratified[key]".
	Name string `json:"name"`
	// ResidentBytes is decoded bytes of this table held in the cache.
	ResidentBytes int64 `json:"resident_bytes"`
	// PhysicalBytes is the table's stored (encoded) footprint.
	PhysicalBytes int64 `json:"physical_bytes"`
	// LogicalBytes is the decoded size of the whole table; HotFraction is
	// ResidentBytes/LogicalBytes — how much of the table's decoded form is
	// being kept hot. Only blocks the cache admits (table.CacheableBlock)
	// can be hot, so a sample of raw floats and dictionary strings never
	// gets past 0 and is not listed.
	LogicalBytes int64   `json:"logical_bytes"`
	HotFraction  float64 `json:"hot_fraction"`
}

// residentBytes sums the block cache's residency over one stored table's
// columns (keyed by base-column identity).
func (e *Engine) residentBytes(t *table.Table) int64 {
	if e.blocks == nil || t == nil {
		return 0
	}
	var n int64
	for i := 0; i < t.NumCols(); i++ {
		if base := table.BlockBase(t.Column(i)); base != nil {
			n += e.blocks.BytesFor(base)
		}
	}
	return n
}

// CacheStatsSnapshot assembles the cache layers' counters and the
// per-table residency breakdown, sorted by resident bytes descending and
// truncated to limit entries (<= 0 means no table breakdown).
func (e *Engine) CacheStatsSnapshot(limit int) CacheStats {
	st := CacheStats{
		Enabled:    e.blocks != nil,
		Generation: e.gen.Load(),
		Block:      e.blocks.Stats(),
		Answer:     e.answers.Stats(),
	}
	if e.blocks == nil || limit <= 0 {
		return st
	}
	e.mu.RLock()
	type named struct {
		name string
		t    *table.Table
	}
	var stored []named
	for name, rt := range e.tables {
		for _, s := range rt.samples {
			stored = append(stored,
				named{fmt.Sprintf("%s/sample[%d]", name, s.Data.NumRows()), s.Data})
		}
		for _, ss := range rt.stratified {
			stored = append(stored,
				named{fmt.Sprintf("%s/stratified[%s]", name, ss.keyColumn), ss.st.Data})
		}
	}
	e.mu.RUnlock()
	for _, nt := range stored {
		res := e.residentBytes(nt.t)
		if res == 0 {
			continue
		}
		ts := TableCacheStats{
			Name:          nt.name,
			ResidentBytes: res,
			PhysicalBytes: nt.t.PhysicalSizeBytes(),
			LogicalBytes:  nt.t.SizeBytes(),
		}
		if ts.LogicalBytes > 0 {
			ts.HotFraction = float64(res) / float64(ts.LogicalBytes)
			if ts.HotFraction > 1 {
				ts.HotFraction = 1 // accounting overhead can round above the logical size
			}
		}
		st.Tables = append(st.Tables, ts)
	}
	sort.Slice(st.Tables, func(i, j int) bool {
		if st.Tables[i].ResidentBytes != st.Tables[j].ResidentBytes {
			return st.Tables[i].ResidentBytes > st.Tables[j].ResidentBytes
		}
		return st.Tables[i].Name < st.Tables[j].Name
	})
	if len(st.Tables) > limit {
		st.Tables = st.Tables[:limit]
	}
	return st
}

// cacheHandler serves /debug/cache as JSON. The table breakdown honours
// the debug pages' shared ?limit= clamp (obs.LimitParam: default 64,
// cap 1024).
func (e *Engine) cacheHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, _ := url.ParseQuery(r.URL.RawQuery)
		limit := obs.LimitParam(q, obs.DebugLimitDefault, obs.DebugLimitMax)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.CacheStatsSnapshot(limit))
	})
}
