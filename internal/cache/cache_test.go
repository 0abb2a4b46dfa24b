package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fillN returns a fill function writing deterministic values derived from
// the block index, and counts how many times it decodes.
func fillN(b int, decodes *atomic.Int64) func([]float64) {
	return func(dst []float64) {
		decodes.Add(1)
		for i := range dst {
			dst[i] = float64(b*1000 + i)
		}
	}
}

func TestBlockCacheHitReturnsSameValues(t *testing.T) {
	c := NewBlockCache(BlockConfig{Bytes: 1 << 20})
	col := new(int)
	var decodes atomic.Int64
	v1, hit1 := c.GetF64(col, 3, 64, fillN(3, &decodes))
	v2, hit2 := c.GetF64(col, 3, 64, fillN(3, &decodes))
	if hit1 || !hit2 {
		t.Fatalf("hit flags = %v, %v; want miss then hit", hit1, hit2)
	}
	if decodes.Load() != 1 {
		t.Fatalf("decodes = %d, want 1", decodes.Load())
	}
	for i := range v1 {
		if v1[i] != v2[i] || v1[i] != float64(3000+i) {
			t.Fatalf("value drift at %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}

func TestBlockCacheKindsDoNotAlias(t *testing.T) {
	c := NewBlockCache(BlockConfig{Bytes: 1 << 20})
	col := new(int)
	var d atomic.Int64
	c.GetF64(col, 0, 8, fillN(0, &d))
	_, hit := c.GetStr(col, 0, 8, func(dst []string) {
		d.Add(1)
		for i := range dst {
			dst[i] = "s"
		}
	})
	if hit {
		t.Fatal("a string read aliased a float64 entry for the same block")
	}
	if d.Load() != 2 {
		t.Fatalf("decodes = %d, want 2 (one per kind)", d.Load())
	}
}

func TestBlockCacheBudgetNeverExceeded(t *testing.T) {
	const blockVals = 128
	blockSize := int64(blockVals*8) + entryOverhead
	budget := 4 * blockSize
	c := NewBlockCache(BlockConfig{Bytes: budget})
	col := new(int)
	var d atomic.Int64
	for b := 0; b < 64; b++ {
		c.GetF64(col, b, blockVals, fillN(b, &d))
		if got := c.bytes.Load(); got > budget {
			t.Fatalf("resident %d exceeds budget %d after block %d", got, budget, b)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("64 blocks through a 4-block budget evicted nothing")
	}
	if st.Entries > 4 {
		t.Fatalf("entries = %d, want <= 4", st.Entries)
	}
}

func TestBlockCacheOversizedBlockStillAdmitted(t *testing.T) {
	// One block larger than the whole budget: the cache may exceed the
	// budget by at most that one block rather than thrash or refuse.
	c := NewBlockCache(BlockConfig{Bytes: 100})
	col := new(int)
	var d atomic.Int64
	v, hit := c.GetF64(col, 0, 512, fillN(0, &d))
	if hit || len(v) != 512 {
		t.Fatalf("oversized fill failed: hit=%v len=%d", hit, len(v))
	}
	if _, hit := c.GetF64(col, 0, 512, fillN(0, &d)); !hit {
		t.Fatal("oversized block was not resident after insert")
	}
	if c.bytes.Load() > 512*8+entryOverhead {
		t.Fatalf("resident %d exceeds the single oversized block", c.bytes.Load())
	}
}

func TestBlockCacheScanResistance(t *testing.T) {
	// CLOCK second chance: a block re-referenced between insertions must
	// survive a one-pass sweep of cold blocks that overflows the budget.
	const blockVals = 128
	blockSize := int64(blockVals*8) + entryOverhead
	c := NewBlockCache(BlockConfig{Bytes: 4 * blockSize})
	hot := new(int)
	cold := new(int)
	var d atomic.Int64
	c.GetF64(hot, 0, blockVals, fillN(0, &d))
	for b := 0; b < 16; b++ {
		// Touch the hot block between cold insertions so its ref bit is set
		// whenever the hand sweeps past.
		c.GetF64(hot, 0, blockVals, fillN(0, &d))
		c.GetF64(cold, b, blockVals, fillN(b, &d))
	}
	before := d.Load()
	if _, hit := c.GetF64(hot, 0, blockVals, fillN(0, &d)); !hit {
		t.Fatal("hot block evicted by a cold sweep despite second-chance refs")
	}
	if d.Load() != before {
		t.Fatal("hot-block lookup decoded")
	}
}

func TestBlockCacheSingleflight(t *testing.T) {
	c := NewBlockCache(BlockConfig{Bytes: 1 << 20})
	col := new(int)
	var decodes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	const waiters = 8
	results := make([][]float64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := c.GetF64(col, 7, 32, func(dst []float64) {
				decodes.Add(1)
				close(started)
				<-release
				for j := range dst {
					dst[j] = float64(j)
				}
			})
			results[i] = v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if decodes.Load() != 1 {
		t.Fatalf("concurrent same-block gets decoded %d times, want 1", decodes.Load())
	}
	for i, v := range results {
		if len(v) != 32 || v[31] != 31 {
			t.Fatalf("waiter %d got wrong block: %v", i, v)
		}
	}
}

func TestBlockCacheStrSizing(t *testing.T) {
	c := NewBlockCache(BlockConfig{Bytes: 1 << 20})
	col := new(int)
	v, hit := c.GetStr(col, 0, 4, func(dst []string) {
		for i := range dst {
			dst[i] = fmt.Sprintf("value-%d", i)
		}
	})
	if hit || v[2] != "value-2" {
		t.Fatalf("string fill failed: hit=%v v=%v", hit, v)
	}
	if c.bytes.Load() <= entryOverhead {
		t.Fatalf("string block accounted %d bytes", c.bytes.Load())
	}
	if _, hit := c.GetStr(col, 0, 4, func([]string) { t.Fatal("refilled") }); !hit {
		t.Fatal("string block not resident")
	}
}

func TestBytesForTracksColumns(t *testing.T) {
	c := NewBlockCache(BlockConfig{Bytes: 1 << 20})
	a, b := new(int), new(int)
	var d atomic.Int64
	c.GetF64(a, 0, 64, fillN(0, &d))
	c.GetF64(a, 1, 64, fillN(1, &d))
	c.GetF64(b, 0, 64, fillN(0, &d))
	wantA := 2 * (int64(64*8) + entryOverhead)
	if got := c.BytesFor(a); got != wantA {
		t.Fatalf("BytesFor(a) = %d, want %d", got, wantA)
	}
	if got := c.BytesFor(b); got != wantA/2 {
		t.Fatalf("BytesFor(b) = %d, want %d", got, wantA/2)
	}
	if got := c.BytesFor(new(int)); got != 0 {
		t.Fatalf("BytesFor(unknown) = %d, want 0", got)
	}
}

func TestNilBlockCacheSafe(t *testing.T) {
	var c *BlockCache
	if c.BytesFor(nil) != 0 {
		t.Fatal("nil cache accessors not zero")
	}
	if st := c.Stats(); st != (BlockStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if NewBlockCache(BlockConfig{Bytes: 0}) != nil {
		t.Fatal("Bytes=0 must disable the cache (nil)")
	}
}

func TestAnswerCacheTTL(t *testing.T) {
	c := NewAnswerCache(AnswerConfig{TTL: 10 * time.Millisecond})
	c.Put("k", "v")
	if v, ok := c.Get("k"); !ok || v != "v" {
		t.Fatalf("fresh get = %v, %v", v, ok)
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if n := c.lru.len(); n != 0 {
		t.Fatalf("expired entry still resident: len=%d", n)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAnswerCacheOneHitKeysStayProbationary: answers stored once and never
// replayed cycle through the probationary segment, oldest first.
func TestAnswerCacheOneHitKeysStayProbationary(t *testing.T) {
	c := NewAnswerCache(AnswerConfig{})
	for i := 0; i < answerCap; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if st := c.Stats(); st.Entries != answerCap/8 {
		t.Fatalf("%d one-hit keys leave %d resident, want %d", answerCap, st.Entries, answerCap/8)
	}
	if st := c.Stats(); st.Evictions != answerCap-answerCap/8 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, answerCap-answerCap/8)
	}
	if _, ok := c.Get(fmt.Sprintf("k%d", answerCap-answerCap/8-1)); ok {
		t.Fatal("the newest dropped key is still resident")
	}
	if _, ok := c.Get(fmt.Sprintf("k%d", answerCap-answerCap/8)); !ok {
		t.Fatal("the oldest surviving key was dropped")
	}
}

// TestAnswerCacheHitKeySurvivesChurn: one replay promotes an answer out of
// reach of any number of one-off puts.
func TestAnswerCacheHitKeySurvivesChurn(t *testing.T) {
	c := NewAnswerCache(AnswerConfig{})
	c.Put("panel", "v")
	if _, ok := c.Get("panel"); !ok {
		t.Fatal("panel missing before churn")
	}
	for i := 0; i < answerCap; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if v, ok := c.Get("panel"); !ok || v != "v" {
		t.Fatalf("hit key evicted by %d one-hit puts: %v, %v", answerCap, v, ok)
	}
	if st := c.Stats(); st.Entries != answerCap/8+1 {
		t.Fatalf("entries = %d, want %d probationary + the panel", st.Entries, answerCap/8)
	}
}

// TestAnswerCacheProtectedEvictsLRU: the protected segment is an LRU of
// answerCap - answerCap/8 entries.
func TestAnswerCacheProtectedEvictsLRU(t *testing.T) {
	c := NewAnswerCache(AnswerConfig{})
	const protected = answerCap - answerCap/8
	for i := 0; i < protected; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Put(k, i)
		c.Get(k)
	}
	// Refresh k0 so k1 becomes the least recently used.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before overflow")
	}
	evictions := c.Stats().Evictions
	c.Put("overflow", "v")
	c.Get("overflow")
	if st := c.Stats(); st.Entries != protected || st.Evictions != evictions+1 {
		t.Fatalf("entries = %d, evictions = %d; want %d, %d", st.Entries, st.Evictions, protected, evictions+1)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("least recently used k1 survived the overflow")
	}
	for _, k := range []string{"k0", "k2", "overflow"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted instead of the least recently used", k)
		}
	}
}

func TestAnswerCacheDefaultTTL(t *testing.T) {
	if got := NewAnswerCache(AnswerConfig{}).ttl; got != DefaultAnswerTTL {
		t.Fatalf("default TTL = %v, want %v", got, DefaultAnswerTTL)
	}
	var nilC *AnswerCache
	nilC.Put("k", "v")
	if _, ok := nilC.Get("k"); ok {
		t.Fatal("nil answer cache returned a value")
	}
}

func TestCanonicalSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT 1", "SELECT 1"},
		{"  SELECT   1  ", "SELECT 1"},
		{"SELECT\tAVG(x)\nFROM t", "SELECT AVG(x) FROM t"},
		{"SELECT * FROM t WHERE c = 'a  b'", "SELECT * FROM t WHERE c = 'a  b'"},
		{"SELECT * FROM t WHERE c = 'A\tB'  AND d=1", "SELECT * FROM t WHERE c = 'A\tB' AND d=1"},
		{"select 1", "select 1"}, // case is preserved, not folded
		{"", ""},
		{"   ", ""},
	}
	for _, tc := range cases {
		if got := CanonicalSQL(tc.in); got != tc.want {
			t.Errorf("CanonicalSQL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
