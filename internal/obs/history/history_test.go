package history

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func testQueryRecord(qid uint64, sel float64) *obs.QueryRecord {
	return &obs.QueryRecord{
		QID:            qid,
		SQL:            "SELECT AVG(X) FROM T WHERE X < 10",
		Table:          "T",
		Sample:         "1000",
		Predicate:      "(x < ?)",
		Outcome:        "ok",
		TotalMs:        2.5,
		StagesMs:       map[string]float64{"scan": 1.5, "estimate": 0.5},
		Selectivity:    sel,
		SampleFraction: 0.1,
		KBudget:        100,
		KUsed:          40,
		Aggs:           []obs.AggRecord{{Kind: "AVG", RelErr: 0.02, Technique: "closed-form"}},
	}
}

func testKey() Key {
	return Key{Table: "T", Sample: "1000", Agg: "AVG", Predicate: "(x < ?)"}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.AppendQuery(testQueryRecord(1, 0.5))
	s.AppendAudit(obs.AuditRecord{QID: 1, Table: "T", Sample: "1000",
		Predicate: "(x < ?)", Kind: "AVG", Agg: "AVG(X)",
		Covered: true, Truth: 5, Lo: 4, Hi: 6})
	s.AppendReject("queue_full")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	segs, err := ReplayDir(dir, func(rec *Record) {
		kinds = append(kinds, rec.Kind)
		if rec.TS <= 0 {
			t.Errorf("record %q has no timestamp", rec.Kind)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].TailSkipped {
		t.Fatalf("segments = %+v, want one clean segment", segs)
	}
	want := []string{KindQuery, KindAudit, KindReject}
	if len(kinds) != len(want) {
		t.Fatalf("replayed %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("replayed %v, want %v", kinds, want)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SampleInterval: -1, maxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		s.AppendQuery(testQueryRecord(uint64(i), 0.5))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	segs, err := ReplayDir(dir, func(*Record) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d records in %d segment(s), want rotation under a 2KiB cap",
			n, len(segs))
	}
	if count != n {
		t.Fatalf("replayed %d records across rotated segments, want %d", count, n)
	}
}

// TestCorruptTailSkipped pins the fail-soft contract: a torn or corrupted
// segment tail loses only the records after the tear — replay keeps the
// prefix and reports the skip instead of failing the open.
func TestCorruptTailSkipped(t *testing.T) {
	write := func(t *testing.T) (dir, seg string, records int) {
		dir = t.TempDir()
		s, err := Open(dir, Options{SampleInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			s.AppendQuery(testQueryRecord(uint64(i), 0.5))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, filepath.Join(dir, segmentName(0)), 10
	}

	t.Run("truncated", func(t *testing.T) {
		_, seg, n := write(t)
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, st.Size()-5); err != nil {
			t.Fatal(err)
		}
		stats, err := ReplaySegment(seg, func(*Record) {})
		if err != nil {
			t.Fatalf("truncated tail failed the replay: %v", err)
		}
		if !stats.TailSkipped || stats.Records != int(n-1) {
			t.Fatalf("replay = %+v, want %d records with tail skipped", stats, n-1)
		}
	})

	t.Run("corrupt-crc", func(t *testing.T) {
		_, seg, n := write(t)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF // flip a payload byte of the last record
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stats, err := ReplaySegment(seg, func(*Record) {})
		if err != nil {
			t.Fatalf("corrupt tail failed the replay: %v", err)
		}
		if !stats.TailSkipped || stats.Records != int(n-1) {
			t.Fatalf("replay = %+v, want %d records with tail skipped", stats, n-1)
		}
	})

	t.Run("garbage-appended", func(t *testing.T) {
		dir, seg, n := write(t)
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("\x99\x99garbage after the last frame")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		// The whole-store open must also survive it.
		s, err := Open(dir, Options{SampleInterval: -1})
		if err != nil {
			t.Fatalf("Open over corrupt tail: %v", err)
		}
		defer s.Close()
		st := s.Stats()
		if st.Replay.Records != int64(n) || st.Replay.SkippedTails != 1 {
			t.Fatalf("replay stats = %+v, want %d records and 1 skipped tail",
				st.Replay, n)
		}
	})
}

// TestKillAndReopen simulates a crash: the first store is abandoned
// without Close after a sync point, and a fresh Open must resume profiles,
// lifetime counters, and coverage with no record loss before the fsync.
func TestKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{SampleInterval: -1, fsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		s1.AppendQuery(testQueryRecord(uint64(i), 0.3))
	}
	for i := 0; i < 4; i++ {
		s1.AppendAudit(obs.AuditRecord{QID: uint64(i), Table: "T", Sample: "1000",
			Predicate: "(x < ?)", Kind: "AVG", Agg: "AVG(X)",
			Covered: i != 0, Truth: 5, Lo: 4, Hi: 6})
	}
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "dies" here. (The leaked descriptor is
	// harmless to the test; a dead process would have dropped it.)

	s2, err := Open(dir, Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Replay.Records; got != n+4 {
		t.Fatalf("replayed %d records, want %d (no loss before the fsync point)",
			got, n+4)
	}
	prof, ok := profileIn(s2.Profiles(), testKey())
	if !ok {
		t.Fatal("profile did not survive the restart")
	}
	if prof.Queries != n {
		t.Fatalf("resumed profile has %d queries, want %d", prof.Queries, n)
	}
	if prof.Selectivity.N != n || math.Abs(prof.Selectivity.Mean-0.3) > 1e-9 {
		t.Fatalf("resumed selectivity dist = %+v, want n=%d mean=0.3",
			prof.Selectivity, n)
	}
	if prof.Audits != 4 || prof.Covered != 3 {
		t.Fatalf("resumed audits = %d covered = %d, want 4/3",
			prof.Audits, prof.Covered)
	}
	if math.Abs(prof.Coverage-0.75) > 1e-9 {
		t.Fatalf("resumed coverage = %v, want 0.75", prof.Coverage)
	}
	// A second restart must still see everything, including the records
	// that the second run's lifetime counters attribute to replay.
	lt := s2.Stats().Lifetime
	if lt[KindQuery] != n || lt[KindAudit] != 4 {
		t.Fatalf("lifetime = %v, want %d queries and 4 audits", lt, n)
	}
}

// TestReplayMatchesLiveProfiles: what aqpshell -history reads from a dead
// process's directory is what the live store served. Replay of the
// directory and of its one segment, torn tail and all, rebuilds the live
// Profiles(), audit counts and coverage included, though no watchdog runs.
func TestReplayMatchesLiveProfiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		q := testQueryRecord(uint64(i), float64(i+1)/16)
		if i%3 == 0 {
			q.Predicate = "(x > ?)"
			q.FellBack = true
			q.Aggs[0].Rejected = true
		}
		s.AppendQuery(q)
	}
	for i := 0; i < 7; i++ {
		pred := "(x < ?)"
		if i%2 == 0 {
			pred = "(x > ?)"
		}
		s.AppendAudit(obs.AuditRecord{QID: uint64(i), Table: "T", Sample: "1000",
			Predicate: pred, Kind: "AVG", Agg: "AVG(X)",
			Covered: i%3 != 0, Truth: 5, Lo: 4, Hi: 6})
	}
	s.AppendReject("queue_full")
	live := s.Profiles()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if prof, ok := profileIn(live, testKey()); !ok || prof.Audits != 3 || prof.Covered != 2 {
		t.Fatalf("live profile %+v, want 3 audits and 2 covered", prof)
	}

	// A torn tail: the first half of one more query's frame.
	seg := filepath.Join(dir, segmentName(0))
	frame, err := encodeFrame(&Record{Kind: KindQuery, TS: 1, Query: testQueryRecord(99, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{dir, seg} {
		got, stats, err := Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 1 || !stats[0].TailSkipped || stats[0].Records != 12+7+1 {
			t.Fatalf("Replay(%s) stats = %+v, want one segment of 20 records and its tail skipped", path, stats)
		}
		if !reflect.DeepEqual(got, live) {
			t.Fatalf("Replay(%s) profiles\n%+v\nwant the live store's\n%+v", path, got, live)
		}
	}
}

func TestProfilerFold(t *testing.T) {
	p := newProfiler()
	sels := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for i, sel := range sels {
		q := testQueryRecord(uint64(i), sel)
		q.FellBack = i == 0
		p.foldQuery(q)
	}
	// Non-ok and table-less records must not fold.
	bad := testQueryRecord(99, 0.9)
	bad.Outcome = "error"
	p.foldQuery(bad)
	anon := testQueryRecord(100, 0.9)
	anon.Table = ""
	p.foldQuery(anon)

	prof, ok := profileIn(p.snapshot(), testKey())
	if !ok {
		t.Fatal("profile missing after folds")
	}
	if prof.Queries != int64(len(sels)) {
		t.Fatalf("queries = %d, want %d", prof.Queries, len(sels))
	}
	if math.Abs(prof.Selectivity.Mean-0.3) > 1e-9 {
		t.Fatalf("selectivity mean = %v, want 0.3", prof.Selectivity.Mean)
	}
	if prof.Selectivity.P50 < 0.2 || prof.Selectivity.P50 > 0.4 {
		t.Fatalf("selectivity p50 = %v, want within [0.2, 0.4]", prof.Selectivity.P50)
	}
	if math.Abs(prof.KUsedMean-40) > 1e-9 || prof.KUsedMax != 40 {
		t.Fatalf("k used mean/max = %v/%d, want 40/40", prof.KUsedMean, prof.KUsedMax)
	}
	if math.Abs(prof.SampleFraction-0.1) > 1e-9 {
		t.Fatalf("sample fraction = %v, want 0.1", prof.SampleFraction)
	}
	if prof.FellBack != 1 {
		t.Fatalf("fell back = %d, want 1", prof.FellBack)
	}
	if prof.Techniques["closed-form"] != int64(len(sels)) {
		t.Fatalf("techniques = %v, want closed-form=%d", prof.Techniques, len(sels))
	}
	if d, ok := prof.StagesMs["scan"]; !ok || d.N != int64(len(sels)) {
		t.Fatalf("scan stage dist = %+v, want %d observations", prof.StagesMs, len(sels))
	}
	if len(p.accs) != 1 {
		t.Fatalf("%d profile keys, want 1 (bad records must not fold)", len(p.accs))
	}
}

// TestProfilerConverges: the profile's sketch median lands on the
// generating distribution's. Selectivity u² for uniform u has median 0.25
// and mean 1/3, so reading the wrong summary misses the tolerance.
func TestProfilerConverges(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		u := src.Float64()
		s.AppendQuery(testQueryRecord(uint64(i), u*u))
	}
	prof, ok := profileIn(s.Profiles(), testKey())
	if !ok {
		t.Fatal("profile missing after appends")
	}
	if got := prof.Selectivity.P50; math.Abs(got-0.25) >= 0.05 {
		t.Fatalf("selectivity p50 = %v after %d queries, want within 0.05 of 0.25", got, prof.Queries)
	}
}

func TestSLOMonitorMath(t *testing.T) {
	specs := []SLOSpec{
		{Name: "lat", Kind: SLOLatency, Objective: 0.9, ThresholdMs: 100},
		{Name: "avail", Kind: SLOAvailability, Objective: 0.99},
	}
	m := newMonitor(specs, nil, nil)
	now := int64(100000)
	for i := 0; i < 8; i++ {
		m.recordQuery(now, 10, "ok") // fast and good
	}
	m.recordQuery(now, 500, "error") // slow and bad
	m.recordQuery(now, 500, "error")
	m.recordReject(now)
	m.recordReject(now)

	byName := map[string]SLOStatus{}
	for _, st := range m.evaluate(now + 1) {
		byName[st.Spec.Name] = st
	}

	lat := byName["lat"]
	if lat.Events != 10 || lat.Bad != 2 {
		t.Fatalf("latency events/bad = %d/%d, want 10/2", lat.Events, lat.Bad)
	}
	// bad fraction 0.2 against a 0.1 budget: burn 2, breaching.
	if math.Abs(lat.BurnRate-2) > 1e-9 || !lat.Breaching {
		t.Fatalf("latency burn = %v breaching = %v, want 2/true",
			lat.BurnRate, lat.Breaching)
	}

	av := byName["avail"]
	// 10 finished + 2 rejected events; 2 errors + 2 rejects bad.
	if av.Events != 12 || av.Bad != 4 {
		t.Fatalf("availability events/bad = %d/%d, want 12/4", av.Events, av.Bad)
	}
	if !av.Breaching {
		t.Fatal("availability not breaching at 1/3 bad against a 1% budget")
	}

	// An idle window burns nothing.
	for _, st := range m.evaluate(now + 10000) {
		if st.Events != 0 || st.BurnRate != 0 || st.Breaching {
			t.Fatalf("idle window status = %+v, want zero burn", st)
		}
		if st.GoodFraction != 1 {
			t.Fatalf("idle good fraction = %v, want 1", st.GoodFraction)
		}
	}
}

// TestOpenRefusesUnknownSLOKind: a spec the monitor has no rule for is
// refused at Open, before the directory is created, rather than judged as a
// latency objective with no threshold.
func TestOpenRefusesUnknownSLOKind(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	for _, kind := range []string{"", "coverage", "Latency"} {
		h, err := Open(dir, Options{SampleInterval: -1, SLOs: []SLOSpec{
			{Name: "lat", Kind: SLOLatency, Objective: 0.99, ThresholdMs: 100},
			{Name: "odd", Kind: kind, Objective: 0.9},
		}})
		if err == nil {
			h.Close()
			t.Fatalf("kind %q: Open accepted the spec", kind)
		}
		if !strings.Contains(err.Error(), `"odd"`) {
			t.Errorf("kind %q: error %q does not name the spec", kind, err)
		}
		if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
			t.Fatalf("kind %q: Open created %s before refusing", kind, dir)
		}
	}
	h, err := Open(dir, Options{SampleInterval: -1, SLOs: []SLOSpec{
		{Name: "avail", Kind: SLOAvailability, Objective: 0.999},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}

// TestSLOWindowEdges pins the five-minute window at every alignment of
// now to the 10s slots: an event 299s old counts, one 311s old does not.
func TestSLOWindowEdges(t *testing.T) {
	specs := []SLOSpec{{Name: "lat", Kind: SLOLatency, Objective: 0.5, ThresholdMs: 1000}}
	for off := int64(0); off < slotSec; off++ {
		now := 200000 + off
		m := newMonitor(specs, nil, nil)
		m.recordQuery(now-311, 50, "ok")
		m.recordQuery(now-299, 50, "ok")
		if st := m.evaluate(now); st[0].Events != 1 {
			t.Fatalf("now %% 10 = %d: window saw %d events, want the one 299s old", off, st[0].Events)
		}
	}
}

// TestStoreWriteErrorsAreSwallowed pins the inertness contract on the I/O
// path: append failures are counted, never raised.
func TestStoreWriteErrorsAreSwallowed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.f.Close() // sabotage the active segment
	s.mu.Unlock()
	s.AppendQuery(testQueryRecord(1, 0.5)) // must not panic or error out
	st := s.Stats()
	if st.WriteErrors == 0 || st.LastErr == "" {
		t.Fatalf("stats = %+v, want the write failure counted", st)
	}
	// The in-memory fold still happened: telemetry degrades, profiles don't.
	if _, ok := profileIn(s.Profiles(), testKey()); !ok {
		t.Fatal("profile fold skipped on write error")
	}
	s.mu.Lock()
	s.f = nil // avoid double-close in Close
	s.mu.Unlock()
	s.Close()
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	s.AppendQuery(&obs.QueryRecord{})
	s.AppendAudit(obs.AuditRecord{})
	s.AppendReject("x")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Profiles() != nil || s.SLOStatuses() != nil {
		t.Fatal("nil store returned data")
	}
	if _, ok := profileIn(s.Profiles(), Key{}); ok {
		t.Fatal("nil store returned a profile")
	}
	if st := s.Stats(); st.Records != nil {
		t.Fatal("nil store returned stats")
	}
}

// TestReplayRecentWindowResumes pins replay's monitor contract: a restart
// re-admits what the ring still holds, at its recorded time, and leaves
// older records to the profiles.
func TestReplayRecentWindowResumes(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i, age := range []time.Duration{311 * time.Second, 299 * time.Second, 0} {
		s1.append(&Record{Kind: KindQuery, TS: now.Add(-age).UnixNano(),
			Query: sanitizeQuery(testQueryRecord(uint64(i), 0.5))})
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{
		SampleInterval: -1,
		SLOs:           []SLOSpec{{Name: "lat", Kind: SLOLatency, Objective: 0.5, ThresholdMs: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if sts := s2.SLOStatuses(); len(sts) != 1 || sts[0].Events != 2 {
		t.Fatalf("post-restart SLO window = %+v, want the 2 events under 300s old", sts)
	}
	if prof, ok := profileIn(s2.Profiles(), testKey()); !ok || prof.Queries != 3 {
		t.Fatalf("post-restart profile = %+v, want all 3 queries", prof)
	}
}

// profileIn finds one key's profile.
func profileIn(profiles []Profile, k Key) (Profile, bool) {
	for _, p := range profiles {
		if p.Key == k {
			return p, true
		}
	}
	return Profile{}, false
}
