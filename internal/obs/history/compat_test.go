package history

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Payloads of one query frame and its audit frame exactly as a pre-
// obs.QueryRecord engine wrote them (an audited AVG over a 5000-row
// sample). Only the "ts" value is re-stamped, so the records land inside
// the SLO monitor's retention.
const (
	parentQueryFrame = `{"kind":"query","ts":%d,"query":{"qid":1,"trace_id":"303aee856357f26de67f09ea3218acc3","sql":"SELECT AVG(Time) FROM Sessions WHERE Time \u003e 30","table":"Sessions","sample":"5000","predicate":"(time \u003e ?)","outcome":"ok","total_ms":0.421984,"stages_ms":{"estimate":0.042854,"parse":0.069772,"plan":0.005781,"scan":0.173558},"selectivity":0.9328,"sample_fraction":0.25,"aggs":[{"kind":"AVG","rel_err":0.008028545257899027,"technique":"closed-form"}]}}`
	parentAuditFrame = `{"kind":"audit","ts":%d,"audit":{"qid":1,"trace_id":"303aee856357f26de67f09ea3218acc3","table":"Sessions","sample":"5000","predicate":"(time \u003e ?)","kind":"AVG","agg":"avg","covered":true,"truth":62.63982215003528,"lo":62.306636371370566,"hi":63.3151969455356}}`
)

// TestReplayParentSchemaSegment pins on-disk compatibility: a segment in
// the schema the history wrote before it shared obs.QueryRecord with the
// event log and the watchdog replays into the same records, workload
// profile, SLO counts and /debug/history stats as the same outcome appended
// through the shared types.
func TestReplayParentSchemaSegment(t *testing.T) {
	specs := []SLOSpec{
		{Name: "lat", Kind: SLOLatency, Objective: 0.99, ThresholdMs: 1000},
		{Name: "avail", Kind: SLOAvailability, Objective: 0.99},
	}
	now := time.Now().UnixNano()

	parent := writeSegment(t, fmt.Sprintf(parentQueryFrame, now), fmt.Sprintf(parentAuditFrame, now))

	current := t.TempDir()
	s, err := Open(current, Options{SampleInterval: -1, SLOs: specs})
	if err != nil {
		t.Fatal(err)
	}
	s.AppendQuery(&obs.QueryRecord{
		QID: 1, TraceID: "303aee856357f26de67f09ea3218acc3",
		SQL: "SELECT AVG(Time) FROM Sessions WHERE Time > 30", Table: "Sessions",
		Sample: "5000", Predicate: "(time > ?)", Outcome: "ok", TotalMs: 0.421984,
		StagesMs: map[string]float64{"estimate": 0.042854, "parse": 0.069772,
			"plan": 0.005781, "scan": 0.173558},
		Selectivity: 0.9328, SampleFraction: 0.25,
		Aggs: []obs.AggRecord{{Kind: "AVG", RelErr: 0.008028545257899027,
			Technique: "closed-form"}},
	})
	s.AppendAudit(obs.AuditRecord{
		QID: 1, TraceID: "303aee856357f26de67f09ea3218acc3", Table: "Sessions",
		Sample: "5000", Predicate: "(time > ?)", Kind: "AVG", Agg: "avg",
		Covered: true, Truth: 62.63982215003528,
		Lo: 62.306636371370566, Hi: 63.3151969455356,
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	records := func(dir string) []Record { return replayRecords(t, dir) }
	if got, want := records(parent), records(current); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent-schema segment replays as\n%+v\nwant\n%+v", got, want)
	}
	// With none of the fields the parent lacked set, the shared types frame
	// the parent's bytes.
	for i, r := range records(current) {
		r.TS = now
		got, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf([]string{parentQueryFrame, parentAuditFrame}[i], now); string(got) != want {
			t.Fatalf("frame %d:\n got %s\nwant %s", i, got, want)
		}
	}

	reopen := func(dir string) *Store {
		s, err := Open(dir, Options{SampleInterval: -1, SLOs: specs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	old, cur := reopen(parent), reopen(current)
	if got, want := old.Profiles(), cur.Profiles(); len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("profiles: parent segment %+v, shared types %+v", got, want)
	}
	if got, want := old.SLOStatuses(), cur.SLOStatuses(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SLO statuses: parent segment %+v, shared types %+v", got, want)
	}
	for _, st := range old.SLOStatuses() {
		if st.Events != 1 {
			t.Fatalf("SLO %s saw %d events, want the replayed one", st.Spec.Name, st.Events)
		}
	}
	gs, ws := old.Stats(), cur.Stats()
	if !reflect.DeepEqual(gs.Lifetime, ws.Lifetime) || gs.Replay.Records != ws.Replay.Records ||
		gs.Replay.SkippedTails != ws.Replay.SkippedTails || gs.Segments != ws.Segments {
		t.Fatalf("/debug/history stats: parent segment %+v, shared types %+v", gs, ws)
	}
}

// TestReplayIgnoresDroppedFields: a segment written while query records
// still carried shared_scan (set when a shared-scan batch answered the
// query) replays as the same record without it.
func TestReplayIgnoresDroppedFields(t *testing.T) {
	plain := fmt.Sprintf(parentQueryFrame, 1)
	withShared := strings.Replace(plain, `"sample_fraction":0.25,`, `"sample_fraction":0.25,"shared_scan":true,`, 1)
	if withShared == plain {
		t.Fatal("premise: the frame has a sample_fraction to insert beside")
	}
	got, want := replayRecords(t, writeSegment(t, withShared)), replayRecords(t, writeSegment(t, plain))
	if len(got) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("a frame with shared_scan replays as\n%+v\nwant\n%+v", got, want)
	}
}

// writeSegment writes the payloads as one segment's frames in a new
// directory, and returns the directory.
func writeSegment(t *testing.T, payloads ...string) string {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSegmentHeader(f); err != nil {
		t.Fatal(err)
	}
	for _, payload := range payloads {
		var hdr [frameOverhead]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE([]byte(payload)))
		if _, err := f.Write(append(hdr[:], payload...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replayRecords replays dir's records with their timestamps zeroed.
func replayRecords(t *testing.T, dir string) []Record {
	t.Helper()
	var out []Record
	if _, err := ReplayDir(dir, func(r *Record) {
		c := *r
		c.TS = 0
		out = append(out, c)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
