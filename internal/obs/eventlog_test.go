package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// emitOne round-trips a single event through a fresh log and returns the
// decoded record.
func emitOne(t *testing.T, opt Config, ev QueryRecord) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	NewEventLog(&buf, opt).Emit(&ev)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("event is not one JSON line: %v\n%s", err, buf.String())
	}
	return rec
}

func TestEventLogJSONRoundTrip(t *testing.T) {
	ev := QueryRecord{
		QID: 7, SQL: "SELECT AVG(x) FROM t", Outcome: "ok",
		TotalMs: 12.5, QueueWaitMs: 3.25,
		StagesMs:   map[string]float64{"scan": 8, "estimate": 3},
		SampleRows: 1000, KBudget: 100, FellBack: true,
		Aggs: []AggRecord{{
			Name: "avg(x)", Estimate: 5, Center: 5, HalfWidth: 1, RelErr: 0.2,
			Technique: "closed-form",
		}},
	}
	rec := emitOne(t, Config{}, ev)

	if rec["level"] != "INFO" {
		t.Fatalf("healthy query level = %v, want INFO", rec["level"])
	}
	if rec["kind"] != "query" || rec["qid"] != float64(7) ||
		rec["sql"] != "SELECT AVG(x) FROM t" || rec["outcome"] != "ok" {
		t.Fatalf("identity fields wrong: %v", rec)
	}
	if rec["queue_wait_ms"] != 3.25 || rec["total_ms"] != 12.5 {
		t.Fatalf("latency fields wrong: %v", rec)
	}
	if rec["sample_rows"] != float64(1000) || rec["bootstrap_k"] != float64(100) ||
		rec["fell_back"] != true {
		t.Fatalf("plan fields wrong: %v", rec)
	}
	stages := rec["stages_ms"].(map[string]any)
	if stages["scan"] != float64(8) || stages["estimate"] != float64(3) {
		t.Fatalf("stages_ms wrong: %v", stages)
	}
	agg := rec["aggs"].([]any)[0].(map[string]any)
	if agg["name"] != "avg(x)" || agg["verdict"] != "accept" || agg["lo"] != float64(4) {
		t.Fatalf("agg fields wrong: %v", agg)
	}
	for _, absent := range []string{"slow", "miscalibrated", "error"} {
		if _, ok := rec[absent]; ok {
			t.Fatalf("healthy query carries %q: %v", absent, rec)
		}
	}

	// Zero queue wait is omitted, not emitted as 0.
	ev.QueueWaitMs = 0
	if rec := emitOne(t, Config{}, ev); rec["queue_wait_ms"] != nil {
		t.Fatalf("zero queue wait emitted: %v", rec)
	}
}

func TestEventLogWarnLevels(t *testing.T) {
	base := QueryRecord{SQL: "q", Outcome: "ok", TotalMs: 1}

	slow := base
	slow.TotalMs = 250
	rec := emitOne(t, Config{SlowQueryMs: 200}, slow)
	if rec["level"] != "WARN" || rec["slow"] != true {
		t.Fatalf("slow query not flagged at Warn: %v", rec)
	}

	rejected := base
	rejected.Aggs = []AggRecord{{Name: "max(x)", Rejected: true, Cause: "pi"}}
	rec = emitOne(t, Config{}, rejected)
	if rec["level"] != "WARN" || rec["miscalibrated"] != true {
		t.Fatalf("rejected verdict not flagged at Warn: %v", rec)
	}
	if agg := rec["aggs"].([]any)[0].(map[string]any); agg["verdict"] != "reject" || agg["cause"] != "pi" {
		t.Fatalf("rejected agg rendered %v, want verdict reject with its cause", agg)
	}

	wide := base
	wide.Aggs = []AggRecord{{Name: "avg(x)", RelErr: 0.5}}
	rec = emitOne(t, Config{MaxRelErr: 0.1}, wide)
	if rec["level"] != "WARN" || rec["miscalibrated"] != true {
		t.Fatalf("rel-err past MaxRelErr not flagged at Warn: %v", rec)
	}

	failed := base
	failed.Outcome = "error"
	failed.Err = "exec blew up"
	rec = emitOne(t, Config{}, failed)
	if rec["level"] != "WARN" || rec["error"] != "exec blew up" {
		t.Fatalf("failed query not flagged at Warn: %v", rec)
	}
}

func TestEventLogNilIsNoop(t *testing.T) {
	var l *EventLog
	l.Emit(&QueryRecord{SQL: "q"}) // must not panic
}

// TestEventLogConcurrentEmits drives one log from many goroutines; the
// locked writer must keep every record an intact JSON line.
func TestEventLogConcurrentEmits(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, Config{})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit(&QueryRecord{
					QID: uint64(w*per + i), SQL: fmt.Sprintf("SELECT %d", w),
					Outcome: "ok", TotalMs: 1,
				})
			}
		}(w)
	}
	wg.Wait()
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("interleaved write corrupted a record: %v\n%s", err, sc.Text())
		}
		lines++
	}
	if lines != workers*per {
		t.Fatalf("got %d records, want %d", lines, workers*per)
	}
}

// TestQueueWaitRoundTrip pins the queue-wait plumbing end to end at the
// obs layer: the record's queue wait must surface in the rendered trace, its
// JSON encoding and the human-readable trace.
func TestQueueWaitRoundTrip(t *testing.T) {
	tr := NewTracer(Config{})
	tr.Finish(&QueryRecord{SQL: "SELECT 1", Outcome: "ok", QueueWaitMs: 1.5,
		Stages: []StageRecord{{Stage: StageScan}}})
	snap, ok := tr.Last()
	if !ok {
		t.Fatal("Last must report the finished query")
	}
	if snap.QueueWaitMs != 1.5 {
		t.Fatalf("QueueWaitMs = %v, want 1.5", snap.QueueWaitMs)
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"queue_wait_ms":1.5`)) {
		t.Fatalf("JSON missing queue_wait_ms: %s", js)
	}
	if out := FormatTrace(snap); !bytes.Contains([]byte(out), []byte("queue_wait=1.500ms")) {
		t.Fatalf("FormatTrace missing queue wait:\n%s", out)
	}

	// An unqueued query omits the field entirely.
	tr.Finish(&QueryRecord{SQL: "SELECT 2", Outcome: "error", Err: "nope"})
	snap2, _ := tr.Last()
	if js, _ := json.Marshal(snap2); bytes.Contains(js, []byte("queue_wait_ms")) {
		t.Fatalf("zero queue wait must be omitted: %s", js)
	}
}
