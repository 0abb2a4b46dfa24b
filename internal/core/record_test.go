package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/watchdog"
)

// sinkView is what every sink must agree on about one query.
type sinkView struct {
	QID                                    uint64
	TraceID, SQL, Table, Sample, Predicate string
	Outcome                                string
	Aggs                                   []sinkAgg
}

type sinkAgg struct {
	Group, Name, Kind string
	Lo, Hi, RelErr    float64
	Technique         string
	Rejected          bool
	Cause             string
	RungsRun, Decided int
	Exact             bool
}

func viewOf(r *obs.QueryRecord) sinkView {
	v := sinkView{QID: r.QID, TraceID: r.TraceID, SQL: r.SQL, Table: r.Table,
		Sample: r.Sample, Predicate: r.Predicate, Outcome: r.Outcome}
	for _, a := range r.Aggs {
		v.Aggs = append(v.Aggs, sinkAgg{Group: a.Group, Name: a.Name, Kind: a.Kind,
			Lo: a.Lo(), Hi: a.Hi(), RelErr: a.RelErr, Technique: a.Technique,
			Rejected: a.Rejected, Cause: a.Cause, RungsRun: a.RungsRun,
			Decided: a.DecidedAfter, Exact: a.Exact})
	}
	return v
}

// eventLine is a kind=query event-log line, decoded.
type eventLine struct {
	Kind      string `json:"kind"`
	QID       uint64 `json:"qid"`
	TraceID   string `json:"trace_id"`
	SQL       string `json:"sql"`
	Table     string `json:"table"`
	Sample    string `json:"sample"`
	Predicate string `json:"predicate"`
	Outcome   string `json:"outcome"`
	Aggs      []struct {
		Group     string  `json:"group"`
		Name      string  `json:"name"`
		Kind      string  `json:"kind"`
		Lo        float64 `json:"lo"`
		Hi        float64 `json:"hi"`
		RelErr    float64 `json:"rel_err"`
		Technique string  `json:"technique"`
		Verdict   string  `json:"verdict"`
		Cause     string  `json:"cause"`
		RungsRun  int     `json:"rungs_run"`
		Decided   int     `json:"decided_after"`
		Exact     bool    `json:"exact"`
	} `json:"aggs"`
}

func (l eventLine) view() sinkView {
	v := sinkView{QID: l.QID, TraceID: l.TraceID, SQL: l.SQL, Table: l.Table,
		Sample: l.Sample, Predicate: l.Predicate, Outcome: l.Outcome}
	for _, a := range l.Aggs {
		v.Aggs = append(v.Aggs, sinkAgg{Group: a.Group, Name: a.Name, Kind: a.Kind,
			Lo: a.Lo, Hi: a.Hi, RelErr: a.RelErr, Technique: a.Technique,
			Rejected: a.Verdict == "reject", Cause: a.Cause, RungsRun: a.RungsRun,
			Decided: a.Decided, Exact: a.Exact})
	}
	return v
}

// TestOneRecordFeedsEverySink: the event log, the durable history and the
// watchdog read one record per query, so for every kind of finish — a
// grouped approximate answer with a rejected aggregate, an exact answer, a
// cached replay and a parse error — the three tell the same story, down to
// each aggregate's interval bits and the diagnostic's typed cause.
func TestOneRecordFeedsEverySink(t *testing.T) {
	var elog bytes.Buffer
	dir := t.TempDir()
	h := openTestHistory(t, dir)
	defer h.Close()
	wd := watchdog.New(watchdog.Config{AuditFraction: 1, Synchronous: true})
	e, _ := buildSessions(t, Config{
		Seed: 41, BootstrapK: 30, CacheBytes: 1 << 20,
		Obs:      obs.NewTracer(obs.Config{}),
		EventLog: obs.NewEventLog(&elog, obs.Config{}),
		Watchdog: wd,
		History:  h,
	}, 60000)
	if err := e.BuildSamples("Sessions", 20000); err != nil {
		t.Fatal(err)
	}
	// Every query the watchdog observes here is audited, so the auditor sees
	// each observed record.
	var observed []*obs.QueryRecord
	wd.Bind(func(ctx context.Context, rec *obs.QueryRecord) (map[watchdog.AggInstance]float64, error) {
		observed = append(observed, rec)
		return e.auditExact(ctx, rec)
	})

	const grouped = "SELECT AVG(Time), MAX(Time) FROM Sessions WHERE Time > 10 GROUP BY City"
	ans, err := e.Run(context.Background(), grouped)
	if err != nil {
		t.Fatal(err)
	}
	var accepted, rejected int
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			switch {
			case !a.DiagnosticOK && a.DiagnosticCause != "":
				rejected++
			case !a.Exact:
				accepted++
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("premise: want accepted and rejected aggregates in %q, got %d/%d", grouped, accepted, rejected)
	}
	if _, err := e.RunExact(context.Background(), "SELECT COUNT(*) FROM Sessions WHERE City = 'NYC'"); err != nil {
		t.Fatal(err)
	}
	if ans, err := e.Run(context.Background(), grouped); err != nil || !ans.Cached {
		t.Fatalf("premise: the repeat must replay from the answer cache (err %v)", err)
	}
	if _, err := e.Run(context.Background(), "SELECT FROM nonsense"); err == nil {
		t.Fatal("parse error expected")
	}

	var lines []sinkView
	sc := bufio.NewScanner(&elog)
	for sc.Scan() {
		var l eventLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		if l.Kind == "query" {
			lines = append(lines, l.view())
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	var stored []sinkView
	if _, err := history.ReplayDir(dir, func(r *history.Record) {
		if r.Query != nil {
			stored = append(stored, viewOf(r.Query))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 || len(stored) != 4 {
		t.Fatalf("%d event-log query lines and %d history records, want 4 each", len(lines), len(stored))
	}
	for i := range lines {
		if !reflect.DeepEqual(lines[i], stored[i]) {
			t.Errorf("query %d: event log and history disagree:\n log  %+v\n hist %+v", i, lines[i], stored[i])
		}
		if lines[i].QID == 0 || lines[i].TraceID == "" {
			t.Errorf("query %d has no identity: %+v", i, lines[i])
		}
	}
	// Only the grouped approximate answer ran on a sample without replay.
	if len(observed) != 1 {
		t.Fatalf("watchdog observed %d records, want 1", len(observed))
	}
	if got := viewOf(observed[0]); !reflect.DeepEqual(got, lines[0]) {
		t.Errorf("watchdog and event log disagree:\n wd  %+v\n log %+v", got, lines[0])
	}
	first := lines[0]
	if first.Table != "Sessions" || first.Sample != "20000" || first.Predicate != "(time > ?)" {
		t.Errorf("grouped query's shape = %+v", first)
	}
	causes := 0
	for i, a := range first.Aggs {
		if a.Rejected && a.Cause != "" {
			causes++
		}
		// Every aggregate of the sampled answer was diagnosed, so each says
		// where the ladder stopped: within its 3 rungs of p = 100.
		if a.RungsRun < 1 || a.RungsRun > 3 || a.Decided < 1 || a.Decided > 100 {
			t.Errorf("aggregate %d: ladder stopped at rung %d after %d subsamples", i, a.RungsRun, a.Decided)
		}
		if !a.Rejected && (a.RungsRun != 3 || a.Decided != 100) {
			t.Errorf("aggregate %d: accepted at rung %d after %d subsamples, want the full ladder", i, a.RungsRun, a.Decided)
		}
	}
	if causes != rejected {
		t.Errorf("%d rejected aggregates carry a cause in every sink, want %d", causes, rejected)
	}
	if fail := lines[3]; fail.Outcome != "error" || fail.Table != "" || len(fail.Aggs) != 0 {
		t.Errorf("parse error recorded as %+v", fail)
	}
}

// TestRecordKeepsQueueWaitWithoutTracer: with the tracer off the record is
// built from the request, and the queue wait the serving layer measured
// still reaches the sinks.
func TestRecordKeepsQueueWaitWithoutTracer(t *testing.T) {
	var elog bytes.Buffer
	e, _ := buildSessions(t, Config{Seed: 42, EventLog: obs.NewEventLog(&elog, obs.Config{})}, 2000)
	if _, err := e.RunWithOptions(context.Background(), "SELECT AVG(Time) FROM Sessions",
		RunOptions{QueueWait: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var line map[string]any
	if err := json.Unmarshal(elog.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line["queue_wait_ms"] != float64(2) || line["trace_id"] == nil {
		t.Fatalf("untraced event line = %v, want queue_wait_ms 2 and a trace id", line)
	}
}
