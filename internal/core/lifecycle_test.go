package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/watchdog"
)

// lifecycleRig is an engine with every observer attached and the answer cache
// on: Sessions has two uniform samples and a stratified one on City, Raw has
// none.
type lifecycleRig struct {
	e      *Engine
	tr     *obs.Tracer
	wd     *watchdog.Watchdog
	events *bytes.Buffer
}

func newLifecycleRig(t *testing.T) lifecycleRig {
	t.Helper()
	r := lifecycleRig{tr: obs.NewTracer(obs.Config{}), events: &bytes.Buffer{},
		wd: watchdog.New(watchdog.Config{Synchronous: true})}
	h := openTestHistory(t, t.TempDir())
	t.Cleanup(func() { h.Close() })
	tbl := verdictTable()
	r.e = New(Config{Seed: 5, Workers: 2, BootstrapK: 20, CacheBytes: 1 << 20,
		Obs: r.tr, EventLog: obs.NewEventLog(r.events, obs.Config{}), Watchdog: r.wd, History: h})
	for _, name := range []string{"Sessions", "Raw"} {
		if err := r.e.RegisterTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.e.BuildSamples("Sessions", 8000, 20000); err != nil {
		t.Fatal(err)
	}
	if err := r.e.BuildStratifiedSample("Sessions", "City", 3000); err != nil {
		t.Fatal(err)
	}
	return r
}

// counts is everything a finished query leaves behind.
type counts struct {
	traces, events, history, watched, probes, entries int64
}

func (r lifecycleRig) counts() counts {
	cs := r.e.CacheStatsSnapshot(0).Answer
	return counts{
		traces:  int64(len(r.tr.Recent())),
		events:  int64(strings.Count(r.events.String(), "\n")),
		history: r.e.hist.Stats().Records["query"],
		watched: int64(r.wd.Status().Observations),
		probes:  cs.Hits + cs.Misses,
		entries: int64(cs.Entries),
	}
}

// TestOneLifecycle holds every way into the engine to the invariants of the
// one lifecycle: a request, whatever its mode and however it arrives, leaves
// exactly one trace with the caller's trace identity, one event-log record and
// one history record; its queue wait reaches the snapshot; the watchdog sees it
// iff it ran on a sample and is not a replay; and only plain requests touch the
// answer cache.
func TestOneLifecycle(t *testing.T) {
	const wait = 3 * time.Millisecond
	solo := func(opts RunOptions) func(lifecycleRig, context.Context, string) (*Answer, error) {
		return func(r lifecycleRig, ctx context.Context, sql string) (*Answer, error) {
			opts.QueueWait = wait
			return r.e.RunWithOptions(ctx, sql, opts)
		}
	}
	wantExact := func(t *testing.T, a *Answer) {
		if a.SampleRows != 0 || !a.Groups[0].Aggs[0].Exact {
			t.Errorf("not an exact answer: %d sample rows", a.SampleRows)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name                     string
		sql                      string
		warm                     bool // answer sql once first, so the request under test is a replay
		ctx                      context.Context
		run                      func(lifecycleRig, context.Context, string) (*Answer, error)
		watched, probes, entries int64
		noWait                   bool   // the entry point has no queue wait to carry
		outcome                  string // "ok" when empty
		check                    func(*testing.T, *Answer)
	}{
		{name: "plain", sql: "SELECT AVG(g) FROM Sessions", run: solo(RunOptions{}),
			watched: 1, probes: 1, entries: 1},
		{name: "capped K", sql: "SELECT PERCENTILE(g, 0.5) FROM Sessions", run: solo(RunOptions{BootstrapK: 8}),
			watched: 1, probes: 1, entries: 1,
			check: func(t *testing.T, a *Answer) {
				if a.Plan.Opt.BootstrapK != 8 {
					t.Errorf("BootstrapK = %d, want the cap 8", a.Plan.Opt.BootstrapK)
				}
			}},
		{name: "exact", sql: "SELECT AVG(g) FROM Sessions", run: solo(RunOptions{Exact: true}),
			check: wantExact},
		{name: "plain, no sample", sql: "SELECT AVG(g) FROM Raw", run: solo(RunOptions{}),
			probes: 1, entries: 1, check: wantExact},
		{name: "replay via CachedAnswer", sql: "SELECT AVG(g) FROM Sessions", warm: true, noWait: true,
			run: func(r lifecycleRig, ctx context.Context, sql string) (*Answer, error) {
				ans, ok := r.e.CachedAnswer(ctx, sql, 0)
				if !ok {
					return nil, errors.New("no cached answer")
				}
				return ans, nil
			},
			probes: 1,
			check: func(t *testing.T, a *Answer) {
				if !a.Cached {
					t.Error("not marked Cached")
				}
			}},
		{name: "replay inside RunWithOptions", sql: "SELECT AVG(g) FROM Sessions", warm: true, run: solo(RunOptions{}),
			probes: 1,
			check: func(t *testing.T, a *Answer) {
				if !a.Cached {
					t.Error("not marked Cached")
				}
			}},
		{name: "parse error", sql: "SELECT FROM WHERE", run: solo(RunOptions{}), probes: 1, outcome: "error"},
		{name: "unknown table", sql: "SELECT AVG(g) FROM NoSuch", run: solo(RunOptions{}), probes: 1, outcome: "error"},
		{name: "pre-cancelled ctx", sql: "SELECT AVG(g) FROM Sessions", ctx: cancelled, run: solo(RunOptions{}),
			probes: 1, outcome: "cancelled"},
	}
	qid := regexp.MustCompile(`q\d+ \(SELECT`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newLifecycleRig(t)
			if tc.warm {
				if _, err := r.e.Run(context.Background(), tc.sql); err != nil {
					t.Fatal(err)
				}
			}
			if tc.outcome == "" {
				tc.outcome = "ok"
			}
			parent, _ := obs.ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			before := r.counts()
			r.events.Reset()
			ans, err := tc.run(r, obs.ContextWithTrace(ctx, parent), tc.sql)
			after := r.counts()

			if (err == nil) != (tc.outcome == "ok") {
				t.Fatalf("err = %v, want outcome %s", err, tc.outcome)
			}
			if tc.outcome == "cancelled" && !(errors.Is(err, context.Canceled) && qid.MatchString(err.Error())) {
				t.Errorf("cancelled request's error %q does not wrap ctx.Err() with the query id", err)
			}
			if err == nil && tc.check != nil {
				tc.check(t, ans)
			}
			want := counts{
				traces:  before.traces + 1,
				events:  1,
				history: before.history + 1,
				watched: before.watched + tc.watched,
				probes:  before.probes + tc.probes,
				entries: before.entries + tc.entries,
			}
			if after != want {
				t.Errorf("left behind %+v, want %+v", after, want)
			}

			// The request's own trace: once in the ring, under the caller's
			// identity, with its queue wait and outcome.
			s := r.tr.Recent()[0]
			if s.SQL != tc.sql {
				t.Fatalf("the newest trace is of %q, want %q", s.SQL, tc.sql)
			}
			if s.TraceID != parent.TraceIDString() || s.SpanID != parent.SpanIDString() || s.ParentSpanID != parent.ParentString() {
				t.Errorf("trace identity %s/%s/%s is not the caller's %s", s.TraceID, s.SpanID, s.ParentSpanID, parent.Traceparent())
			}
			if s.Outcome != tc.outcome {
				t.Errorf("trace outcome %q, want %q", s.Outcome, tc.outcome)
			}
			if wantMs := float64(wait) / float64(time.Millisecond); !tc.noWait && s.QueueWaitMs != wantMs {
				t.Errorf("QueueWaitMs = %v, want %v", s.QueueWaitMs, wantMs)
			}
			var rec struct {
				Kind, SQL, Outcome string
				TraceID            string `json:"trace_id"`
			}
			for _, line := range strings.Split(strings.TrimSpace(r.events.String()), "\n") {
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("event line %q: %v", line, err)
				}
				if rec.SQL == tc.sql {
					break
				}
			}
			if rec.SQL != tc.sql || rec.Kind != "query" || rec.Outcome != tc.outcome || rec.TraceID != s.TraceID {
				t.Errorf("event-log record %+v does not describe the request", rec)
			}
		})
	}
}

// TestExplainRendersThePlanRunExecutes: Explain goes through the same sample
// choice and plan construction as Run.
func TestExplainRendersThePlanRunExecutes(t *testing.T) {
	e, tbl := buildSessions(t, Config{Seed: 11}, 100000)
	if err := e.RegisterTable("Raw", tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("Sessions", 50000); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildStratifiedSample("Sessions", "City", 4500); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q          string
		stratified bool
	}{
		{"SELECT City, AVG(Time) FROM Sessions GROUP BY City", true},
		// A population-scaled SUM must not run on the stratified sample.
		{"SELECT City, SUM(Time) FROM Sessions GROUP BY City", false},
		{"SELECT AVG(Time) FROM Raw", false},
	} {
		ans, err := e.Run(context.Background(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if onStratified := ans.SampleRows == 4*4500; onStratified != tc.stratified {
			t.Errorf("%s ran on %d sample rows; stratified = %v, want %v", tc.q, ans.SampleRows, onStratified, tc.stratified)
		}
		got, err := e.Explain(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if want := ans.Plan.Explain(); got != want {
			t.Errorf("%s\nExplain:\n%s\nthe plan Run executed:\n%s", tc.q, got, want)
		}
	}
}
