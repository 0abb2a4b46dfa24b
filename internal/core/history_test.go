package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/watchdog"
)

func openTestHistory(t *testing.T, dir string) *history.Store {
	t.Helper()
	h, err := history.Open(dir, history.Options{
		SampleInterval: -1,
		SLOs: []history.SLOSpec{
			{Name: "lat", Kind: history.SLOLatency, Objective: 0.99, ThresholdMs: 60000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHistoryDoesNotPerturbAnswers extends the inertness invariant to the
// durable-telemetry layer: tracer + event log + watchdog + history store
// with SLO monitoring must leave answers bit-identical to a bare engine.
func TestHistoryDoesNotPerturbAnswers(t *testing.T) {
	mk := func(full bool) *Engine {
		cfg := Config{Seed: 23, Workers: 3, BootstrapK: 30}
		if full {
			cfg.Obs = obs.NewTracer(obs.Config{})
			cfg.Watchdog = watchdog.New(watchdog.Config{
				AuditFraction: 1, Synchronous: true,
				Metrics: cfg.Obs.Registry(),
			})
			h := openTestHistory(t, t.TempDir())
			t.Cleanup(func() { h.Close() })
			cfg.History = h
		}
		e, _ := buildSessions(t, cfg, 30000)
		if err := e.BuildSamples("Sessions", obsSampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	loaded, plain := mk(true), mk(false)
	for _, q := range obsTestQueries {
		a, err := loaded.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("%s: group counts differ", q)
		}
		for gi := range a.Groups {
			for ai := range a.Groups[gi].Aggs {
				x, y := a.Groups[gi].Aggs[ai], b.Groups[gi].Aggs[ai]
				if x.Estimate != y.Estimate ||
					x.ErrorBar.HalfWidth != y.ErrorBar.HalfWidth ||
					x.DiagnosticOK != y.DiagnosticOK ||
					x.Technique != y.Technique {
					t.Fatalf("%s: with history %+v != bare %+v", q, x, y)
				}
			}
		}
	}
}

// TestHistoryWriteThrough drives the full pipeline — finishQuery records,
// watchdog audit observer, restart replay — and asserts the workload
// profiler sees the plan shapes the engine executed.
func TestHistoryWriteThrough(t *testing.T) {
	dir := t.TempDir()
	h := openTestHistory(t, dir)
	wd := watchdog.New(watchdog.Config{AuditFraction: 1, Synchronous: true})
	e, _ := buildSessions(t, Config{
		Seed: 31, BootstrapK: 30,
		Obs:      obs.NewTracer(obs.Config{}),
		Watchdog: wd,
		History:  h,
	}, 20000)
	if err := e.BuildSamples("Sessions", 5000); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("SELECT AVG(Time) FROM Sessions WHERE Time > %d", 30+i)
		if _, err := e.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	wd.Close() // drain audits through the observer

	key := history.Key{
		Table: "Sessions", Sample: "5000", Agg: "AVG", Predicate: "(time > ?)",
	}
	prof, ok := historyProfile(h, key)
	if !ok {
		var keys []history.Key
		for _, p := range h.Profiles() {
			keys = append(keys, p.Key)
		}
		t.Fatalf("no profile for %v; have %v", key, keys)
	}
	if prof.Queries != n {
		t.Fatalf("profile has %d queries, want %d", prof.Queries, n)
	}
	if prof.Selectivity.N != n || prof.Selectivity.Mean <= 0 || prof.Selectivity.Mean > 1 {
		t.Fatalf("selectivity dist = %+v, want %d in-(0,1] observations",
			prof.Selectivity, n)
	}
	if prof.SampleFraction <= 0 || prof.SampleFraction > 0.5 {
		t.Fatalf("sample fraction = %v, want ~5000/20000", prof.SampleFraction)
	}
	if _, ok := prof.StagesMs["scan"]; !ok {
		t.Fatalf("profile stages %v lack scan", prof.StagesMs)
	}
	if prof.Audits != n {
		t.Fatalf("profile audits = %d, want %d (every query audited)", prof.Audits, n)
	}
	if prof.Coverage <= 0 {
		t.Fatal("audited coverage not recorded")
	}

	// SLO monitor saw the queries.
	for _, st := range h.SLOStatuses() {
		if st.Spec.Name == "lat" && st.Events != n {
			t.Fatalf("latency SLO saw %d events, want %d", st.Events, n)
		}
	}

	// Restart: a fresh store over the same directory resumes the profile.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := openTestHistory(t, dir)
	defer h2.Close()
	prof2, ok := historyProfile(h2, key)
	if !ok || prof2.Queries != n || prof2.Audits != n {
		t.Fatalf("restarted profile = %+v ok=%v, want %d queries and audits resumed",
			prof2, ok, n)
	}
}

// historyProfile finds one key's profile among the store's profiles.
func historyProfile(h *history.Store, k history.Key) (history.Profile, bool) {
	for _, p := range h.Profiles() {
		if p.Key == k {
			return p, true
		}
	}
	return history.Profile{}, false
}
