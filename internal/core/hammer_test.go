package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/watchdog"
)

// TestObsHTTPHammer hits every debug surface concurrently while queries
// (and watchdog audits) run. The assertion is the race detector's: no
// handler may observe tracer, registry, event log or watchdog state
// without synchronization. Statuses are checked too — the trace endpoint
// may 404 once the ring evicts the requested id, everything else must 200.
func TestObsHTTPHammer(t *testing.T) {
	wd := watchdog.New(watchdog.Config{AuditFraction: 0.25, Synchronous: true})
	e, _ := buildSessions(t, Config{
		Seed: 26, Workers: 2, BootstrapK: 20,
		MetricsAddr: "127.0.0.1:0",
		EventLog:    obs.NewEventLog(io.Discard, obs.Config{}),
		Watchdog:    wd,
	}, 10000)
	defer e.Close()
	if err := e.BuildSamples("Sessions", 2000); err != nil {
		t.Fatal(err)
	}
	addr, err := e.MetricsEndpoint()
	if err != nil {
		t.Fatal(err)
	}

	const queryWorkers, queriesPer = 3, 8
	var running atomic.Int32
	running.Store(queryWorkers)
	var wg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			for i := 0; i < queriesPer; i++ {
				q := fmt.Sprintf("SELECT AVG(Time), COUNT(*) FROM Sessions WHERE Time > %d", 40+w*10+i)
				if _, err := e.Run(context.Background(), q); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	paths := []string{
		"/metrics",
		"/debug/queries",
		"/debug/queries/1/trace",
		"/debug/calibration",
		"/debug/pprof/cmdline",
	}
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			// Keep polling as long as any query worker runs, so requests
			// genuinely overlap live mutation; then one final read.
			for done := false; !done; done = running.Load() == 0 {
				resp, err := http.Get("http://" + addr + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("GET %s: read: %v", path, err)
				}
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
				case resp.StatusCode == http.StatusNotFound &&
					path == "/debug/queries/1/trace":
					// Ring eviction; still a valid concurrent read.
				default:
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	wg.Wait()

	// The surfaces must have seen real traffic: every query traced, some
	// audited.
	if got := len(e.Tracer().Recent()); got == 0 {
		t.Fatal("no traces recorded")
	}
	if st := wd.Status(); st.Observations != queryWorkers*queriesPer {
		t.Fatalf("watchdog observed %d queries, want %d",
			st.Observations, queryWorkers*queriesPer)
	}
}
