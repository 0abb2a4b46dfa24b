package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// stressQueries is the mixed workload for the concurrency tests: closed
// forms, scaled sums, bootstrap-only percentiles, a UDF, grouping, and a
// query that triggers the diagnostic's full subsample ladder.
var stressQueries = []string{
	"SELECT AVG(Time) FROM Sessions",
	"SELECT SUM(Time), COUNT(*) FROM Sessions WHERE Time > 50",
	"SELECT PERCENTILE(Time, 0.9) FROM Sessions",
	"SELECT City, AVG(Time) FROM Sessions GROUP BY City",
	"SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE City = 'NYC'",
	"SELECT RANGE(Time) FROM Sessions",
	"SELECT STDDEV(Time) FROM Sessions GROUP BY City",
}

// stressEngine builds the shared fixture: a sampled Sessions table plus the
// RANGE UDF the workload references.
func stressEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, _ := buildSessions(t, cfg, 20000)
	e.RegisterUDF("RANGE", func(values, _ []float64) float64 {
		if len(values) == 0 {
			return 0
		}
		lo, hi := values[0], values[0]
		for _, v := range values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	})
	e.RegisterUDF("STDDEV", func(values, _ []float64) float64 {
		if len(values) < 2 {
			return 0
		}
		var sum float64
		for _, v := range values {
			sum += v
		}
		mean := sum / float64(len(values))
		var ss float64
		for _, v := range values {
			ss += (v - mean) * (v - mean)
		}
		return ss / float64(len(values)-1)
	})
	if err := e.BuildSamples("Sessions", 4000); err != nil {
		t.Fatal(err)
	}
	return e
}

// answerKey flattens the statistically meaningful fields of an answer so
// two answers can be compared for bit-identity.
func answerKey(a *Answer) string {
	s := fmt.Sprintf("sample=%d counters=%+v", a.SampleRows, a.Counters)
	for _, g := range a.Groups {
		s += fmt.Sprintf("|%s", g.Key)
		for _, agg := range g.Aggs {
			s += fmt.Sprintf(";%s est=%x half=%x rel=%x tech=%s diag=%v/%s exact=%v",
				agg.Name, agg.Estimate, agg.ErrorBar.HalfWidth, agg.RelErr,
				agg.Technique, agg.DiagnosticOK, agg.DiagnosticReason, agg.Exact)
		}
	}
	return s
}

// TestConcurrentStress runs the mixed workload from many goroutines against
// one engine and requires every concurrent answer — estimates, error bars,
// diagnostic verdicts, and executor counters — to be bit-identical to the
// serial answer for the same query. Run under -race this is the
// race-cleanliness proof for the whole pipeline.
func TestConcurrentStress(t *testing.T) {
	workers := 8
	rounds := 3
	if testing.Short() {
		workers, rounds = 4, 1
	}
	serial := stressEngine(t, Config{Seed: 42})
	want := make(map[string]string, len(stressQueries))
	for _, q := range stressQueries {
		ans, err := serial.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want[q] = answerKey(ans)
	}

	shared := stressEngine(t, Config{Seed: 42})
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(stressQueries))
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger each worker's starting query so different query
				// shapes overlap in time.
				for i := range stressQueries {
					q := stressQueries[(i+w)%len(stressQueries)]
					ans, err := shared.Run(context.Background(), q)
					if err != nil {
						errs <- fmt.Errorf("worker %d %q: %w", w, q, err)
						return
					}
					if got := answerKey(ans); got != want[q] {
						errs <- fmt.Errorf("worker %d %q: concurrent answer diverged from serial\n got %s\nwant %s",
							w, q, got, want[q])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentCatalogMutation interleaves sample/UDF registration with
// queries; under -race this proves the copy-on-write catalog is sound. The
// queries' answers are not compared (the catalog is changing underneath
// them) — only that each completes without error.
func TestConcurrentCatalogMutation(t *testing.T) {
	e := stressEngine(t, Config{Seed: 5})
	stop := make(chan struct{})
	var mutErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.BuildSamples("Sessions", 500+100*(i%5)); err != nil {
				mutErr = err
				return
			}
			if err := e.BuildStratifiedSample("Sessions", "City", 200); err != nil {
				mutErr = err
				return
			}
			e.RegisterUDF(fmt.Sprintf("F%d", i), func(values, _ []float64) float64 {
				return float64(len(values))
			})
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				for _, q := range stressQueries {
					if _, err := e.Run(context.Background(), q); err != nil {
						t.Errorf("query during mutation: %v", err)
						return
					}
				}
			}
		}()
	}
	// Let queries finish first, then stop the mutator.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	if mutErr != nil {
		t.Fatalf("catalog mutation: %v", mutErr)
	}
}

// settleGoroutines waits for the goroutine count to drop back to at most
// base, tolerating the runtime's own background goroutines.
func settleGoroutines(t *testing.T, base int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= base {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestCancellationNoLeaks cancels queries mid-flight — during the
// bootstrap/diagnostic phase, the expensive part — and checks the three
// cancellation contracts: the error wraps context.Canceled and carries the
// qN query id, the engine returns promptly (within 50ms of the cancel,
// i.e. cancellation latency is one kernel block, not one column), and no
// worker goroutine outlives the call.
func TestCancellationNoLeaks(t *testing.T) {
	// Large sample + large K so an uncancelled run takes far longer than
	// the latency bound we assert (roughly seconds, not minutes — the
	// calibration run below executes once uncancelled).
	e, _ := buildSessions(t, Config{Seed: 6, BootstrapK: 1200, Workers: 4}, 100000)
	if err := e.BuildSamples("Sessions", 60000); err != nil {
		t.Fatal(err)
	}
	// A median the diagnostic accepts: a rejected aggregate is decided in a
	// few subsamples and skips its bootstrap, which leaves nothing to cancel.
	const q = "SELECT PERCENTILE(Time, 0.5) FROM Sessions"

	// Calibrate: the uncancelled query must be slow enough that an early
	// return could only come from cancellation.
	start := time.Now()
	if _, err := e.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 200*time.Millisecond {
		t.Skipf("uncancelled query too fast (%v) to observe cancellation", full)
	}

	// The 50ms contract is for production builds; the race detector's ~10x
	// instrumentation slowdown inflates wall-clock latency, so scale the
	// bound rather than lose the (still tight) assertion under -race.
	bound := 50 * time.Millisecond
	if raceDetectorEnabled {
		bound = 500 * time.Millisecond
	}
	base := runtime.NumGoroutine()
	for _, delay := range []time.Duration{
		5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		ans, err := e.Run(ctx, q)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Fatalf("delay %v: query completed (%v) despite cancellation", delay, elapsed)
		}
		if ans != nil {
			t.Errorf("delay %v: cancelled query returned a non-nil answer", delay)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("delay %v: error %v does not wrap context.Canceled", delay, err)
		}
		if want := "q"; !containsQueryID(err.Error()) {
			t.Errorf("delay %v: error %q does not carry the %sN query id", delay, err, want)
		}
		if over := elapsed - delay; over > bound {
			t.Errorf("delay %v: returned %v after cancel, want <= %v", delay, over, bound)
		}
	}
	if n := settleGoroutines(t, base); n > base {
		t.Errorf("goroutines leaked: %d before, %d after settle", base, n)
	}
}

// TestDeadlineExceededIdentity covers the deadline flavour of cancellation
// plus the trace outcome label.
func TestDeadlineExceededIdentity(t *testing.T) {
	tr := obs.NewTracer(obs.Config{})
	e, _ := buildSessions(t, Config{Seed: 8, BootstrapK: 20000, Workers: 2, Obs: tr}, 50000)
	if err := e.BuildSamples("Sessions", 40000); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := e.Run(ctx, "SELECT PERCENTILE(Time, 0.5) FROM Sessions")
	if err == nil {
		t.Skip("query finished inside 5ms; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	last, ok := tr.Last()
	if !ok {
		t.Fatal("no trace recorded")
	}
	if last.Outcome != "cancelled" {
		t.Errorf("trace outcome = %q, want %q", last.Outcome, "cancelled")
	}
}

// containsQueryID reports whether the error message carries a "qN" token —
// the engine's per-query identifier.
func containsQueryID(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == 'q' && s[i+1] >= '0' && s[i+1] <= '9' {
			return true
		}
	}
	return false
}

// TestCountersAdditiveUnderConcurrency checks the executor's scan counters
// aggregate exactly: each concurrent run's counters equal the serial run's,
// so shared counter state is not leaking between queries.
func TestCountersAdditiveUnderConcurrency(t *testing.T) {
	e := stressEngine(t, Config{Seed: 10})
	const q = "SELECT SUM(Time) FROM Sessions WHERE Time > 50"
	ref, err := e.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]exec.Counters, 6)
	for i := range got {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := e.Run(context.Background(), q)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			got[i] = ans.Counters
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c != ref.Counters {
			t.Errorf("run %d counters %+v != serial %+v", i, c, ref.Counters)
		}
	}
}
