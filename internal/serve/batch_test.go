package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestBatchedSubmitMatchesDirect proves batching is invisible to clients:
// answers produced through a MaxBatch server are bit-identical to the same
// queries run directly on the engine.
func TestBatchedSubmitMatchesDirect(t *testing.T) {
	direct := testEngine(t, core.Config{Seed: 61, BootstrapK: 30})
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT AVG(Price), COUNT(*) FROM Orders WHERE Price > %d", 4+i)
	}
	want := make([]*core.Answer, len(queries))
	for i, q := range queries {
		ans, err := direct.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans
	}

	eng := testEngine(t, core.Config{Seed: 61, BootstrapK: 30})
	s := New(eng, Config{MaxInFlight: 8, MaxBatch: 8, BatchHold: 50 * time.Millisecond})
	got := make([]*core.Answer, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			ans, err := s.Submit(context.Background(), q)
			if err != nil {
				t.Errorf("%q: %v", q, err)
				return
			}
			got[i] = ans
		}(i, q)
	}
	wg.Wait()

	batched := 0
	for i := range queries {
		if got[i] == nil {
			continue
		}
		if got[i].SharedScan {
			batched++
		}
		if len(got[i].Groups) != len(want[i].Groups) {
			t.Fatalf("%q: group count differs", queries[i])
		}
		for gi := range want[i].Groups {
			for ai := range want[i].Groups[gi].Aggs {
				g, w := got[i].Groups[gi].Aggs[ai], want[i].Groups[gi].Aggs[ai]
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%q: agg %d:\n  got  %+v\n  want %+v", queries[i], ai, g, w)
				}
			}
		}
	}
	if batched == 0 {
		t.Error("no answer was produced from a shared-scan batch")
	}
}

// TestBatchFormationSealsAtMaxBatch proves a full group executes without
// waiting out the hold window, and that batch metrics are recorded.
func TestBatchFormationSealsAtMaxBatch(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t, core.Config{Seed: 62, BootstrapK: 10})
	// Absurdly long hold: only the fill path can complete the batch fast.
	s := New(eng, Config{MaxInFlight: 4, MaxBatch: 4,
		BatchHold: time.Hour, Metrics: reg})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(),
				fmt.Sprintf("SELECT AVG(Price) FROM Orders WHERE Price > %d", i))
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("full batch waited %v; fill-seal did not fire", elapsed)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("member %d: %v", i, err)
		}
	}
	if v := reg.Counter("aqp_serve_batches_total", "").Value(); v < 1 {
		t.Errorf("batches_total = %d", v)
	}
	if v := reg.Counter("aqp_serve_batched_queries_total", "").Value(); v != 4 {
		t.Errorf("batched_queries_total = %d", v)
	}
}

// TestBatchHoldExpiry proves a lone batchable query is not stuck waiting
// for batchmates that never arrive.
func TestBatchHoldExpiry(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 63, BootstrapK: 10})
	s := New(eng, Config{MaxBatch: 16, BatchHold: 5 * time.Millisecond})
	start := time.Now()
	ans, err := s.Submit(context.Background(), "SELECT AVG(Price) FROM Orders")
	if err != nil {
		t.Fatal(err)
	}
	if ans == nil || len(ans.Groups) == 0 {
		t.Fatal("empty answer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lone query held %v", elapsed)
	}
}

// TestNonBatchableBypassesBatcher: exact-path queries (no usable sample)
// must not enter group formation at all.
func TestNonBatchableBypassesBatcher(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 64})
	// DISTINCT of sorts: register a second, sampleless table.
	s := New(eng, Config{MaxBatch: 8, BatchHold: time.Hour})
	if _, ok := eng.BatchKey("SELECT AVG(Price) FROM Missing"); ok {
		t.Fatal("bogus query batchable")
	}
	// A malformed query must surface its parse error promptly, not hang in
	// a forming group.
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "SELECT FROM WHERE")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("malformed query succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("malformed query entered the batcher and hung")
	}
}

// TestBatchMemberCancellation: a member whose context dies while the group
// is held open returns promptly; its batchmates still get answers.
func TestBatchMemberCancellation(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 65, BootstrapK: 10})
	s := New(eng, Config{MaxInFlight: 8, MaxBatch: 8, BatchHold: 300 * time.Millisecond})

	// Leader with a healthy context.
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "SELECT AVG(Price) FROM Orders WHERE Price > 1")
		leaderDone <- err
	}()
	waitFor(t, "group to form", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.batches) > 0
	})

	// Joiner that gives up while the group is held open.
	jctx, jcancel := context.WithCancel(context.Background())
	joinerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(jctx, "SELECT AVG(Price) FROM Orders WHERE Price > 2")
		joinerDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	jcancel()
	select {
	case err := <-joinerDone:
		if err == nil {
			t.Error("cancelled joiner got an answer before the hold expired")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner did not return promptly")
	}
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed after joiner cancellation: %v", err)
	}
}

// TestConcurrentBatchedSubmit race-stresses batch formation: many
// goroutines submitting batchable and non-batchable queries through a
// batching server, with cancellations mixed in. Run under -race.
func TestConcurrentBatchedSubmit(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 66, BootstrapK: 10})
	s := New(eng, Config{MaxInFlight: 8, MaxQueue: 128, MaxBatch: 4,
		BatchHold: time.Millisecond})
	const submitters = 48
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := map[string]int{}
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%7 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
				defer cancel()
			}
			q := fmt.Sprintf("SELECT AVG(Price) FROM Orders WHERE Price > %d", i%6)
			ans, err := s.Submit(ctx, q)
			if err != nil {
				mu.Lock()
				failures[obs.Outcome(err)]++
				mu.Unlock()
				return
			}
			if len(ans.Groups) == 0 {
				t.Errorf("empty answer for %q", q)
			}
		}(i)
	}
	wg.Wait()
	for outcome := range failures {
		if outcome != "cancelled" && outcome != "rejected" {
			t.Errorf("unexpected failure outcome %q (%d)", outcome, failures[outcome])
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
