package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
)

// testEngine registers a sampled Orders table on a fresh engine.
func testEngine(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	const n = 4000
	src := rng.New(321)
	price := make(table.Float64Col, n)
	region := make(table.StringCol, n)
	names := []string{"east", "west", "north"}
	for i := 0; i < n; i++ {
		price[i] = 10 + 5*src.NormFloat64()
		region[i] = names[src.Intn(len(names))]
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Price", Type: table.Float64},
		{Name: "Region", Type: table.String},
	}, price, region)
	e := core.New(cfg)
	if err := e.RegisterTable("Orders", tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildSamples("Orders", 1000); err != nil {
		t.Fatal(err)
	}
	return e
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitMatchesDirectQuery(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	s := New(eng, Config{})
	const q = "SELECT AVG(Price) FROM Orders GROUP BY Region"
	want, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("groups: got %d want %d", len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		for j := range got.Groups[i].Aggs {
			g, w := got.Groups[i].Aggs[j], want.Groups[i].Aggs[j]
			if g.Estimate != w.Estimate || g.ErrorBar.HalfWidth != w.ErrorBar.HalfWidth {
				t.Errorf("group %d agg %d: served answer diverged from direct query", i, j)
			}
		}
	}
}

// TestFIFOGrantOrder proves the wait queue is strict FIFO: with one slot
// held, waiters are granted in arrival order as the slot is handed over.
func TestFIFOGrantOrder(t *testing.T) {
	s := New(nil, Config{MaxInFlight: 1, MaxQueue: 8})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const waiters = 5
	grants := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			grants <- i
			s.release()
		}()
		// Serialize arrival so queue order is deterministic.
		waitFor(t, fmt.Sprintf("waiter %d queued", i), func() bool {
			return s.Queued() == i+1
		})
	}
	s.release()
	wg.Wait()
	close(grants)
	var order []int
	for g := range grants {
		order = append(order, g)
	}
	for i, g := range order {
		if g != i {
			t.Fatalf("grant order %v is not FIFO", order)
		}
	}
	if inFlight(s) != 0 || s.Queued() != 0 {
		t.Errorf("leaked admission state: inflight=%d queued=%d", inFlight(s), s.Queued())
	}
}

func TestQueueFullRejection(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(nil, Config{MaxInFlight: 1, MaxQueue: 1, Metrics: reg})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		err := s.acquire(context.Background())
		if err == nil {
			s.release()
		}
		queued <- err
	}()
	waitFor(t, "one waiter queued", func() bool { return s.Queued() == 1 })
	if err := s.acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire: got %v, want ErrQueueFull", err)
	}
	s.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	waitFor(t, "drain", func() bool { return inFlight(s) == 0 })

	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `aqp_serve_rejected_total{reason="queue_full"} 1`) {
		t.Errorf("rejection not counted:\n%s", b.String())
	}
}

func TestNoQueueMode(t *testing.T) {
	s := New(nil, Config{MaxInFlight: 1, MaxQueue: -1})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want immediate ErrQueueFull", err)
	}
	s.release()
}

func TestQueuedWaiterCancellation(t *testing.T) {
	s := New(nil, Config{MaxInFlight: 1, MaxQueue: 4})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- s.acquire(ctx)
	}()
	waitFor(t, "waiter queued", func() bool { return s.Queued() == 1 })
	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}
	if s.Queued() != 0 {
		t.Errorf("cancelled waiter left in queue")
	}
	s.release()
}

func TestShutdown(t *testing.T) {
	s := New(nil, Config{MaxInFlight: 1, MaxQueue: 4})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- s.acquire(context.Background()) }()
	waitFor(t, "waiter queued", func() bool { return s.Queued() == 1 })

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	if err := <-waiter; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("queued waiter during shutdown: got %v, want ErrShuttingDown", err)
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned %v with a query in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.acquire(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown acquire: got %v, want ErrShuttingDown", err)
	}
	s.release()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestShutdownDrainDeadline(t *testing.T) {
	s := New(nil, Config{MaxInFlight: 1})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck drain: got %v, want DeadlineExceeded", err)
	}
	s.release()
}

// TestSubmitTimeout proves the per-query deadline reaches the engine: a
// PERCENTILE query (bootstrap path, many resamples) under a tiny budget
// returns a wrapped DeadlineExceeded and the cancelled counter moves.
func TestSubmitTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t, core.Config{Seed: 9, BootstrapK: 2000})
	s := New(eng, Config{Timeout: time.Nanosecond, Metrics: reg})
	_, err := s.Submit(context.Background(), "SELECT PERCENTILE(Price, 0.5) FROM Orders")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "aqp_serve_cancelled_total 1") {
		t.Errorf("cancellation not counted:\n%s", b.String())
	}
}

// TestSubmitRecordsQueueWait pins the queue-wait plumbing end to end: a
// query that had to wait for a slot carries the wait in its trace
// snapshot (and so in /debug/queries and the event log), and the serving
// histogram observes it.
func TestSubmitRecordsQueueWait(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.Config{})
	eng := testEngine(t, core.Config{Seed: 13, Obs: tr})
	s := New(eng, Config{MaxInFlight: 1, MaxQueue: 4, Metrics: reg})

	// Hold the only slot so the submitted query must queue.
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "SELECT AVG(Price) FROM Orders")
		done <- err
	}()
	waitFor(t, "query queued", func() bool { return s.Queued() == 1 })
	time.Sleep(10 * time.Millisecond) // accrue a measurable wait
	s.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	last, ok := tr.Last()
	if !ok {
		t.Fatal("no trace recorded")
	}
	if last.Outcome != "ok" {
		t.Fatalf("trace outcome = %q, want ok", last.Outcome)
	}
	if last.QueueWaitMs < 5 {
		t.Fatalf("trace queue wait = %vms, want >= the 10ms hold", last.QueueWaitMs)
	}
	if out := obs.FormatTrace(last); !strings.Contains(out, "queue_wait=") {
		t.Fatalf("FormatTrace missing queue wait:\n%s", out)
	}
	h := reg.Histogram("aqp_serve_queue_wait_seconds", "", obs.LatencyBuckets)
	if h.Count() != 1 {
		t.Fatalf("queue-wait histogram count = %d, want 1", h.Count())
	}
	if h.Sum() < 0.005 {
		t.Fatalf("queue-wait histogram sum = %vs, want >= 0.005", h.Sum())
	}
}

// TestConcurrentSubmit floods the server well past its queue bound and
// checks the accounting: every query is admitted, rejected, or answered;
// admissions respect MaxInFlight; the server is quiescent at the end.
func TestConcurrentSubmit(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t, core.Config{Seed: 11, Workers: 2})
	s := New(eng, Config{MaxInFlight: 3, MaxQueue: 4, Metrics: reg})
	const clients = 24
	var ok, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(),
				"SELECT AVG(Price), SUM(Price) FROM Orders WHERE Price > 5")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no query succeeded")
	}
	if ok+rejected != clients {
		t.Fatalf("accounting: ok=%d rejected=%d of %d", ok, rejected, clients)
	}
	if inFlight(s) != 0 || s.Queued() != 0 {
		t.Errorf("not quiescent: inflight=%d queued=%d", inFlight(s), s.Queued())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after quiesce: %v", err)
	}
}

// inFlight returns the number of currently executing queries.
func inFlight(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}
