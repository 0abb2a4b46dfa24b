package wire_test

// End-to-end tests that hold the network front end to the engine's core
// guarantee: the transport must not perturb the answer. The same SQL
// through core.Engine.Query, the HTTP/JSON API, and a real MySQL wire
// client (our own, speaking the text protocol over TCP) must produce
// bit-identical estimates, CI bounds and verdicts — and the connection
// machinery must survive churn, abrupt disconnects and drain without
// leaking goroutines or miscounting gauges.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/wire"
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

// stack is a full in-process front end: engine, admission layer, both
// listeners.
type stack struct {
	eng  *core.Engine
	srv  *serve.Server
	wl   *wire.Listener
	hs   *httptest.Server
	reg  *obs.Registry
	addr string // wire listener address
}

func startStack(t *testing.T, eng *core.Engine, scfg serve.Config, wcfg wire.Config) *stack {
	t.Helper()
	reg := scfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		scfg.Metrics = reg
	}
	if wcfg.Metrics == nil {
		wcfg.Metrics = reg
	}
	srv := serve.New(eng, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := wire.Serve(ln, srv, wcfg)
	hs := httptest.NewServer(serve.NewHTTPHandler(srv, serve.HTTPOptions{}))
	st := &stack{eng: eng, srv: srv, wl: wl, hs: hs, reg: reg, addr: ln.Addr().String()}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		wl.Drain()
		srv.Shutdown(ctx) //nolint:errcheck
		hs.Close()
		wl.Shutdown(ctx) //nolint:errcheck
		eng.Close()
	})
	return st
}

// httpQuery posts one query to the JSON API and decodes the response.
func httpQuery(t *testing.T, url, sql string) (*serve.QueryResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(serve.QueryRequest{SQL: sql})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with undecodable body: %v", resp.StatusCode, err)
		}
		t.Fatalf("status %d: %s (%s)", resp.StatusCode, e.Error, e.Code)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

// sameBits asserts two floats are bit-identical (NaN == NaN).
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: got %x (%v) want %x (%v)", what,
			math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// parseCell parses a wire text-protocol float cell.
func parseCell(t *testing.T, what, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("%s: bad float cell %q: %v", what, cell, err)
	}
	return v
}

// TestTransportEquality is the headline satellite: the same query via
// core.Engine.Query, POST /query, and a MySQL wire client returns
// bit-identical estimates, interval endpoints, relative errors, and
// identical technique/verdict strings.
//
// Beside Orders, whose 1000-row sample is too small for the diagnostic,
// the engine holds Events, sampled large enough to be diagnosed: its "big"
// kind fills the ladder and is accepted, its "rare" kind is rejected for
// too few rows and re-answered exactly. Ledger has no sample, so the engine
// answers it in exact mode. Across all of them the HTTP answer's typed
// cause must be the engine's. A two-aggregate GROUP BY over Events has
// descriptors that differ across groups position by position, which the
// HTTP body names only where they differ from the first group's.
func TestTransportEquality(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	const n = 16000
	src := rng.New(654)
	v := make(table.Float64Col, n)
	kind := make(table.StringCol, n)
	for i := range v {
		v[i] = 50 + 10*src.NormFloat64()
		kind[i] = "big"
		if src.Float64() < 0.3 {
			kind[i] = "rare"
		}
	}
	events := table.MustNew(table.Schema{
		{Name: "V", Type: table.Float64},
		{Name: "Kind", Type: table.String},
	}, v, kind)
	ledger := table.MustNew(table.Schema{{Name: "Amount", Type: table.Float64}},
		table.Float64Col{1, 2, 3, 4.5})
	for name, tbl := range map[string]*table.Table{"Events": events, "Ledger": ledger} {
		if err := eng.RegisterTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildSamples("Events", 8000); err != nil {
		t.Fatal(err)
	}
	st := startStack(t, eng, serve.Config{MaxInFlight: 4}, wire.Config{})

	cli, err := wire.Dial(st.addr, wire.ClientOptions{User: "root", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const (
		rejectedGroups = "SELECT AVG(V) FROM Events GROUP BY Kind"
		twoAggGroups   = "SELECT AVG(V), MAX(V) FROM Events GROUP BY Kind"
		exactMode      = "SELECT AVG(Amount), SUM(Amount) FROM Ledger WHERE Amount >= 2"
		// Nothing passes the filter: NaN estimate, interval and rel_err.
		noRows = "SELECT MAX(Price) FROM Orders WHERE Price > 1000"
	)
	queries := []string{
		"SELECT AVG(Price) FROM Orders",
		"SELECT SUM(Price), COUNT(Price) FROM Orders WHERE Region = 'east'",
		"SELECT AVG(Price) FROM Orders GROUP BY Region",
		rejectedGroups, twoAggGroups, exactMode, noRows,
	}
	for _, q := range queries {
		want, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: direct: %v", q, err)
		}
		first := want.Groups[0].Aggs[0]
		switch q {
		case rejectedGroups:
			var accepted, fellBack int
			for _, g := range want.Groups {
				for _, a := range g.Aggs {
					if a.DiagnosticOK && !a.Exact {
						accepted++
					}
					if !a.DiagnosticOK && a.Exact && a.DiagnosticCause == "too_few_rows" {
						fellBack++
					}
				}
			}
			if accepted == 0 || fellBack == 0 {
				t.Fatalf("premise: %s: %d accepted, %d rejected and re-answered exactly", q, accepted, fellBack)
			}
		case twoAggGroups:
			differs := 0
			for _, g := range want.Groups[1:] {
				for j, a := range g.Aggs {
					f := want.Groups[0].Aggs[j]
					if a.Technique != f.Technique || a.DiagnosticOK != f.DiagnosticOK ||
						a.DiagnosticCause != f.DiagnosticCause || a.Exact != f.Exact {
						differs++
					}
				}
			}
			if len(want.Groups) < 2 || differs == 0 {
				t.Fatalf("premise: %s: %d groups, %d aggregates whose descriptor differs from the first group's",
					q, len(want.Groups), differs)
			}
		case exactMode:
			if !first.Exact || want.SampleRows != 0 {
				t.Fatalf("premise: %s is not answered in exact mode: %+v", q, first)
			}
		case noRows:
			if !math.IsNaN(first.RelErr) || !math.IsNaN(first.Estimate) {
				t.Fatalf("premise: %s: rel_err %v estimate %v, want NaN", q, first.RelErr, first.Estimate)
			}
		}

		// HTTP path.
		hr, _ := httpQuery(t, st.hs.URL, q)
		if len(hr.Groups) != len(want.Groups) {
			t.Fatalf("%s: http groups %d want %d", q, len(hr.Groups), len(want.Groups))
		}
		for i, g := range want.Groups {
			hg := hr.Groups[i]
			if hg.Key != g.Key {
				t.Errorf("%s: http group %d key %q want %q", q, i, hg.Key, g.Key)
			}
			for j, a := range g.Aggs {
				ha := hg.Aggs[j]
				pre := fmt.Sprintf("%s: http group %d agg %s", q, i, a.Name)
				if ha.Name != a.Name {
					t.Errorf("%s name %q", pre, ha.Name)
				}
				sameBits(t, pre+" estimate", float64(ha.Estimate), a.Estimate)
				sameBits(t, pre+" lo", float64(ha.Lo), a.ErrorBar.Lo())
				sameBits(t, pre+" hi", float64(ha.Hi), a.ErrorBar.Hi())
				sameBits(t, pre+" rel_err", float64(ha.RelErr), a.RelErr)
				if ha.Technique != a.Technique {
					t.Errorf("%s technique %q want %q", pre, ha.Technique, a.Technique)
				}
				if ha.Verdict != serve.Verdict(a) {
					t.Errorf("%s verdict %q want %q", pre, ha.Verdict, serve.Verdict(a))
				}
				if ha.Cause != a.DiagnosticCause {
					t.Errorf("%s cause %q want %q", pre, ha.Cause, a.DiagnosticCause)
				}
				if ha.Exact != a.Exact {
					t.Errorf("%s exact %v want %v", pre, ha.Exact, a.Exact)
				}
			}
		}

		// Wire path.
		rs, err := cli.Query(q)
		if err != nil {
			t.Fatalf("%s: wire: %v", q, err)
		}
		if len(rs.Rows) != len(want.Groups) {
			t.Fatalf("%s: wire rows %d want %d", q, len(rs.Rows), len(want.Groups))
		}
		grouped := false
		for _, g := range want.Groups {
			if g.Key != "" {
				grouped = true
			}
		}
		for i, g := range want.Groups {
			row := rs.Rows[i]
			off := 0
			if grouped {
				if row[0] != g.Key {
					t.Errorf("%s: wire row %d group %q want %q", q, i, row[0], g.Key)
				}
				off = 1
			}
			for j, a := range g.Aggs {
				base := off + 7*j
				pre := fmt.Sprintf("%s: wire row %d agg %s", q, i, a.Name)
				if col := rs.Columns[base]; col != a.Name {
					t.Errorf("%s: column %q want %q", pre, col, a.Name)
				}
				sameBits(t, pre+" estimate", parseCell(t, pre, row[base]), a.Estimate)
				sameBits(t, pre+" lo", parseCell(t, pre, row[base+1]), a.ErrorBar.Lo())
				sameBits(t, pre+" hi", parseCell(t, pre, row[base+2]), a.ErrorBar.Hi())
				sameBits(t, pre+" rel_err", parseCell(t, pre, row[base+3]), a.RelErr)
				if row[base+4] != a.Technique {
					t.Errorf("%s technique %q want %q", pre, row[base+4], a.Technique)
				}
				if row[base+5] != serve.Verdict(a) {
					t.Errorf("%s verdict %q want %q", pre, row[base+5], serve.Verdict(a))
				}
				exact := "0"
				if a.Exact {
					exact = "1"
				}
				if row[base+6] != exact {
					t.Errorf("%s exact %q want %q", pre, row[base+6], exact)
				}
			}
		}
	}
}

// TestWirePing exercises COM_PING and COM_INIT_DB round trips.
func TestWirePing(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	st := startStack(t, eng, serve.Config{}, wire.Config{})
	cli, err := wire.DialAuth(st.addr, wire.ClientOptions{User: "anyone", Timeout: 5 * time.Second}, "", "aqp")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestWireBadQuery asserts a parse error surfaces as ERR 1064 and leaves
// the connection usable.
func TestWireBadQuery(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	st := startStack(t, eng, serve.Config{}, wire.Config{})
	cli, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Query("SELECT FROM WHERE")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != 1064 {
		t.Fatalf("want ERR 1064, got %v", err)
	}
	if _, err := cli.Query("SELECT AVG(Price) FROM Orders"); err != nil {
		t.Fatalf("connection unusable after parse error: %v", err)
	}
}

// TestTableSampleRefused: the engine draws every resample itself, so the
// paper's §5.2 TABLESAMPLE POISSONIZED clause is not grammar. Both
// transports refuse it as a bad query — wire ERR 1064, HTTP 400 bad_query —
// and neither answers it.
func TestTableSampleRefused(t *testing.T) {
	const q = "SELECT AVG(Price) FROM Orders TABLESAMPLE POISSONIZED (100)"
	st := startStack(t, testEngine(t, core.Config{Seed: 7}), serve.Config{}, wire.Config{})
	cli, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rs, err := cli.Query(q)
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != 1064 {
		t.Fatalf("wire: want ERR 1064, got %v (result %v)", err, rs)
	}

	body, _ := json.Marshal(serve.QueryRequest{SQL: q})
	resp, err := http.Post(st.hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_query" {
		t.Fatalf("http: status %d code %q (%s), want 400 bad_query", resp.StatusCode, e.Code, e.Error)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConnChurn hammers the front end with connect/query/disconnect
// cycles — some clients severing TCP mid-exchange, some racing tiny
// per-query deadlines — and asserts no goroutine leaks and all
// connection gauges back at zero after drain. Run under -race this is
// the concurrency-safety pin for the whole wire layer.
func TestConnChurn(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	reg := obs.NewRegistry()
	st := startStack(t, eng,
		serve.Config{MaxInFlight: 4, MaxQueue: 64, Metrics: reg},
		wire.Config{MaxConns: 64})

	// Warm every path once so lazily-created goroutines (engine workers,
	// HTTP keep-alive readers) are part of the baseline, then flush idle
	// client connections and measure.
	warm, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Query("SELECT AVG(Price) FROM Orders"); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	httpQuery(t, st.hs.URL, "SELECT AVG(Price) FROM Orders")
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	runtime.GC()
	before := runtime.NumGoroutine()

	const (
		workers = 24
		iters   = 8
	)
	var wg sync.WaitGroup
	var queries, aborted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cli, err := wire.Dial(st.addr, wire.ClientOptions{
					User: "churn", Timeout: 10 * time.Second})
				if err != nil {
					t.Errorf("worker %d dial: %v", w, err)
					return
				}
				switch (w + i) % 3 {
				case 0: // clean query + quit
					if _, err := cli.Query("SELECT AVG(Price) FROM Orders"); err != nil {
						t.Errorf("worker %d query: %v", w, err)
					} else {
						queries.Add(1)
					}
					cli.Close()
				case 1: // sever TCP with a query possibly in flight
					go cli.Query("SELECT SUM(Price) FROM Orders GROUP BY Region") //nolint:errcheck
					cli.CloseAbruptly()
					aborted.Add(1)
				case 2: // HTTP alongside, then wire ping, then quit
					if resp, err := http.Get(st.hs.URL + "/healthz"); err != nil {
						t.Errorf("worker %d healthz: %v", w, err)
					} else {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
					}
					if err := cli.Ping(); err != nil {
						t.Errorf("worker %d ping: %v", w, err)
					}
					cli.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no queries completed")
	}

	// Drain: all connections must unwind, gauges must return to zero.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.wl.Drain()
	if err := st.wl.Shutdown(ctx); err != nil {
		t.Fatalf("wire shutdown: %v", err)
	}
	if n := st.wl.Open(); n != 0 {
		t.Fatalf("connections still open after shutdown: %d", n)
	}
	waitFor(t, "aqp_conn_open gauge zero", func() bool {
		return reg.Gauge("aqp_conn_open", "").Value() == 0
	})
	waitFor(t, "aqp_conn_queries_active gauge zero", func() bool {
		return reg.Gauge("aqp_conn_queries_active", "").Value() == 0
	})
	waitFor(t, "aqp_http_inflight gauge zero", func() bool {
		return reg.Gauge("aqp_http_inflight", "").Value() == 0
	})
	unwound := func() bool {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= before
	}
	deadline := time.Now().Add(10 * time.Second)
	for !unwound() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not unwind: %d > baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("churn: %d clean queries, %d aborted connections", queries.Load(), aborted.Load())
}

// TestManySockets is the ≥100-connection gate: 64 MySQL-wire and 64
// keep-alive HTTP sockets, all connected before any is released, each
// sending 4 queries through 8 execution slots. The queue is sized to the
// offered load, so every query is answered and none is rejected; the
// admission timeout turns a blown deadline into a client error.
func TestManySockets(t *testing.T) {
	const perTransport, perConn = 64, 4
	eng := testEngine(t, core.Config{Seed: 7})
	st := startStack(t, eng,
		serve.Config{MaxInFlight: 8, MaxQueue: 2 * perTransport, Timeout: 30 * time.Second},
		wire.Config{MaxConns: 2*perTransport + 8})
	queries := []string{
		"SELECT AVG(Price) FROM Orders",
		"SELECT AVG(Price) FROM Orders WHERE Region = 'east'",
		"SELECT SUM(Price), COUNT(Price) FROM Orders WHERE Region = 'west'",
		"SELECT AVG(Price) FROM Orders GROUP BY Region",
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	var answers atomic.Int64
	client := func(i int, query func(sql string) error) {
		defer wg.Done()
		<-start
		for q := 0; q < perConn; q++ {
			if err := query(queries[(i+q)%len(queries)]); err != nil {
				t.Errorf("client %d query %d: %v", i, q, err)
				continue
			}
			answers.Add(1)
		}
	}
	for i := 0; i < perTransport; i++ {
		cli, err := wire.Dial(st.addr, wire.ClientOptions{User: "load", Timeout: 40 * time.Second})
		if err != nil {
			t.Fatalf("wire dial %d: %v", i, err)
		}
		defer cli.Close()
		// A transport per HTTP client pins one socket to it; the health
		// probe opens that socket before the start barrier.
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr, Timeout: 40 * time.Second}
		post := func(sql string) error {
			body, _ := json.Marshal(serve.QueryRequest{SQL: sql})
			resp, err := hc.Post(st.hs.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("http status %d", resp.StatusCode)
			}
			return nil
		}
		if resp, err := hc.Get(st.hs.URL + "/healthz"); err != nil {
			t.Fatalf("http connect %d: %v", i, err)
		} else {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		wg.Add(2)
		go client(i, func(sql string) error { _, err := cli.Query(sql); return err })
		go client(i, post)
	}
	if n := st.wl.Open(); n != perTransport {
		t.Errorf("%d wire connections open before release, want %d", n, perTransport)
	}
	close(start)
	wg.Wait()

	if got, want := answers.Load(), int64(2*perTransport*perConn); got != want {
		t.Errorf("%d answers, want %d", got, want)
	}
	for _, name := range []string{"aqp_serve_rejected_total", "aqp_conn_rejected_total"} {
		if n := counterValue(st.reg, name, ""); n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
}

// blockingEngine wires a gate UDF into a test engine: every SLOW()
// invocation blocks until release is closed, so a test can hold the
// single execution slot deterministically.
func blockingEngine(t *testing.T) (eng *core.Engine, started <-chan struct{}, release chan<- struct{}) {
	t.Helper()
	eng = testEngine(t, core.Config{Seed: 7, Workers: 1})
	s := make(chan struct{})
	r := make(chan struct{})
	var once sync.Once
	eng.RegisterUDF("SLOW", func(values, weights []float64) float64 {
		once.Do(func() { close(s) })
		<-r
		return 0
	})
	return eng, s, r
}

// TestDrainRejectsQueuedWire is the drain-gap regression at the wire
// layer: a query still queued when shutdown begins must come back as a
// decodable ERR 1053 (server shutdown), not a connection reset, and must
// leave a durable RejectRecord for availability SLOs.
func TestDrainRejectsQueuedWire(t *testing.T) {
	eng, started, release := blockingEngine(t)
	reg := obs.NewRegistry()
	hist, err := history.Open(t.TempDir(), history.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	st := startStack(t, eng,
		serve.Config{MaxInFlight: 1, MaxQueue: 4, Metrics: reg, History: hist},
		wire.Config{})

	slow, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Query("SELECT SLOW(Price) FROM Orders")
		slowDone <- err
	}()
	<-started // the slot is held

	queued, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	queuedDone := make(chan error, 1)
	go func() {
		_, err := queued.Query("SELECT AVG(Price) FROM Orders")
		queuedDone <- err
	}()
	waitFor(t, "second query queued", func() bool { return st.srv.Queued() == 1 })

	// Shutdown while one query runs and one waits. The queued one must
	// get a proper wire error, durably recorded as a reject.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- st.srv.Shutdown(ctx)
	}()

	var se *wire.ServerError
	select {
	case err := <-queuedDone:
		if !errors.As(err, &se) || se.Code != 1053 {
			t.Fatalf("queued query: want ERR 1053, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued query did not fail during drain")
	}

	close(release) // let the in-flight query finish
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight query should complete during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if n := hist.Stats().Records["reject"]; n < 1 {
		t.Fatalf("want >= 1 durable RejectRecord, got %d", n)
	}
	if counterValue(reg, "aqp_serve_rejected_total", "") == 0 {
		t.Fatal("aqp_serve_rejected_total not incremented")
	}
}

// TestDrainRejectsQueuedHTTP is the same regression at the HTTP layer:
// 503 with a retryable shutting_down code, not a dropped connection.
func TestDrainRejectsQueuedHTTP(t *testing.T) {
	eng, started, release := blockingEngine(t)
	reg := obs.NewRegistry()
	st := startStack(t, eng,
		serve.Config{MaxInFlight: 1, MaxQueue: 4, Metrics: reg},
		wire.Config{})

	slowDone := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(serve.QueryRequest{SQL: "SELECT SLOW(Price) FROM Orders"})
		resp, err := http.Post(st.hs.URL+"/query", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		slowDone <- err
	}()
	<-started

	queuedDone := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(serve.QueryRequest{SQL: "SELECT AVG(Price) FROM Orders"})
		resp, err := http.Post(st.hs.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("queued POST: %v", err)
			queuedDone <- nil
			return
		}
		queuedDone <- resp
	}()
	waitFor(t, "second query queued", func() bool { return st.srv.Queued() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- st.srv.Shutdown(ctx)
	}()

	select {
	case resp := <-queuedDone:
		if resp == nil {
			t.Fatal("no response")
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queued query: status %d want 503", resp.StatusCode)
		}
		var e serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("503 body not JSON: %v", err)
		}
		if e.Code != "shutting_down" || !e.Retryable {
			t.Fatalf("want retryable shutting_down, got %+v", e)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 missing Retry-After")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued query did not fail during drain")
	}

	// healthz flips to draining.
	hresp, err := http.Get(st.hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d want 503", hresp.StatusCode)
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight POST: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
