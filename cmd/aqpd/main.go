// Command aqpd is the network front end for the approximate query engine:
// one process, two listeners, one admission layer.
//
//   - HTTP/JSON: POST /query {"sql": "...", "timeout_ms": 0} returns
//     per-aggregate estimates, confidence intervals, relative errors and
//     diagnostic verdicts, and nothing the client already holds: the SQL
//     is not echoed, and the trace ID is in the traceparent response
//     header, which every /query response carries; GET /healthz reports
//     readiness (503 while draining).
//   - MySQL wire: a text-protocol subset (handshake, mysql_native_password,
//     COM_QUERY/COM_PING/COM_INIT_DB/COM_QUIT) so any stock MySQL client
//     or driver can issue approximate queries and read error bars out of
//     ordinary resultset columns.
//
// Both listeners route into the same serve.Server, so connection traffic is
// governed by the same in-flight bounds, FIFO queue and per-query deadlines
// regardless of transport, and both transports return bit-identical answers
// for the same SQL.
//
// Data comes from -csv (with -coltypes) or, by default, a synthetic
// Sessions demo table. With -store FILE the table is served from a block
// store file instead of the heap: the first run ingests as above and writes
// FILE, every later run maps it — and, because a stored table has an
// identity, so does its sample, which the first run saves beside FILE and
// later runs open instead of rebuilding. On SIGINT/SIGTERM the daemon drains:
// listeners stop accepting, queued queries are refused with a retryable
// error, in-flight queries finish (bounded by -drain), and the process exits
// 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/history"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/watchdog"
	"repro/internal/wire"
)

func main() {
	var (
		httpAddr  = flag.String("http", "127.0.0.1:8632", "HTTP/JSON listener address ('' = disabled; port 0 = ephemeral)")
		mysqlAddr = flag.String("mysql", "127.0.0.1:3632", "MySQL wire listener address ('' = disabled; port 0 = ephemeral)")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug endpoints on this address")

		csvPath  = flag.String("csv", "", "load this CSV file instead of the synthetic demo table")
		tblName  = flag.String("table", "", "table name ('' = Data with -csv, Sessions otherwise)")
		store    = flag.String("store", "", "serve the table from this block store file, creating it from -csv/-gen if absent; its sample is kept beside it")
		colTypes = flag.String("coltypes", "", "comma-separated column types for -csv: float|int|string")
		genRows  = flag.Int("gen", 200000, "rows in the synthetic Sessions demo table (ignored with -csv)")
		sample   = flag.Int("sample", 0, "sample size to build (0 = rows/10)")
		seed     = flag.Uint64("seed", 42, "RNG seed: all sampling and resampling derives from it")
		workers  = flag.Int("workers", 0, "engine execution parallelism (0 = 4)")

		cacheMB  = flag.Int("cache-mb", 0, "decoded-block/answer cache budget in MiB (0 = caching off)")
		cacheTTL = flag.Duration("cache-ttl", 0, "answer-cache entry lifetime (0 = 60s default; needs -cache-mb)")

		maxInFlight = flag.Int("max-inflight", 0, "concurrently executing queries (0 = 4)")
		maxQueue    = flag.Int("max-queue", 0, "admission queue depth (0 = 16; negative = reject when saturated)")
		timeout     = flag.Duration("timeout", 0, "per-query deadline applied on admission (0 = none)")
		maxK        = flag.Int("max-k", 0, "per-query bootstrap resample cap (0 = engine default)")

		maxConns  = flag.Int("max-conns", 0, "concurrently open wire connections (0 = 256)")
		maxPacket = flag.Int("max-packet", 0, "wire command payload cap in bytes (0 = 1 MiB)")
		users     = flag.String("users", "", "user:password[,user:password...] auth table; empty admits everyone (HTTP uses basic auth, wire uses mysql_native_password)")

		historyDir = flag.String("history", "", "persist durable query/reject history to this directory")
		logFormat  = flag.String("log", "", "structured event log: 'json' writes one record per query/connection to stderr")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget before stragglers are force-closed")

		otlpURL      = flag.String("otlp", "", "export query spans to this OTLP/HTTP collector endpoint (e.g. http://localhost:4318/v1/traces)")
		otlpFile     = flag.String("otlp-file", "", "append OTLP JSON span batches to this file (air-gapped fallback; combines with -otlp)")
		alertWebhook = flag.String("alert-webhook", "", "POST alert events (firing/resolved JSON) to this URL")
		auditFrac    = flag.Float64("audit-fraction", 0, "fraction of approximate queries the calibration watchdog re-executes exactly (0 = watchdog off)")
	)
	flag.Parse()
	if *tblName == "" {
		*tblName = "Sessions"
		if *csvPath != "" {
			*tblName = "Data"
		}
	}

	if err := run(daemonConfig{
		httpAddr: *httpAddr, mysqlAddr: *mysqlAddr, metricsAddr: *metrics,
		csvPath: *csvPath, tblName: *tblName, colTypes: *colTypes, storePath: *store,
		genRows: *genRows, sample: *sample, seed: *seed, workers: *workers,
		cacheMB: *cacheMB, cacheTTL: *cacheTTL,
		maxInFlight: *maxInFlight, maxQueue: *maxQueue, timeout: *timeout, maxK: *maxK,
		maxConns: *maxConns, maxPacket: *maxPacket, users: *users,
		historyDir: *historyDir, logFormat: *logFormat, drain: *drain,
		otlpURL: *otlpURL, otlpFile: *otlpFile,
		alertWebhook: *alertWebhook, auditFraction: *auditFrac,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "aqpd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	httpAddr, mysqlAddr, metricsAddr string
	csvPath, tblName, colTypes       string
	storePath                        string
	genRows, sample                  int
	seed                             uint64
	workers                          int
	cacheMB                          int
	cacheTTL                         time.Duration
	maxInFlight, maxQueue            int
	timeout                          time.Duration
	maxK                             int
	maxConns, maxPacket              int
	users                            string
	historyDir, logFormat            string
	drain                            time.Duration
	otlpURL, otlpFile                string
	alertWebhook                     string
	auditFraction                    float64
}

func run(cfg daemonConfig) error {
	tel, err := newTelemetry(cfg)
	if err != nil {
		return err
	}
	defer tel.close()

	engine := core.New(core.Config{
		Seed:        cfg.seed,
		Workers:     cfg.workers,
		CacheBytes:  int64(cfg.cacheMB) << 20,
		CacheTTL:    cfg.cacheTTL,
		Obs:         tel.tracer,
		ObsConfig:   tel.obsCfg,
		MetricsAddr: cfg.metricsAddr,
		EventLog:    tel.elog,
		Watchdog:    tel.wd,
		History:     tel.hist,
		Alerts:      tel.bus,
	})
	store, err := loadData(engine, cfg)
	// With -store the table and its sample are file mappings, and reading an
	// unmapped page is a fault, not an error. They are released only once
	// nothing can read them: no listener was started, or the drain below saw
	// the last query out, and the watchdog has run the audits it still had
	// queued (exact scans of the table). After a drain that ran out of budget,
	// or a listener that failed beside one already serving, process exit
	// releases them instead.
	quiet := true
	defer func() {
		if !quiet {
			return
		}
		tel.wd.Close()
		engine.Close() // samples before the table they were drawn from
		if store != nil {
			store.Close()
		}
	}()
	if err != nil {
		return err
	}
	if addr, err := engine.MetricsEndpoint(); err != nil {
		return fmt.Errorf("metrics endpoint: %w", err)
	} else if addr != "" {
		fmt.Printf("aqpd: metrics http://%s/metrics\n", addr)
	}

	srv := serve.New(engine, serve.Config{
		MaxInFlight:   cfg.maxInFlight,
		MaxQueue:      cfg.maxQueue,
		Timeout:       cfg.timeout,
		MaxBootstrapK: cfg.maxK,
		Metrics:       tel.tracer.Registry(),
		History:       tel.hist,
		Alerts:        tel.bus,
	})

	userTable, err := parseUsers(cfg.users)
	if err != nil {
		return err
	}

	quiet = false // from here on queries may be running

	// MySQL wire listener.
	var wl *wire.Listener
	if cfg.mysqlAddr != "" {
		ln, err := net.Listen("tcp", cfg.mysqlAddr)
		if err != nil {
			return fmt.Errorf("mysql listener: %w", err)
		}
		wcfg := wire.Config{
			MaxConns:  cfg.maxConns,
			MaxPacket: cfg.maxPacket,
			Metrics:   tel.tracer.Registry(),
			EventLog:  tel.elog,
		}
		if userTable != nil {
			wcfg.Auth = wire.NativePassword(userTable)
		}
		wl = wire.Serve(ln, srv, wcfg)
		fmt.Printf("aqpd: mysql listening on %s\n", wl.Addr())
	}

	// HTTP/JSON listener.
	var hs *http.Server
	if cfg.httpAddr != "" {
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("http listener: %w", err)
		}
		opt := serve.HTTPOptions{EventLog: tel.elog}
		if userTable != nil {
			opt.Authorize = basicAuth(userTable)
		}
		hs = &http.Server{Handler: serve.NewHTTPHandler(srv, opt)}
		go func() {
			if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aqpd: http serve:", err)
			}
		}()
		fmt.Printf("aqpd: http listening on %s\n", ln.Addr())
	}
	if wl == nil && hs == nil {
		return fmt.Errorf("both listeners disabled; nothing to serve")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("aqpd: %s, draining (budget %s)\n", s, cfg.drain)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	// Drain order: stop accepting wire connections and wake idle ones
	// first, then fail the admission queue (queued queries get a
	// retryable shutting-down error, busy connections surface it as ERR
	// 1053 / HTTP 503), then close the HTTP listener, and finally wait
	// for wire connections — force-closing stragglers at the budget.
	if wl != nil {
		wl.Drain()
	}
	quiet = true
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aqpd: serve drain:", err)
		quiet = false
	}
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "aqpd: http drain:", err)
			quiet = false
		}
	}
	if wl != nil {
		if err := wl.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "aqpd: wire drain:", err)
			quiet = false
		}
	}
	fmt.Println("aqpd: drained")
	return nil
}

// telemetry is the daemon's observability wiring: the tracer, the event log
// and one alert bus with its sinks and every producer that raises on it but
// the admission layer (serve.Config.Alerts, set in run) — the history
// store's SLO monitor and the calibration watchdog.
type telemetry struct {
	obsCfg  obs.Config
	tracer  *obs.Tracer
	elog    *obs.EventLog
	bus     *alert.Bus
	webhook *alert.WebhookSink
	hist    *history.Store
	wd      *watchdog.Watchdog
}

func newTelemetry(cfg daemonConfig) (*telemetry, error) {
	t := &telemetry{obsCfg: obs.Config{ExportURL: cfg.otlpURL, ExportPath: cfg.otlpFile}}
	switch cfg.logFormat {
	case "":
	case "json":
		t.elog = obs.NewEventLog(os.Stderr, t.obsCfg)
	default:
		return nil, fmt.Errorf("unknown -log format %q (only 'json')", cfg.logFormat)
	}
	t.tracer = obs.NewTracer(t.obsCfg)
	reg := t.tracer.Registry()

	// Unified alert pipeline: watchdog calibration breaches, SLO burn, and
	// admission spikes all land on one bus, fanning out to the configured
	// sinks and /debug/alerts (mounted by the engine when -metrics is set).
	t.bus = alert.New(alert.Config{Metrics: reg})
	if cfg.logFormat == "json" {
		t.bus.AddSink(alert.NewLogSink(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	}
	if cfg.alertWebhook != "" {
		t.webhook = alert.NewWebhookSink(cfg.alertWebhook, alert.WebhookOptions{Metrics: reg})
		t.bus.AddSink(t.webhook)
	}

	if cfg.historyDir != "" {
		var err error
		t.hist, err = history.Open(cfg.historyDir, history.Options{
			Registry: reg,
			Alerts:   t.bus,
			SLOs: []history.SLOSpec{
				{Name: "latency-p99", Kind: history.SLOLatency,
					Objective: 0.99, ThresholdMs: 1000},
				{Name: "availability", Kind: history.SLOAvailability, Objective: 0.999},
			},
		})
		if err != nil {
			t.close()
			return nil, err
		}
	}

	if cfg.auditFraction > 0 {
		t.wd = watchdog.New(watchdog.Config{
			AuditFraction: cfg.auditFraction,
			Metrics:       reg,
			Alerts:        t.bus,
		})
	}
	return t, nil
}

// close stops the watchdog, draining its queued audits, then the history
// store, then the webhook.
func (t *telemetry) close() {
	t.wd.Close()
	t.hist.Close() //nolint:errcheck
	t.webhook.Close()
}

// loadData registers the serving table under cfg.tblName and samples it.
// The table is ingested (a CSV file, or the synthetic Sessions demo) unless
// -store names a file that exists; with -store it is served from that file,
// written first if need be, and the returned closer unmaps it.
func loadData(engine *core.Engine, cfg daemonConfig) (io.Closer, error) {
	var (
		tbl   *table.Table
		store io.Closer
		err   error
	)
	if cfg.storePath == "" {
		tbl, err = ingest(cfg)
	} else {
		tbl, store, err = openOrCreateStore(cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := engine.RegisterTable(cfg.tblName, tbl); err != nil {
		return store, err
	}
	return store, buildSample(engine, cfg.tblName, tbl.NumRows(), cfg.sample)
}

// openOrCreateStore maps the -store file, after ingesting and writing it if
// it does not exist yet, so that the first and every later run of one command
// line serve the same bytes.
func openOrCreateStore(cfg daemonConfig) (*table.Table, io.Closer, error) {
	if _, err := os.Stat(cfg.storePath); errors.Is(err, fs.ErrNotExist) {
		tbl, err := ingest(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := table.WriteStore(cfg.storePath, tbl); err != nil {
			return nil, nil, err
		}
		fmt.Printf("aqpd: wrote %s to %s\n", cfg.tblName, cfg.storePath)
	}
	tbl, store, err := table.OpenStore(cfg.storePath)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("aqpd: table %s(%s), %d rows, opened from %s\n",
		cfg.tblName, tbl.Schema(), tbl.NumRows(), cfg.storePath)
	return tbl, store, nil
}

// ingest builds the serving table on the heap: the -csv file, or the
// synthetic Sessions demo (same distributions as aqpshell's demo, sized by
// -gen).
func ingest(cfg daemonConfig) (*table.Table, error) {
	if cfg.csvPath != "" {
		if cfg.colTypes == "" {
			return nil, fmt.Errorf("-csv requires -coltypes")
		}
		var types []table.Type
		for _, tname := range strings.Split(cfg.colTypes, ",") {
			switch strings.ToLower(strings.TrimSpace(tname)) {
			case "float", "float64":
				types = append(types, table.Float64)
			case "int", "int64":
				types = append(types, table.Int64)
			case "string", "str":
				types = append(types, table.String)
			default:
				return nil, fmt.Errorf("unknown column type %q", tname)
			}
		}
		f, err := os.Open(cfg.csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return table.ReadCSV(f, types)
	}

	rows := cfg.genRows
	if rows <= 0 {
		rows = 200000
	}
	src := rng.New(cfg.seed)
	times := make(table.Float64Col, rows)
	cities := make(table.StringCol, rows)
	kb := make(table.Float64Col, rows)
	names := []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS"}
	zipf := rng.NewZipf(src, len(names), 1.1)
	for i := 0; i < rows; i++ {
		cities[i] = names[zipf.Next()]
		times[i] = src.LogNormal(4, 0.6)
		kb[i] = src.Pareto(10000, 1.3) / 1000
	}
	fmt.Printf("aqpd: demo table %s(Time FLOAT64, City STRING, KB FLOAT64), %d rows\n", cfg.tblName, rows)
	return table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
		{Name: "KB", Type: table.Float64},
	}, times, cities, kb), nil
}

// buildSample samples the table and says where each sample came from: a
// table served from a store file keeps its samples as files beside it.
func buildSample(engine *core.Engine, name string, rows, sample int) error {
	if sample == 0 {
		sample = rows / 10
	}
	if sample <= 0 || sample >= rows {
		fmt.Printf("aqpd: %s unsampled; queries run exactly\n", name)
		return nil
	}
	files, err := engine.BuildSamplesReport(name, sample)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		fmt.Printf("aqpd: sampled %s at %d rows\n", name, sample)
	}
	for _, f := range files {
		if f.Rejected != nil {
			fmt.Printf("aqpd: sample file %s rejected, rebuilding: %v\n", f.Path, f.Rejected)
		}
		switch {
		case f.Opened:
			fmt.Printf("aqpd: sample of %d rows opened from %s\n", f.Rows, f.Path)
		case f.SaveErr != nil:
			fmt.Printf("aqpd: sample of %d rows built (not saved: %v)\n", f.Rows, f.SaveErr)
		default:
			fmt.Printf("aqpd: sample of %d rows built and saved to %s\n", f.Rows, f.Path)
		}
	}
	return nil
}

// parseUsers decodes the -users flag into a user→password table.
func parseUsers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		user, pass, ok := strings.Cut(pair, ":")
		if !ok || user == "" {
			return nil, fmt.Errorf("bad -users entry %q (want user:password)", pair)
		}
		out[user] = pass
	}
	return out, nil
}

// basicAuth returns an HTTP authorize hook checking Basic credentials
// against the same user table the wire listener uses.
func basicAuth(users map[string]string) func(*http.Request) error {
	return func(r *http.Request) error {
		user, pass, ok := r.BasicAuth()
		if !ok {
			return fmt.Errorf("missing credentials")
		}
		if want, found := users[user]; !found || want != pass {
			return fmt.Errorf("bad credentials for user %s", strconv.Quote(user))
		}
		return nil
	}
}
