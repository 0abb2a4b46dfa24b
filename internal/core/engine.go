// Package core is the paper's contribution assembled end-to-end: a
// BlinkDB-style approximate query processing engine that answers SQL
// aggregation queries on pre-built samples at interactive speed, attaches
// error bars from the cheapest applicable estimation technique, validates
// those error bars at runtime with the Kleiner et al. diagnostic, and
// falls back — to a larger sample and ultimately to exact execution — for
// queries whose errors cannot be estimated reliably.
//
// The pipeline per query (Fig. 5):
//
//	SQL → logical plan (§5.3 rewrites) → single-scan execution with
//	Poissonized resampling → answer ± error bars → diagnostic verdict →
//	fallback if rejected or the error bound is missed.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/export"
	"repro/internal/obs/history"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/watchdog"
)

// Config tunes the engine. Zero values select the paper's defaults.
type Config struct {
	// Workers is the local execution parallelism (0 = 4). It bounds the
	// scan operators, the multi-resample bootstrap kernel, the
	// diagnostic's per-size subsample fan-out and the sample build's
	// per-column fan-out alike; answers and built samples are
	// bit-identical at every setting because all randomness is drawn from
	// per-work-unit RNG streams, never from shared per-worker state.
	Workers int
	// Seed makes all sampling and resampling reproducible.
	Seed uint64
	// BootstrapK is the bootstrap resample count (0 = 100).
	BootstrapK int
	// Backing selects the storage backing applied to tables at
	// registration time (default BackingRaw). BackingCompressed re-encodes
	// each registered table into block-compressed columns (dictionary,
	// run-length, bit-packed, and XOR codecs chosen per block); queries
	// decode blocks lazily after zone-map admission. Samples drawn by
	// BuildSamples take SampleBacking, not this backing. Answers are
	// bit-identical across backings. A registered table stays in memory
	// whatever the backing; table.OpenStore gives a disk-backed table to
	// register instead.
	Backing table.Backing
	// SampleBacking selects the storage backing for samples drawn by
	// BuildSamples (default BackingRaw: samples stay raw and decode-free).
	// Any other backing block-compresses each sample like registered
	// tables. Whatever the backing, a sample of a table opened from a
	// store file is persisted beside that file; a later engine opens it
	// from there and, unless SampleBacking is raw, serves it from the
	// mapping. A compressed sample makes sampled queries pay a decode per
	// block, which the decoded-block cache (CacheBytes) saves where the
	// block's codec transforms values. Answers are bit-identical across
	// sample backings.
	SampleBacking table.Backing
	// CacheBytes, when positive, enables the three cross-query reuse
	// layers. The decoded-block cache gets this global byte budget: blocks
	// of compressed or mmap-backed sample columns whose codec transforms
	// values (table.CacheableBlock) are kept resident (scan-resistant
	// CLOCK eviction, per-block singleflight) and served to later queries
	// without re-decoding; raw, constant and dictionary-string blocks are
	// read from storage every time. The predicate memo and the answer
	// cache keep a never-reused entry on probation, a fixed eighth of
	// their capacity. 0 disables all three layers — behavior and answers
	// are then byte-identical to an engine without this feature; with any
	// budget, answers are bit-identical to cache-off (decodes are
	// deterministic, pinned by tests).
	CacheBytes int64
	// CacheTTL bounds answer-cache reuse of a finished answer
	// (0 = cache.DefaultAnswerTTL, 60s). Catalog changes (RegisterTable,
	// BuildSamples, RegisterUDF) invalidate immediately regardless, via
	// the engine's catalog generation counter baked into cache keys.
	CacheTTL time.Duration
	// Obs, when set, keeps every finished query's record in a trace ring,
	// renders its span tree on request and aggregates metrics from it (see
	// internal/obs). Nil disables both; answers are bit-identical either way.
	Obs *obs.Tracer
	// ObsConfig tunes the tracer the engine auto-creates when MetricsAddr
	// is set without Obs (trace ring size; the event-log thresholds are
	// read by callers constructing an EventLog). A caller-supplied Obs
	// tracer ignores the ring-size knob (it is already configured), but
	// ExportURL/ExportPath still apply: when either is set and the engine
	// has a tracer, New builds a span exporter (internal/obs/export),
	// attaches it to the tracer, and owns its shutdown via Engine.Close.
	ObsConfig obs.Config
	// MetricsAddr, when non-empty, serves the tracer's /metrics and
	// /debug/queries endpoints on this address (e.g. "127.0.0.1:9090";
	// ":0" picks a free port, see Engine.MetricsEndpoint). Setting it
	// without Obs creates a default tracer.
	MetricsAddr string
	// EventLog, when set, receives one structured JSON record per query
	// (and per watchdog audit). Like Obs it is provably inert: answers
	// are bit-identical with logging on or off.
	EventLog *obs.EventLog
	// Watchdog, when set, receives every approximate query's calibration
	// outcome and re-executes a configured fraction exactly to compare
	// empirical coverage against nominal. New binds the engine's exact
	// path as the watchdog's auditor; when MetricsAddr is also set, the
	// watchdog's /debug/calibration page is mounted on the same server.
	// The engine does not own the watchdog — Close it separately, and before
	// the engine (see Engine.Close).
	Watchdog *watchdog.Watchdog
	// History, when set, receives one durable record per finished query
	// (and, when a watchdog is also attached, per audit outcome), feeding
	// the persistent workload profiler and SLO monitor. Provably inert:
	// answers are bit-identical with history on or off. When MetricsAddr
	// is set, /debug/workload, /debug/slo and /debug/history are mounted
	// on the same server. The engine does not own the store — Close it
	// separately.
	History *history.Store
	// Alerts, when set and MetricsAddr is too, mounts the unified alert
	// bus on the same server as /debug/alerts. The producers raise on the
	// bus themselves (watchdog.Config.Alerts, history.Options.Alerts,
	// serve.Config.Alerts). The engine does not own the bus — close its
	// sinks separately.
	Alerts *alert.Bus

	// skipDiagnostics answers without running the diagnostic, and
	// noFallback returns a rejected aggregate's approximate answer instead
	// of re-running it exactly. Only this package's tests set them: every
	// other caller gets diagnosed answers backed by the exact fallback.
	skipDiagnostics, noFallback bool
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

func (c Config) bootstrapK() int {
	if c.BootstrapK <= 0 {
		return 100
	}
	return c.BootstrapK
}

// registeredTable is one dataset with its sample catalog.
type registeredTable struct {
	full       *table.Table
	samples    []*exec.StoredTable // ascending by rows
	stratified []*stratifiedSample // per group-by key column
}

// Engine is an approximate query processing engine.
//
// An Engine is safe for concurrent use: any number of goroutines may call
// the query methods (Run, RunWithOptions, ...) simultaneously,
// and each call's answer is bit-identical to what a serial execution of the same
// query would produce — all randomness derives from (Config.Seed, query
// content), never from shared mutable state or execution order.
// Registration methods (RegisterTable, RegisterUDF, BuildSamples,
// BuildStratifiedSample) may also run concurrently with queries: catalogs
// are replaced copy-on-write under the engine mutex, so in-flight queries
// keep the snapshot they started with.
type Engine struct {
	cfg Config

	// mu guards the catalog state below. Query paths take a read-locked
	// snapshot once per query (snapshotTable, udfRegistry); registration
	// replaces slices and maps copy-on-write under the write lock, so
	// readers never observe in-place mutation.
	mu     sync.RWMutex
	tables map[string]*registeredTable
	udfs   exec.Registry
	src    *rng.Source

	obs    *obs.Tracer
	obsSrv *obs.Server
	obsErr error
	elog   *obs.EventLog
	wd     *watchdog.Watchdog
	hist   *history.Store
	exp    *export.Exporter
	// qid numbers the queries: the qN of their errors and the QID of their
	// records, traced or not.
	qid atomic.Uint64
	// recorded, when set, receives every finished query's record after the
	// sinks. Only this package's tests set it.
	recorded func(*obs.QueryRecord)

	// Cross-query reuse layers (all nil when Config.CacheBytes == 0).
	blocks  *cache.BlockCache
	preds   *cache.PredMemo
	answers *cache.AnswerCache
	// gen is the catalog generation: bumped by every registration mutation
	// (RegisterTable, RegisterUDF, BuildSamples, BuildStratifiedSample).
	// Answer-cache keys embed it, so any catalog change invalidates all
	// cached answers by construction.
	gen atomic.Uint64

	// sampleMaps, under mu, holds the mappings behind the sample files
	// BuildSamples opened (samplestore.go); Close releases them. origins,
	// under mu, says how each sample served from a mapping was drawn, for
	// rebuildSample.
	sampleMaps []io.Closer
	origins    map[*exec.StoredTable]*sampleOrigin
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:     cfg,
		tables:  map[string]*registeredTable{},
		origins: map[*exec.StoredTable]*sampleOrigin{},
		udfs:    exec.Registry{},
		src:     rng.New(cfg.Seed),
		obs:     cfg.Obs,
		elog:    cfg.EventLog,
		wd:      cfg.Watchdog,
		hist:    cfg.History,
	}
	if e.wd != nil {
		e.wd.Bind(e.auditExact)
		if e.hist != nil {
			e.wd.SetAuditObserver(e.hist.AppendAudit)
		}
	}
	if cfg.MetricsAddr != "" && e.obs == nil {
		e.obs = obs.NewTracer(cfg.ObsConfig)
	}
	if cfg.CacheBytes > 0 {
		var reg *obs.Registry
		if e.obs != nil {
			reg = e.obs.Registry()
		}
		e.blocks = cache.NewBlockCache(cache.BlockConfig{Bytes: cfg.CacheBytes, Metrics: reg})
		e.preds = cache.NewPredMemo(reg)
		e.answers = cache.NewAnswerCache(cache.AnswerConfig{TTL: cfg.CacheTTL, Metrics: reg})
	}
	if e.obs != nil &&
		(cfg.ObsConfig.ExportURL != "" || cfg.ObsConfig.ExportPath != "") {
		exp, err := export.New(export.Config{
			URL:     cfg.ObsConfig.ExportURL,
			Path:    cfg.ObsConfig.ExportPath,
			Metrics: e.obs.Registry(),
		})
		if err != nil {
			e.obsErr = err
		} else {
			e.exp = exp
			e.obs.SetExporter(exp)
		}
	}
	if cfg.MetricsAddr != "" {
		var extra []obs.Route
		if e.wd != nil {
			extra = append(extra, obs.Route{
				Pattern: "/debug/calibration", Handler: e.wd.Handler(),
			})
		}
		if e.hist != nil {
			extra = append(extra,
				obs.Route{Pattern: "/debug/workload", Handler: e.hist.WorkloadHandler()},
				obs.Route{Pattern: "/debug/slo", Handler: e.hist.SLOHandler()},
				obs.Route{Pattern: "/debug/history", Handler: e.hist.StatsHandler()},
			)
		}
		if cfg.Alerts != nil {
			extra = append(extra, obs.Route{
				Pattern: "/debug/alerts", Handler: cfg.Alerts.Handler(),
			})
		}
		if e.blocks != nil {
			extra = append(extra, obs.Route{
				Pattern: "/debug/cache", Handler: e.cacheHandler(),
			})
		}
		srv, err := obs.Serve(cfg.MetricsAddr, e.obs, extra...)
		e.obsSrv = srv
		if err != nil && e.obsErr == nil {
			e.obsErr = err
		}
	}
	return e
}

// Tracer returns the engine's tracer (nil when telemetry is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.obs }

// MetricsEndpoint returns the bound address of the metrics HTTP endpoint,
// or the listen error when Config.MetricsAddr could not be served. Empty
// address and nil error mean no endpoint was requested.
func (e *Engine) MetricsEndpoint() (string, error) {
	if e.obsErr != nil {
		return "", e.obsErr
	}
	if e.obsSrv == nil {
		return "", nil
	}
	return e.obsSrv.Addr, nil
}

// Close shuts down the metrics endpoint, if one is being served, flushes and
// stops the span exporter, if the engine built one, and unmaps every sample
// file BuildSamples opened. A read of an unmapped sample is a fault, so
// nothing may be reading one or start to afterwards: no query, and no
// watchdog audit — a caller with Config.Watchdog set closes the watchdog,
// which runs its queued audits, before this. A caller that opened the table's
// own store closes that after this. It is idempotent.
func (e *Engine) Close() error {
	var err error
	if e.obsSrv != nil {
		err = e.obsSrv.Close()
	}
	if e.exp != nil {
		e.obs.SetExporter(nil)
		if cerr := e.exp.Close(); err == nil {
			err = cerr
		}
	}
	e.mu.Lock()
	maps := e.sampleMaps
	e.sampleMaps = nil
	e.mu.Unlock()
	for _, m := range maps {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RegisterTable registers a full dataset under the given name. Samples
// must be built explicitly with BuildSamples before approximate queries
// can run; queries on tables without samples execute exactly.
func (e *Engine) RegisterTable(name string, t *table.Table) error {
	if name == "" || t == nil {
		return fmt.Errorf("core: table registration needs a name and data")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return fmt.Errorf("core: table %q already registered", name)
	}
	if e.cfg.Backing != table.BackingRaw && !t.Lazy() {
		t = table.Compress(t)
	}
	t.BuildZones()
	e.tables[name] = &registeredTable{full: t}
	e.gen.Add(1)
	e.recordStorage(name, t)
	return nil
}

// recordStorage publishes per-table storage gauges: the logical
// (backing-invariant) size and the resident physical size. Called under
// the engine lock from RegisterTable.
func (e *Engine) recordStorage(name string, t *table.Table) {
	if e.obs == nil {
		return
	}
	reg := e.obs.Registry()
	reg.Gauge("aqp_storage_logical_bytes",
		"Logical (uncompressed) bytes per registered table.",
		"table", name).Set(t.SizeBytes())
	reg.Gauge("aqp_storage_resident_bytes",
		"Resident physical bytes per registered table (post-compression).",
		"table", name).Set(t.PhysicalSizeBytes())
}

// RegisterUDF registers a user-defined aggregate. Names are matched
// case-insensitively in SQL (stored upper-cased). The registry is replaced
// copy-on-write so queries already executing keep their snapshot.
func (e *Engine) RegisterUDF(name string, fn exec.UDF) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := make(exec.Registry, len(e.udfs)+1)
	for k, v := range e.udfs {
		next[k] = v
	}
	next[upper(name)] = fn
	e.udfs = next
	e.gen.Add(1)
}

// udfRegistry returns the current UDF snapshot. The returned map is never
// mutated after publication, so callers may read it without locks.
func (e *Engine) udfRegistry() exec.Registry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.udfs
}

// snapshotTable returns a point-in-time copy of one table's catalog entry:
// the slice headers are copied under the read lock, and registration only
// ever replaces (never mutates) the underlying arrays, so the snapshot
// stays consistent for the rest of the query.
func (e *Engine) snapshotTable(name string) (*registeredTable, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, ok := e.tables[name]
	if !ok {
		return nil, false
	}
	cp := *rt
	return &cp, true
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// BuildSamples draws uniform random samples (without replacement) of the
// given row counts from the named table and adds them to its catalog,
// shuffled so that any contiguous subset is itself a random sample. The
// engine lock is held only to split the RNG and, afterwards, to publish:
// the build itself (table.GatherStored, up to Config.Workers columns at a
// time) reads nothing but the immutable registered table, so queries keep
// running while it is in flight. The catalog slice is replaced
// copy-on-write: queries snapshotted before the publish keep seeing the old
// catalog.
//
// When the table was opened from a store file that records a digest, each
// sample is a file beside it: opened if an earlier build of the same sample
// left it there, built and saved if not (uniformSample). The rows, their
// order and their encoding are the same either way, and so is every answer.
func (e *Engine) BuildSamples(name string, rowCounts ...int) error {
	_, err := e.BuildSamplesReport(name, rowCounts...)
	return err
}

// BuildSamplesReport is BuildSamples that also reports, for each sample
// requested of a table with a store identity, where it came from — for a
// caller with a log to write. Samples of other tables have no file and no
// entry.
func (e *Engine) BuildSamplesReport(name string, rowCounts ...int) ([]SampleFile, error) {
	rt, srcs, err := e.sampleSources(name, rowCounts)
	if err != nil {
		return nil, err
	}
	full := rt.full // immutable once registered
	built := make([]*exec.StoredTable, len(rowCounts))
	var maps []io.Closer
	var files []SampleFile
	for i, n := range rowCounts {
		st, m, sf := e.uniformSample(name, full, srcs[i], n)
		built[i] = st
		if m != nil {
			maps = append(maps, m)
		}
		if sf != nil {
			files = append(files, *sf)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.sampleMaps = append(e.sampleMaps, maps...)
	samples := append(append([]*exec.StoredTable(nil), rt.samples...), built...)
	sort.Slice(samples, func(i, j int) bool {
		return samples[i].Data.NumRows() < samples[j].Data.NumRows()
	})
	rt.samples = samples
	e.gen.Add(1)
	return files, nil
}

// sampleSources validates a BuildSamples request and splits one RNG stream
// per requested sample, in request order, under the engine lock — the only
// part of a build whose order against other registrations decides which rows
// are drawn. A sample that turns out to be opened from its file has taken its
// Split all the same, so what is built after it draws what it would have.
func (e *Engine) sampleSources(name string, rowCounts []int) (*registeredTable, []*rng.Source, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rt, ok := e.tables[name]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown table %q", name)
	}
	srcs := make([]*rng.Source, len(rowCounts))
	for i, n := range rowCounts {
		if n <= 0 || n > rt.full.NumRows() {
			return nil, nil, fmt.Errorf("core: sample size %d invalid for table %q (%d rows)",
				n, name, rt.full.NumRows())
		}
		srcs[i] = e.src.Split()
	}
	return rt, srcs, nil
}

// storeSample materializes the rows at idx of full as a stored sample.
func (e *Engine) storeSample(full *table.Table, idx []int, backing table.Backing) *exec.StoredTable {
	s := full.GatherStored(idx, backing, e.cfg.workers())
	return &exec.StoredTable{Data: s, PopRows: full.NumRows()}
}

// AggAnswer is one aggregate's answer with its error bar and diagnostic
// verdict.
type AggAnswer struct {
	// Name is the output alias.
	Name string
	// Estimate is the approximate answer θ(S) (or the exact answer after
	// fallback).
	Estimate float64
	// ErrorBar is the α confidence interval; zero half-width after an
	// exact fallback.
	ErrorBar estimator.Interval
	// RelErr is the relative error bound (half-width / |estimate|).
	RelErr float64
	// Technique names the error-estimation method used.
	Technique string
	// Diagnosis is the diagnostic's verdict and its evidence. An exact
	// fallback replaces everything above but keeps the verdict that caused
	// it.
	Diagnosis
	// Exact marks an answer computed on the full dataset.
	Exact bool
}

// Diagnosis is the runtime diagnostic's verdict on one aggregate, with the
// evidence it was decided on.
type Diagnosis struct {
	// DiagnosticOK reports the verdict (true when diagnostics are disabled
	// or the answer is exact).
	DiagnosticOK bool
	// DiagnosticCause types a rejection — the diagnostic.Cause that decided
	// it, as the aqp_diagnostic_rejects_total counter labels it ("" when
	// accepted).
	DiagnosticCause string
	// DiagnosticReason explains a rejection: the cause with its evidence.
	DiagnosticReason string
	// DiagnosticRungsRun and DiagnosticDecidedAfter say where the
	// diagnostic's ladder stopped (diagnostic.Result.RungsRun and
	// DecidedAfter; 0 when it did not run).
	DiagnosticRungsRun, DiagnosticDecidedAfter int
	// DiagnosticSubsampleQueries is the diagnostic's cost in subsample
	// queries, and DiagnosticRungs the Δᵢ, σᵢ, πᵢ of the sizes it completed,
	// smallest first (diagnostic.Result.SubsampleQueries and PerSize).
	DiagnosticSubsampleQueries int
	DiagnosticRungs            []diagnostic.SizeStats
}

// GroupAnswer is a group's aggregates.
type GroupAnswer struct {
	Key  string
	Aggs []AggAnswer
}

// Answer is the engine's response to one query.
type Answer struct {
	SQL    string
	Groups []GroupAnswer
	// SampleRows is the size of the sample used (0 for exact execution).
	SampleRows int
	// PopulationRows is the full table's row count at execution time —
	// with SampleRows it gives the sample fraction the workload profiler
	// records.
	PopulationRows int
	// Selectivity is the fraction of scanned rows that survived the
	// predicate in the main execution pass, before any fallback re-run
	// (-1 when nothing was scanned).
	Selectivity float64
	// BootstrapKUsed is the largest bootstrap replicate count any of the
	// query's aggregates ran: Plan.Opt.BootstrapK, or 0 when no aggregate
	// was resampled (every bar has a closed form, or verdict-first skipped
	// the rejected ones).
	BootstrapKUsed int
	// Plan is the executed logical plan.
	Plan *plan.Plan
	// Counters meters the physical work.
	Counters exec.Counters
	// Cached marks an answer replayed from the engine's answer cache
	// without executing. Its Groups are bit-identical to what re-execution
	// would produce; Counters are zeroed because no physical work happened,
	// and Elapsed is the cache-lookup time.
	Cached bool
	// Elapsed is the local wall-clock execution time.
	Elapsed time.Duration
}

// clone returns a deep copy of the answer: its own Groups and Aggs, so
// neither side sees the other's later exact fallback. The plan, immutable once
// built, is shared.
func (a *Answer) clone() *Answer {
	cp := *a
	cp.Groups = append([]GroupAnswer(nil), a.Groups...)
	for gi := range cp.Groups {
		cp.Groups[gi].Aggs = append([]AggAnswer(nil), a.Groups[gi].Aggs...)
	}
	return &cp
}

// FellBack reports whether any aggregate fell back to exact execution.
func (a *Answer) FellBack() bool {
	for _, g := range a.Groups {
		for _, agg := range g.Aggs {
			if agg.Exact {
				return true
			}
		}
	}
	return false
}

// Explain parses and plans the query as Run would — the same sample choice,
// the same plan construction — and returns the plan tree rendering. A query
// planned exact from the block table is headed by the line
// "exact (block table: N blocks)", N the column blocks predicted decoded; a
// grouped one no group of the sample can be diagnosed for by
// "exact (too few rows: at most N sample rows per <col> group, floor F)".
func (e *Engine) Explain(query string) (string, error) {
	q := &request{sql: query, ctx: context.Background()}
	if err := e.analyze(q); err != nil {
		return "", err
	}
	var st *exec.StoredTable
	err := e.rebuildingRefused(q, func() (*exec.StoredTable, error) {
		var err error
		st, err = q.planFirst()
		return st, err
	})
	if err != nil {
		return "", err
	}
	var p *plan.Plan
	if st != nil {
		p, err = e.buildApproxPlan(q, st, e.exactOnReject(q.opts))
	} else {
		p, err = e.buildExactPlan(q, false)
	}
	if err != nil {
		return "", err
	}
	switch q.route {
	case obs.PlanBlockTable:
		return fmt.Sprintf("exact (block table: %d blocks)\n", q.plannedBlocks) + p.Explain(), nil
	case obs.PlanTooFewRows:
		return fmt.Sprintf("exact (too few rows: at most %d sample rows per %s group, floor %d)\n",
			q.ceiling, q.def.GroupBy[0], diagnostic.MinFilteredRows) + p.Explain(), nil
	}
	return p.Explain(), nil
}

// analyze parses q.sql and resolves it against a point-in-time catalog
// snapshot, setting q.e, q.def and q.rt: the *registeredTable is a private
// copy whose slices are never mutated, so the rest of the query runs
// lock-free.
func (e *Engine) analyze(q *request) error {
	stmt, err := sql.Parse(q.sql)
	if err != nil {
		return fmt.Errorf("core: %s: parse: %w", q.label(), err)
	}
	udfs := e.udfRegistry()
	def, err := plan.Analyze(stmt.(*sql.Select), func(name string) bool {
		_, ok := udfs[name]
		return ok
	})
	if err != nil {
		return fmt.Errorf("core: %s: analyze: %w", q.label(), err)
	}
	rt, ok := e.snapshotTable(def.Table)
	if !ok {
		return fmt.Errorf("core: %s: unknown table %q", q.label(), def.Table)
	}
	q.e, q.def, q.rt = e, def, rt
	return nil
}
