package repro

// The engine's benchmarks: end-to-end queries, the exact fallback, the
// sample scan, boot (store open, sample build), the bootstrap kernel, the
// diagnostic's worker scaling, the telemetry budget and trace
// generation. Run
//
//	go test -run '^$' -bench . -benchmem
//
// at the repository root. The paper's figure and ablation benchmarks are in
// paper/, a module of its own.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/history"
	"repro/internal/plan"
	"repro/internal/resample"
	"repro/internal/rng"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/watchdog"
	"repro/internal/workload"
)

// --- End-to-end engine benchmarks (real execution, local) ---

func benchEngine(b *testing.B, opts core.Config) *core.Engine {
	b.Helper()
	src := rng.New(1)
	n := 200000
	times := make(table.Float64Col, n)
	cities := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < n; i++ {
		times[i] = src.LogNormal(4, 0.6)
		cities[i] = names[src.Intn(len(names))]
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)
	e := core.New(opts)
	if err := e.RegisterTable("Sessions", tbl); err != nil {
		b.Fatal(err)
	}
	if err := e.BuildSamples("Sessions", 40000); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEnginePipelineOptimized measures the real local cost of the
// fully optimized pipeline (answer + error bars + diagnostic, one scan).
func BenchmarkEnginePipelineOptimized(b *testing.B) {
	e := benchEngine(b, core.Config{Seed: 1, Workers: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'"); err != nil {
			b.Fatal(err)
		}
	}
}

// fallbackTable is BenchmarkExactFallback's Events(Day, Device, V): 250k
// rows, compressed, Day ascending over 90 days. It returns the source the
// rows were drawn from, for the benchmark's further draws.
func fallbackTable() (*rng.Source, *exec.StoredTable) {
	src := rng.New(2)
	n := 250000
	day := make(table.Int64Col, n)
	device := make(table.StringCol, n)
	v := make(table.Float64Col, n)
	for i := 0; i < n; i++ {
		day[i] = int64(i * 90 / n)
		device[i] = fmt.Sprintf("dev%02d", src.Intn(40))
		v[i] = src.LogNormal(4, 0.6)
	}
	raw := table.MustNew(table.Schema{
		{Name: "Day", Type: table.Int64},
		{Name: "Device", Type: table.String},
		{Name: "V", Type: table.Float64},
	}, day, device, v)
	return src, &exec.StoredTable{Data: table.Compress(raw)}
}

// ungroupedAvgPlan is the plan of BenchmarkExactFallback/ungrouped_avg.
func ungroupedAvgPlan(tb testing.TB) *plan.Plan {
	def, err := plan.Analyze(sql.MustParse(
		"SELECT AVG(V) FROM Events WHERE Day >= 20 AND Day < 50").(*sql.Select), nil)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := plan.Build(def, plan.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestExactFallbackAllocs gates, as a count, what
// BenchmarkExactFallback/ungrouped_avg reports: the exact operator's
// allocations per query, which a column check or an expression walk that
// allocates on every query would raise.
func TestExactFallbackAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, st := fallbackTable()
	p := ungroupedAvgPlan(t)
	run := func() {
		if res, err := exec.Run(context.Background(), p, st, nil, exec.Config{Workers: 2}); err != nil || len(res.Groups) != 1 {
			t.Fatalf("%v, err %v", res, err)
		}
	}
	run() // the first query checks the columns; every later one finds them checked
	if allocs := testing.AllocsPerRun(20, run); allocs > 56 {
		t.Errorf("an ungrouped exact AVG allocates %v times per query, want at most 56", allocs)
	}
}

// BenchmarkExactFallback measures what a rejected diagnostic costs: the
// exact re-execution of a grouped AVG+MIN with a Day window over a 250k-row
// compressed table, through exec.Run's block-streamed exact operator, and of
// an ungrouped AVG over the same window.
// B/op is the allocation ceiling — it should stay in the tens of KiB,
// independent of the rows scanned. The cache-on run attaches the serving
// benchmark's 8 MiB block cache, smaller than the blocks one scan admits
// (30 × (8 + 16) KiB per column pair here, 5.9 MB for a City panel there):
// the operator reads past it, so evictions/op is 0 and the rest of the line
// matches the cache-off run.
func BenchmarkExactFallback(b *testing.B) {
	src, st := fallbackTable()
	def, err := plan.Analyze(sql.MustParse(
		"SELECT Device, AVG(V), MIN(V) FROM Events WHERE Day >= 20 AND Day < 50 GROUP BY Device").(*sql.Select), nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(def, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cacheBytes := range []int64{0, 8 << 20} {
		b.Run(fmt.Sprintf("cache-%dMiB", cacheBytes>>20), func(b *testing.B) {
			cfg := exec.Config{Workers: 2}
			if cacheBytes > 0 {
				cfg.Blocks = cache.NewBlockCache(cache.BlockConfig{Bytes: cacheBytes})
				cfg.Preds = cache.NewPredMemo(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exec.Run(context.Background(), p, st, nil, cfg)
				if err != nil || len(res.Groups) != 40 {
					b.Fatalf("groups=%v err=%v", res, err)
				}
			}
			if cacheBytes > 0 {
				b.ReportMetric(float64(cfg.Blocks.Stats().Evictions)/float64(b.N), "evictions/op")
			}
		})
	}
	// /ungrouped_avg: the same window with no GROUP BY, whose moments fold
	// each block's surviving values in one Moments.AddAll call.
	b.Run("ungrouped_avg", func(b *testing.B) {
		p := ungroupedAvgPlan(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := exec.Run(context.Background(), p, st, nil, exec.Config{Workers: 2}); err != nil || len(res.Groups) != 1 {
				b.Fatalf("%v, err %v", res, err)
			}
		}
	})
	// /udf: the holistic sink — an ungrouped frac_above_median_x2 over 256k
	// rows keeps every value, once; B/op is that vector plus the order the
	// UDF reads (12 B/row), not copies of it.
	b.Run("udf", func(b *testing.B) {
		x := make(table.Float64Col, 1<<18)
		for i := range x {
			x[i] = src.LogNormal(4, 0.6)
		}
		st := &exec.StoredTable{Data: table.Compress(table.MustNew(
			table.Schema{{Name: "V", Type: table.Float64}}, x))}
		udfs := exec.Registry{"FRAC_ABOVE_MEDIAN_X2": workload.UDFByName("frac_above_median_x2").Fn}
		def, err := plan.Analyze(sql.MustParse("SELECT frac_above_median_x2(V) FROM Events").(*sql.Select),
			func(name string) bool { return udfs[name] != nil })
		if err != nil {
			b.Fatal(err)
		}
		p, err := plan.Build(def, plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := exec.Run(context.Background(), p, st, udfs, exec.Config{Workers: 2}); err != nil || len(res.Groups) != 1 {
				b.Fatalf("%v, err %v", res, err)
			}
		}
	})
}

// BenchmarkSampleScan measures the approximate path's scan and split alone:
// plain queries (no error estimation) over a 50,000-row compressed sample of
// a 500,000-row table, so each op is the sample scan, the GROUP BY split and
// one θ per group. /masked_sum reads one column of every row (zeros where no
// filter applies), /filtered_avg a quarter of them, /grouped_avg every row
// split over 40 devices. B/op is the per-row vectors the scan builds.
func BenchmarkSampleScan(b *testing.B) {
	src := rng.New(3)
	n := 50000
	v := make(table.Float64Col, n)
	device := make(table.StringCol, n)
	hour := make(table.Int64Col, n)
	for i := 0; i < n; i++ {
		v[i] = src.LogNormal(4, 0.6)
		device[i] = fmt.Sprintf("dev%02d", src.Intn(40))
		hour[i] = int64(i % 24)
	}
	raw := table.MustNew(table.Schema{
		{Name: "V", Type: table.Float64},
		{Name: "Device", Type: table.String},
		{Name: "Hour", Type: table.Int64},
	}, v, device, hour)
	raw.BuildZones()
	st := &exec.StoredTable{Data: table.Compress(raw), PopRows: 10 * n}
	for _, c := range []struct {
		name, q string
		groups  int
	}{
		{"masked_sum", "SELECT SUM(V) FROM Events", 1},
		{"filtered_avg", "SELECT AVG(V) FROM Events WHERE Hour < 6", 1},
		{"grouped_avg", "SELECT Device, AVG(V) FROM Events GROUP BY Device", 40},
	} {
		b.Run(c.name, func(b *testing.B) {
			def, err := plan.Analyze(sql.MustParse(c.q).(*sql.Select), nil)
			if err != nil {
				b.Fatal(err)
			}
			p, err := plan.Build(def, plan.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exec.Run(context.Background(), p, st, nil, exec.Config{Workers: 2})
				if err != nil || len(res.Groups) != c.groups {
					b.Fatalf("%v, err %v", res, err)
				}
			}
		})
	}
}

// bootTable is the 250k-row compressed table BenchmarkBuildSamples and
// BenchmarkOpenStore boot on, shaped like the serving benchmark's: an
// ascending int64, two dictionary strings, six float64 measures.
func bootTable() *table.Table {
	src := rng.New(3)
	n := 250000
	day := make(table.Int64Col, n)
	city := make(table.StringCol, n)
	device := make(table.StringCol, n)
	cities := []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS"}
	for i := 0; i < n; i++ {
		day[i] = int64(i * 90 / n)
		city[i] = cities[src.Intn(len(cities))]
		device[i] = fmt.Sprintf("dev%02d", src.Intn(40))
	}
	schema := table.Schema{
		{Name: "Day", Type: table.Int64},
		{Name: "City", Type: table.String},
		{Name: "Device", Type: table.String},
	}
	cols := []table.Column{day, city, device}
	for _, d := range []workload.DataDist{workload.Gaussian, workload.Uniform,
		workload.Exponential, workload.LogNormalMild, workload.ParetoTail, workload.Spiky} {
		schema = append(schema, table.Field{Name: d.String(), Type: table.Float64})
		cols = append(cols, table.Float64Col(workload.GenerateColumn(src.Split(), d, n)))
	}
	return table.Compress(table.MustNew(schema, cols...))
}

// BenchmarkOpenStore measures what an aqpd start on a store file pays to map
// its table: OpenStore of bootTable's store, which reads the header, the
// block tables and the JSON metadata and attaches zone maps, and no payload
// byte. mapped-B/op is the file's size.
func BenchmarkOpenStore(b *testing.B) {
	path := filepath.Join(b.TempDir(), "events.store")
	if err := table.WriteStore(path, bootTable()); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, closer, err := table.OpenStore(path)
		if err != nil {
			b.Fatal(err)
		}
		closer.Close()
	}
	b.ReportMetric(float64(fi.Size()), "mapped-B/op")
}

// BenchmarkBuildSamples measures what an aqpd start pays for its sample
// before its first answer: a 50,000-row uniform sample of bootTable, kept
// compressed. /cold draws and encodes it, which is every start of a table
// without a store identity and the first start of one with; /persisted is
// every later start — the table is a store file, the sample file is beside
// it, and BuildSamples checks the digest of its frame and serves it from the
// mapping. /persisted_first_avg is that start plus its first answer,
// SELECT AVG(Gaussian), whose scan checks the one column it reads: what a
// start pays before it answers. B/op is the boot's allocation volume,
// mapped-B/op what it maps instead.
func BenchmarkBuildSamples(b *testing.B) {
	full := bootTable()
	boot := func(b *testing.B, full *table.Table) (*core.Engine, []core.SampleFile) {
		e := core.New(core.Config{Seed: 20140622, Workers: 2,
			Backing: table.BackingCompressed, SampleBacking: table.BackingCompressed})
		if err := e.RegisterTable("Events", full); err != nil {
			b.Fatal(err)
		}
		files, err := e.BuildSamplesReport("Events", 50000)
		if err != nil {
			b.Fatal(err)
		}
		return e, files
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boot(b, full)
		}
		b.ReportMetric(0, "mapped-B/op")
	})
	for _, probe := range []string{"", "SELECT AVG(Gaussian) FROM Events"} {
		name := "persisted"
		if probe != "" {
			name = "persisted_first_avg"
		}
		b.Run(name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "events.store")
			if err := table.WriteStore(path, full); err != nil {
				b.Fatal(err)
			}
			stored, closer, err := table.OpenStore(path)
			if err != nil {
				b.Fatal(err)
			}
			defer closer.Close()
			_, files := boot(b, stored) // builds and saves
			if len(files) != 1 || files[0].Opened || files[0].SaveErr != nil {
				b.Fatalf("first boot: sample files %+v, want one built and saved", files)
			}
			fi, err := os.Stat(files[0].Path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, files := boot(b, stored)
				if !files[0].Opened {
					b.Fatalf("boot %d: sample file %+v, want opened", i, files[0])
				}
				if probe != "" {
					if _, err := e.Run(context.Background(), probe); err != nil {
						b.Fatal(err)
					}
				}
				e.Close()
			}
			b.ReportMetric(float64(fi.Size()), "mapped-B/op")
		})
	}
}

// BenchmarkBootstrapKernel is the §5.3.1 loop-order ablation: resample-major
// (one full pass + one fresh weight vector per resample, the naive
// Poissonized layout) against the blocked fused kernel (one streaming pass,
// block-major, no weight vectors). n=100k values, K=100 resamples.
func BenchmarkBootstrapKernel(b *testing.B) {
	const n, k = 100000, 100
	src := rng.New(50)
	values := make([]float64, n)
	for i := range values {
		values[i] = 100 + 10*src.NormFloat64()
	}
	q := estimator.Query{Kind: estimator.Avg}

	b.Run("resample-major", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := rng.New(uint64(i))
			var sink float64
			for r := 0; r < k; r++ {
				w := resample.PoissonWeights(src, n)
				sink += q.EvalWeighted(values, w)
			}
			if sink == 0 {
				b.Fatal("degenerate estimates")
			}
		}
	})
	b.Run("blocked-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sums := kernel.FusedSums(context.Background(), values, k, uint64(i), 1, 1)
			var sink float64
			for r := 0; r < k; r++ {
				sink += q.FinalizeFused(sums.WX[r], sums.W[r], n)
			}
			if sink == 0 {
				b.Fatal("degenerate estimates")
			}
		}
	})
	b.Run("blocked-fused-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sums := kernel.FusedSums(context.Background(), values, k, uint64(i), 1, 4)
			if sums.WX[0] == 0 {
				b.Fatal("degenerate estimates")
			}
		}
	})
	b.Run("blocked-generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ests, _ := kernel.Generic(context.Background(), values, k, uint64(i), 1, 1, q.EvalWeighted)
			if ests[0] == 0 {
				b.Fatal("degenerate estimates")
			}
		}
	})
}

// BenchmarkDiagnosticParallel measures diagnostic.Run's worker scaling: the
// P subsample queries at each ladder size fan out across Workers goroutines
// with a worker-count-invariant verdict.
func BenchmarkDiagnosticParallel(b *testing.B) {
	src := rng.New(51)
	s := make([]float64, 100000)
	for i := range s {
		s[i] = 10 + 3*src.NormFloat64()
	}
	q := estimator.Query{Kind: estimator.Avg}
	t := q.Eval(s)
	theta := func() float64 { return t }
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := servedConfig(len(s))
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := diagnostic.Run(context.Background(), rng.New(uint64(i)), s, theta, q,
					estimator.Bootstrap{K: 100}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.PerSize) == 0 {
					b.Fatal("no per-size stats")
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead holds the "cheap enough to leave on" budget
// (ROADMAP aim 4): the same four-query mix on the same data and seed under
// six telemetry modes. Answers are bit-identical across modes, so a
// latency difference is telemetry cost. Every engine is built and warmed
// before the clock starts, every round starts from a collected heap, and
// each pass visits every mode once, alternating direction, so slow drift
// (frequency scaling, allocator warm-up, a neighbour's load) and the
// garbage of one mode cannot land on another. Reports the median per-pass
// ratio of spans over off and of every other mode over spans, in percent;
// from 16 iterations (64 passes) up, the event log, the durable history
// write path or the OTLP exporter (posting to a local stub collector)
// adding 5% or more over spans fails. CI runs it at -benchtime 16x.
func BenchmarkTelemetryOverhead(b *testing.B) {
	queries := []string{
		"SELECT AVG(Time) FROM Sessions",
		"SELECT SUM(Time) FROM Sessions WHERE City = 'NYC'",
		"SELECT PERCENTILE(Time, 0.9) FROM Sessions",
		"SELECT AVG(Time) FROM Sessions GROUP BY City",
	}
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
	}))
	b.Cleanup(collector.Close)

	modes := []string{"off", "spans", "eventlog", "watchdog", "history", "export"}
	const off, spans = 0, 1
	engines := make([]*core.Engine, len(modes))
	for i, mode := range modes {
		cfg := core.Config{Seed: 1, Workers: 8}
		if mode != "off" {
			cfg.Obs = obs.NewTracer(obs.Config{})
		}
		stop := func() {}
		switch mode {
		case "eventlog":
			cfg.EventLog = obs.NewEventLog(io.Discard, obs.Config{})
		case "watchdog":
			// Wired as aqpd wires it — every window check sends to the bus —
			// but auditing inline: a background audit would run under the
			// clock of whichever mode comes next.
			bus := alert.New(alert.Config{Metrics: cfg.Obs.Registry()})
			wd := watchdog.New(watchdog.Config{AuditFraction: 1.0 / 16, Synchronous: true,
				Metrics: cfg.Obs.Registry(), Alerts: bus})
			cfg.Watchdog, cfg.Alerts, stop = wd, bus, wd.Close
		case "history":
			hist, err := history.Open(b.TempDir(), history.Options{SampleInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			cfg.History, stop = hist, func() { hist.Close() } //nolint:errcheck
		case "export":
			cfg.ObsConfig = obs.Config{ExportURL: collector.URL + "/v1/traces"}
		}
		e := benchEngine(b, cfg)
		// Queued audits read the engine's samples: the watchdog drains first.
		b.Cleanup(func() { stop(); e.Close() }) //nolint:errcheck
		engines[i] = e
	}
	round := func(e *core.Engine) time.Duration {
		runtime.GC() // no round pays for the garbage of the one before
		start := time.Now()
		for _, q := range queries {
			if _, err := e.Run(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for _, e := range engines {
		round(e)
	}
	// Each iteration makes passesPerIter passes, each timing one round per
	// mode — forwards on even passes, backwards on odd ones — and keeps
	// each mode's round over its baseline's round of the same pass. The
	// report is the median of those ratios: on a shared machine single
	// rounds stray by 10-30%, which moves a sum of rounds by several
	// percent but not the median of many ratios.
	const passesPerIter = 4
	ratios := make([][]float64, len(modes))
	times := make([]time.Duration, len(modes))
	b.ResetTimer()
	for pass := 0; pass < b.N*passesPerIter; pass++ {
		for j := range engines {
			m := j
			if pass%2 == 1 {
				m = len(engines) - 1 - j
			}
			times[m] = round(engines[m])
		}
		for m := spans; m < len(modes); m++ {
			base := spans
			if m == spans {
				base = off
			}
			ratios[m] = append(ratios[m], float64(times[m])/float64(times[base]))
		}
	}
	b.StopTimer()
	// over is mode m's median round over its baseline's, in percent.
	over := func(m int) float64 {
		r := ratios[m]
		slices.Sort(r)
		return ((r[(len(r)-1)/2]+r[len(r)/2])/2 - 1) * 100
	}
	b.ReportMetric(over(spans), "spans-%/off")
	for m := spans + 1; m < len(modes); m++ {
		pct := over(m)
		b.ReportMetric(pct, modes[m]+"-%/spans")
		// The watchdog's audits are exact re-executions, one query in 16,
		// under its own clock: reported, not budgeted.
		if b.N >= 16 && pct >= 5 && modes[m] != "watchdog" {
			b.Errorf("%s adds %.2f%% over spans (budget 5%%)", modes[m], pct)
		}
	}
}

// BenchmarkWorkloadGeneration measures synthetic trace generation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := workload.Generate(workload.TraceConfig{
			Kind: workload.Facebook, NumQueries: 10,
			PopulationSize: 10000, Seed: uint64(i), AdversarialFraction: -1,
		})
		if len(trace) != 10 {
			b.Fatal("bad trace")
		}
	}
}
