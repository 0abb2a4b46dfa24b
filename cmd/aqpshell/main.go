// Command aqpshell is an interactive approximate-SQL shell over a built-in
// demo dataset: a Sessions table of user session times across cities,
// sampled BlinkDB-style. Every aggregate query returns an answer with
// error bars and a diagnostic verdict; rejected queries fall back to exact
// execution automatically.
//
//	$ aqpshell
//	aqp> SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'
//	avg = 60.13 ± 0.41 (95% CI, closed-form, diagnostic OK) [sample 100000 rows, 21ms]
//
// Commands:
//
//	\explain <sql>    show the logical plan
//	\exact <sql>      run on the full dataset
//	\tables           list tables
//	\help             this text
//	\quit             exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/history"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/watchdog"
)

const demoRows = 1000000

func buildDemo(metricsAddr string, elog *obs.EventLog, audit float64, obsCfg obs.Config, profileDir string, cacheMB int) (*core.Engine, *watchdog.Watchdog, *history.Store, error) {
	src := rng.New(42)
	times := make(table.Float64Col, demoRows)
	cities := make(table.StringCol, demoRows)
	bytes := make(table.Float64Col, demoRows)
	names := []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS"}
	zipf := rng.NewZipf(src, len(names), 1.1)
	for i := 0; i < demoRows; i++ {
		cities[i] = names[zipf.Next()]
		times[i] = src.LogNormal(4, 0.6)         // session seconds, median ~55s
		bytes[i] = src.Pareto(10000, 1.3) / 1000 // KB transferred, heavy tail
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
		{Name: "KB", Type: table.Float64},
	}, times, cities, bytes)

	tracer := obs.NewTracer(obsCfg)
	var wd *watchdog.Watchdog
	var bus *alert.Bus
	if audit > 0 {
		bus = alert.New(alert.Config{Metrics: tracer.Registry()})
		wd = watchdog.New(watchdog.Config{
			AuditFraction: audit,
			Metrics:       tracer.Registry(),
			Alerts:        bus,
		})
	}
	var hist *history.Store
	if profileDir != "" {
		var err error
		hist, err = history.Open(profileDir, history.Options{
			Registry: tracer.Registry(),
			SLOs: []history.SLOSpec{
				{Name: "latency-p99", Kind: history.SLOLatency,
					Objective: 0.99, ThresholdMs: 1000},
				{Name: "availability", Kind: history.SLOAvailability, Objective: 0.999},
			},
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	cfg := core.Config{
		Seed:        42,
		Workers:     8,
		CacheBytes:  int64(cacheMB) << 20,
		Obs:         tracer,
		ObsConfig:   obsCfg,
		MetricsAddr: metricsAddr,
		EventLog:    elog,
		Watchdog:    wd,
		History:     hist,
		Alerts:      bus,
	}
	if cacheMB > 0 {
		// Give the block layer something to do: compressed samples are
		// decode-bound, which is the workload the cache accelerates.
		// Answers are bit-identical across sample backings either way.
		cfg.SampleBacking = table.BackingCompressed
	}
	e := core.New(cfg)
	if err := e.RegisterTable("Sessions", tbl); err != nil {
		return nil, nil, nil, err
	}
	e.RegisterUDF("TRIMMEDMEAN", func(values, weights []float64) float64 {
		var m stats.Moments
		for i, v := range values {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			m.AddWeighted(v, w)
		}
		// Clamp influence of extremes by winsorizing at a fixed cap.
		var c stats.Moments
		cap95 := m.Mean() + 3*m.Stddev()
		for i, v := range values {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			if v > cap95 {
				v = cap95
			}
			c.AddWeighted(v, w)
		}
		return c.Mean()
	})
	if err := e.BuildSamples("Sessions", 100000); err != nil {
		return nil, nil, nil, err
	}
	return e, wd, hist, nil
}

func main() {
	explain := flag.Bool("explain", false,
		"print the per-stage trace (span tree and counters) after each query")
	metricsAddr := flag.String("metrics", "",
		"serve /metrics and /debug/queries on this address (e.g. 127.0.0.1:9090)")
	timeout := flag.Duration("timeout", 0,
		"per-query deadline (e.g. 500ms); past it the query is cancelled mid-pipeline and reports a deadline error")
	logFormat := flag.String("log", "",
		"structured query event log: 'json' writes one JSON record per query to stderr")
	audit := flag.Float64("audit", 0,
		"calibration watchdog: audit this fraction of queries exactly (e.g. 0.1; with -metrics, serves /debug/calibration and /debug/alerts)")
	profileDir := flag.String("profile", "",
		"persist query history to this directory and enable the \\profile workload summary (with -metrics, serves /debug/workload, /debug/slo, /debug/history)")
	historyPath := flag.String("history", "",
		"offline mode: replay a history segment file or directory from a dead process, print the workload summary, and exit")
	slowMs := flag.Float64("slowms", 0,
		"slow-query threshold in ms for the trace ring and event log (0 = 1000)")
	maxRelErr := flag.Float64("maxrelerr", 0,
		"event-log miscalibration threshold: flag aggregates whose relative error exceeds this (0 = off)")
	ringSize := flag.Int("ring", 0,
		"trace ring capacity for /debug/queries (0 = 64)")
	otlpURL := flag.String("otlp", "",
		"export query spans to this OTLP/HTTP collector endpoint")
	otlpFile := flag.String("otlp-file", "",
		"append OTLP JSON span batches to this file (combines with -otlp)")
	cacheMB := flag.Int("cache-mb", 0,
		"decoded-block/answer cache budget in MiB (0 = caching off; with -metrics, serves /debug/cache)")
	flag.Parse()

	obsCfg := obs.Config{RingSize: *ringSize, SlowQueryMs: *slowMs, MaxRelErr: *maxRelErr,
		ExportURL: *otlpURL, ExportPath: *otlpFile}

	if *historyPath != "" {
		if err := replayHistory(*historyPath); err != nil {
			fmt.Fprintln(os.Stderr, "aqpshell:", err)
			os.Exit(1)
		}
		return
	}

	var elog *obs.EventLog
	switch *logFormat {
	case "":
	case "json":
		elog = obs.NewEventLog(os.Stderr, obsCfg)
	default:
		fmt.Fprintf(os.Stderr, "aqpshell: unknown -log format %q (only 'json')\n", *logFormat)
		os.Exit(2)
	}

	fmt.Println("aqpshell — approximate query processing with reliable error bars")
	fmt.Println("demo table: Sessions(Time FLOAT64, City STRING, KB FLOAT64),",
		demoRows, "rows; sample: 100k")
	fmt.Println(`type \help for commands`)
	engine, wd, hist, err := buildDemo(*metricsAddr, elog, *audit, obsCfg, *profileDir, *cacheMB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqpshell:", err)
		os.Exit(1)
	}
	defer engine.Close()
	defer wd.Close()
	defer hist.Close()
	if addr, err := engine.MetricsEndpoint(); err != nil {
		fmt.Fprintln(os.Stderr, "aqpshell: metrics endpoint:", err)
		os.Exit(1)
	} else if addr != "" {
		fmt.Printf("metrics: http://%s/metrics  traces: http://%s/debug/queries\n", addr, addr)
		if wd != nil {
			fmt.Printf("calibration: http://%s/debug/calibration  alerts: http://%s/debug/alerts\n", addr, addr)
		}
		if hist != nil {
			fmt.Printf("workload: http://%s/debug/workload  slo: http://%s/debug/slo  history: http://%s/debug/history\n",
				addr, addr, addr)
		}
	}

	// queryCtx applies the -timeout deadline to one query's execution.
	queryCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}
	// show prints an answer and, under -explain, the recorded span tree —
	// which includes the query's outcome and admission queue wait — plus
	// the final diagnostic verdict per aggregate.
	show := func(ans *core.Answer, err error) {
		printAnswer(ans, err)
		if !*explain {
			return
		}
		if t, ok := engine.Tracer().Last(); ok {
			fmt.Print(obs.FormatTrace(t))
		}
		if ans != nil {
			fmt.Println(verdictSummary(ans))
		}
		if s := cacheSummary(engine); s != "" {
			fmt.Println(s)
		}
	}

	run := func(sql string, opts core.RunOptions) {
		ctx, cancel := queryCtx()
		ans, err := engine.RunWithOptions(ctx, sql, opts)
		cancel()
		show(ans, err)
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("aqp> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		switch {
		case line == `\quit` || line == `\q` || line == "exit":
			return
		case line == `\help`:
			fmt.Println(`  <sql>             approximate answer with error bars
  \explain <sql>    show the logical plan
  \exact <sql>      run on the full dataset
  \load <csv> <name> <types> [rows]  load a CSV table and sample it
  \tables           list tables
  \profile          workload profile summary (requires -profile <dir>)
  \quit             exit`)
		case line == `\profile`:
			if hist == nil {
				fmt.Println("no history store; start with -profile <dir>")
				continue
			}
			fmt.Print(history.FormatWorkload(hist.Profiles()))
			if s := cacheSummary(engine); s != "" {
				fmt.Println(s)
			}
		case strings.HasPrefix(line, `\load `):
			// \load <csv-path> <table-name> <type,type,...> [sample-rows]
			args := strings.Fields(strings.TrimPrefix(line, `\load `))
			if len(args) < 3 {
				fmt.Println(`usage: \load <csv> <name> <float|int|string,...> [sample-rows]`)
				continue
			}
			if err := loadCSV(engine, args); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\tables`:
			fmt.Println("  Sessions(Time FLOAT64, City STRING, KB FLOAT64) —",
				demoRows, "rows, sample 100k; UDF: TRIMMEDMEAN(col)")
		case strings.HasPrefix(line, `\explain `):
			out, err := engine.Explain(strings.TrimPrefix(line, `\explain `))
			report(out, err)
		case strings.HasPrefix(line, `\exact `):
			run(strings.TrimPrefix(line, `\exact `), core.RunOptions{Exact: true})
		default:
			run(line, core.RunOptions{})
		}
	}
}

// replayHistory loads a history segment file (or a whole history
// directory) from a dead process and prints the same workload summary
// /debug/workload would have served.
func replayHistory(path string) error {
	profiles, segs, err := history.Replay(path)
	if err != nil {
		return err
	}
	records, skipped := 0, 0
	for _, s := range segs {
		records += s.Records
		if s.TailSkipped {
			skipped++
			fmt.Fprintf(os.Stderr, "aqpshell: %s: corrupt tail skipped: %s\n",
				s.Name, s.TailErr)
		}
	}
	fmt.Printf("replayed %d record(s) from %d segment(s)", records, len(segs))
	if skipped > 0 {
		fmt.Printf(" (%d corrupt tail(s) skipped)", skipped)
	}
	fmt.Println()
	fmt.Print(history.FormatWorkload(profiles))
	return nil
}

// loadCSV registers a CSV file as a table and builds a sample over it.
func loadCSV(engine *core.Engine, args []string) error {
	path, name := args[0], args[1]
	var types []table.Type
	for _, tname := range strings.Split(args[2], ",") {
		switch strings.ToLower(strings.TrimSpace(tname)) {
		case "float", "float64":
			types = append(types, table.Float64)
		case "int", "int64":
			types = append(types, table.Int64)
		case "string", "str":
			types = append(types, table.String)
		default:
			return fmt.Errorf("unknown column type %q", tname)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tbl, err := table.ReadCSV(f, types)
	if err != nil {
		return err
	}
	if err := engine.RegisterTable(name, tbl); err != nil {
		return err
	}
	sampleRows := tbl.NumRows() / 10
	if len(args) > 3 {
		if v, err := strconv.Atoi(args[3]); err == nil {
			sampleRows = v
		}
	}
	if sampleRows > 0 && sampleRows < tbl.NumRows() {
		if err := engine.BuildSamples(name, sampleRows); err != nil {
			return err
		}
		fmt.Printf("loaded %s: %d rows, sampled %d\n", name, tbl.NumRows(), sampleRows)
	} else {
		fmt.Printf("loaded %s: %d rows (no sample; queries run exactly)\n", name, tbl.NumRows())
	}
	return nil
}

func report(out string, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(out)
}

func printAnswer(ans *core.Answer, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, g := range ans.Groups {
		prefix := ""
		if g.Key != "" {
			prefix = g.Key + ": "
		}
		for _, a := range g.Aggs {
			diag := "diagnostic OK"
			if !a.DiagnosticOK {
				diag = "diagnostic REJECTED → " + describeFallback(a)
			}
			if a.Exact && a.DiagnosticOK {
				fmt.Printf("%s%s = %.6g (exact)\n", prefix, a.Name, a.Estimate)
				continue
			}
			fmt.Printf("%s%s = %.6g ± %.3g (95%% CI, %s, %s)\n",
				prefix, a.Name, a.Estimate, a.ErrorBar.HalfWidth, a.Technique, diag)
		}
	}
	skipped := ""
	if ans.Counters.BlocksSkipped > 0 {
		skipped = fmt.Sprintf(", %d block(s) skipped", ans.Counters.BlocksSkipped)
	}
	if ans.Counters.CacheHits > 0 {
		skipped += fmt.Sprintf(", %d cached block(s)", ans.Counters.CacheHits)
	}
	if ans.Cached {
		fmt.Printf("[answer cache, %v]\n", ans.Elapsed.Round(1000))
	} else if ans.SampleRows > 0 {
		fmt.Printf("[sample %d rows, %v, %d scan(s)%s]\n",
			ans.SampleRows, ans.Elapsed.Round(1000), ans.Counters.Scans, skipped)
	} else {
		fmt.Printf("[full data, %v%s]\n", ans.Elapsed.Round(1000), skipped)
	}
}

// cacheSummary renders the engine's cache state for the -explain footer
// and the \profile summary; empty when caching is off.
func cacheSummary(engine *core.Engine) string {
	st := engine.CacheStatsSnapshot(3)
	if !st.Enabled {
		return ""
	}
	var b strings.Builder
	lookups := st.Block.Hits + st.Block.Misses
	rate := 0.0
	if lookups > 0 {
		rate = float64(st.Block.Hits) / float64(lookups)
	}
	fmt.Fprintf(&b, "cache: blocks %d/%d hits (%.0f%%), %s resident of %s budget, %d evicted; answers %d entries (%d replays)",
		st.Block.Hits, lookups, rate*100, mib(st.Block.Bytes), mib(st.Block.Budget),
		st.Block.Evictions, st.Answer.Entries, st.Answer.Hits)
	for _, t := range st.Tables {
		fmt.Fprintf(&b, "\n  hot: %s %.0f%% resident (%s of %s)",
			t.Name, t.HotFraction*100, mib(t.ResidentBytes), mib(t.LogicalBytes))
	}
	return b.String()
}

func mib(n int64) string {
	return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
}

// verdictSummary renders the final per-aggregate diagnostic verdicts for
// the -explain footer: "verdicts: AVG(Time)=accept, MAX(KB)=reject(exact)".
func verdictSummary(ans *core.Answer) string {
	var b strings.Builder
	b.WriteString("verdicts:")
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			b.WriteByte(' ')
			if g.Key != "" {
				b.WriteString(g.Key)
				b.WriteByte('/')
			}
			b.WriteString(a.Name)
			b.WriteByte('=')
			if a.DiagnosticOK {
				b.WriteString("accept")
			} else {
				b.WriteString("reject")
			}
			if a.Exact {
				b.WriteString("(exact)")
			}
		}
	}
	return b.String()
}

func describeFallback(a core.AggAnswer) string {
	if a.Exact {
		return "answered exactly"
	}
	return "approximation kept (fallback disabled)"
}
