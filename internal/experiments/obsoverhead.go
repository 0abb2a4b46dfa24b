package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/watchdog"
)

// obsOverheadQueries is the mixed workload the overhead measurement
// serves under each telemetry mode: closed-form, filtered scaled sum,
// bootstrap percentile, and a GROUP BY fan-out.
var obsOverheadQueries = []string{
	"SELECT AVG(X) FROM T",
	"SELECT SUM(X) FROM T WHERE G = 'a'",
	"SELECT PERCENTILE(X, 0.9) FROM T",
	"SELECT AVG(X) FROM T GROUP BY G",
}

// ObsOverheadMode is one telemetry configuration's measured cost.
type ObsOverheadMode struct {
	// Mode is "off", "spans", "spans+eventlog", "spans+watchdog",
	// "spans+history" or "spans+export".
	Mode string `json:"mode"`
	// Queries is the number of timed queries.
	Queries int `json:"queries"`
	// TotalMs and MeanMs are wall-clock over the timed loop.
	TotalMs float64 `json:"total_ms"`
	MeanMs  float64 `json:"mean_ms"`
	// OverheadPct is the mean-latency overhead relative to the "off"
	// baseline; negative values are measurement noise.
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsOverheadResult quantifies the telemetry tax: the same workload on
// the same data and seed, served with telemetry off, with trace spans,
// with spans plus the structured event log, the calibration watchdog
// (background audits enabled), the durable history store, and the OTLP
// span exporter posting to a local stub collector. The PR 2 invariant
// makes answers bit-identical across modes, so any latency difference is
// pure observability cost.
type ObsOverheadResult struct {
	Baseline string            `json:"baseline"`
	Modes    []ObsOverheadMode `json:"modes"`
}

// ObsOverhead measures per-query latency under each telemetry mode.
//
// Methodology: every mode's engine is built and warmed BEFORE any
// timing, then timed rounds interleave the modes round-robin. Running
// modes back-to-back instead (off first, everything else after) let
// slow environmental drift — CPU frequency scaling, page-cache and
// allocator warm-up — land entirely on the baseline, which showed up as
// impossible negative overheads for the later modes.
func ObsOverhead(cfg Config) *ObsOverheadResult {
	src := cfg.stream("obs-overhead-data", 0)
	n := cfg.PopulationSize
	xs := make(table.Float64Col, n)
	gs := make(table.StringCol, n)
	names := []string{"a", "b", "c", "d"}
	zipf := rng.NewZipf(src, len(names), 1.1)
	for i := 0; i < n; i++ {
		gs[i] = names[zipf.Next()]
		xs[i] = src.LogNormal(4, 0.6)
	}
	tbl := table.MustNew(table.Schema{
		{Name: "X", Type: table.Float64},
		{Name: "G", Type: table.String},
	}, xs, gs)

	reps := cfg.QueriesPerSet
	if reps < 16 {
		reps = 16
	}

	// Local stub collector for spans+export: accepts and discards
	// OTLP/HTTP batches, so the measurement includes encode + queue +
	// POST cost without leaving the host.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	collector := &http.Server{Handler: http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			w.WriteHeader(http.StatusOK)
		})}
	go collector.Serve(ln) //nolint:errcheck
	defer collector.Close()

	type engMode struct {
		name  string
		eng   *core.Engine
		done  []func() // teardown, run after ALL timing (drains audits/history/export)
		total time.Duration
		count int
	}

	build := func(mode string) *engMode {
		m := &engMode{name: mode}
		ecfg := core.Config{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			BootstrapK: cfg.BootstrapK,
		}
		switch mode {
		case "off":
		case "spans":
			ecfg.Obs = obs.NewTracer(obs.Options{})
		case "spans+eventlog":
			ecfg.Obs = obs.NewTracer(obs.Options{})
			ecfg.EventLog = obs.NewEventLog(io.Discard, obs.EventLogOptions{})
		case "spans+watchdog":
			ecfg.Obs = obs.NewTracer(obs.Options{})
			wd := watchdog.New(watchdog.Config{
				AuditFraction: 1.0 / 16,
				Metrics:       ecfg.Obs.Registry(),
			})
			ecfg.Watchdog = wd
			m.done = append(m.done, wd.Close)
		case "spans+history":
			ecfg.Obs = obs.NewTracer(obs.Options{})
			dir, err := os.MkdirTemp("", "aqphist-obs")
			if err != nil {
				panic(err)
			}
			hist, err := history.Open(dir, history.Options{SampleInterval: -1})
			if err != nil {
				panic(err)
			}
			ecfg.History = hist
			m.done = append(m.done, func() {
				hist.Close()      //nolint:errcheck
				os.RemoveAll(dir) //nolint:errcheck
			})
		case "spans+export":
			ecfg.Obs = obs.NewTracer(obs.Options{})
			ecfg.ObsConfig = obs.Config{
				ExportURL: "http://" + ln.Addr().String() + "/v1/traces",
			}
		}
		e := core.New(ecfg)
		if err := e.RegisterTable("T", tbl); err != nil {
			panic(err)
		}
		sampleRows := cfg.SampleSize
		if sampleRows > n/2 {
			sampleRows = n / 2
		}
		if err := e.BuildSamples("T", sampleRows); err != nil {
			panic(err)
		}
		m.eng = e
		m.done = append(m.done, func() { e.Close() }) //nolint:errcheck
		return m
	}

	modes := make([]*engMode, 0, 6)
	for _, name := range []string{"off", "spans", "spans+eventlog",
		"spans+watchdog", "spans+history", "spans+export"} {
		modes = append(modes, build(name))
	}

	// One untimed pass per engine warms caches and the sample catalog —
	// after every engine exists, before any clock starts.
	for _, m := range modes {
		for _, q := range obsOverheadQueries {
			if _, err := m.eng.Run(context.Background(), q); err != nil {
				panic(fmt.Sprintf("obs-overhead %s warmup: %v", m.name, err))
			}
		}
	}

	// Interleaved timed rounds: each round visits every mode once.
	for r := 0; r < reps; r++ {
		for _, m := range modes {
			start := time.Now()
			for _, q := range obsOverheadQueries {
				if _, err := m.eng.Run(context.Background(), q); err != nil {
					panic(fmt.Sprintf("obs-overhead %s: %v", m.name, err))
				}
				m.count++
			}
			m.total += time.Since(start)
		}
	}

	// Drain background work (audits, history flush, export queue) outside
	// the timed region.
	for _, m := range modes {
		for _, f := range m.done {
			f()
		}
	}

	res := &ObsOverheadResult{Baseline: "off"}
	var base float64
	for _, m := range modes {
		totalMs := float64(m.total) / float64(time.Millisecond)
		out := ObsOverheadMode{
			Mode:    m.name,
			Queries: m.count,
			TotalMs: totalMs,
			MeanMs:  totalMs / float64(m.count),
		}
		if m.name == "off" {
			base = out.MeanMs
		}
		if base > 0 {
			out.OverheadPct = (out.MeanMs - base) / base * 100
		}
		res.Modes = append(res.Modes, out)
	}
	return res
}

// Render implements the aqpbench result interface.
func (r *ObsOverheadResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Telemetry overhead (same workload, answers bit-identical)")
	fmt.Fprintln(w, "=========================================================")
	fmt.Fprintf(w, "%-16s %8s %10s %10s %10s\n",
		"mode", "queries", "total_ms", "mean_ms", "overhead%")
	for _, m := range r.Modes {
		fmt.Fprintf(w, "%-16s %8d %10.1f %10.3f %+10.2f\n",
			m.Mode, m.Queries, m.TotalMs, m.MeanMs, m.OverheadPct)
	}
}

// WriteCSV emits one row per mode.
func (r *ObsOverheadResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "mode,queries,total_ms,mean_ms,overhead_pct"); err != nil {
		return err
	}
	for _, m := range r.Modes {
		if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%.4f,%.3f\n",
			m.Mode, m.Queries, m.TotalMs, m.MeanMs, m.OverheadPct); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable results.
func (r *ObsOverheadResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// JSONName routes aqpbench's JSON export to an overhead-specific file.
func (r *ObsOverheadResult) JSONName() string { return "BENCH_obs_overhead.json" }
