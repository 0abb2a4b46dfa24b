package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/table"
)

// Span is one harness-recorded span: a call into a layer's public function
// (or, under such a call, a stage span the engine's own tracer recorded for
// that query). Times are microseconds since the traced run began.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Slot    int     `json:"slot"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []Span
}

func (r *recorder) add(parent, slot int, name string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Slot: slot, Name: name,
		StartUs: float64(start.Sub(r.epoch)) / 1e3, EndUs: float64(end.Sub(r.epoch)) / 1e3,
	})
	return id
}

// addStages hangs the engine's stage spans of one query under parent.
func (r *recorder) addStages(parent, slot int, snap obs.TraceSnapshot, spans []obs.SpanSnapshot) {
	for _, s := range spans {
		start := snap.Start.Add(time.Duration(s.StartMs * 1e6))
		id := r.add(parent, slot, s.Stage, start, start.Add(time.Duration(s.Ms*1e6)))
		r.addStages(id, slot, snap, s.Children)
	}
}

// selfTimes sums, per span name, duration minus the part covered by child
// spans, in milliseconds.
func (r *recorder) selfTimes() map[string]float64 {
	covered := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		covered[s.Parent] += s.EndUs - s.StartUs
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		self[s.Name] += (s.EndUs - s.StartUs - covered[s.ID]) / 1e3
	}
	return self
}

// way is one of the four ways the traced run executes every slot.
type way struct {
	name    string
	latency []float64 // ms per slot, timed from the harness
	engine  []float64 // ms per slot: the engine's own total for that execution
	snaps   []obs.TraceSnapshot
	results []*Result
}

func newWay(name string, n int) *way {
	return &way{
		name: name, latency: make([]float64, n), engine: make([]float64, n),
		snaps: make([]obs.TraceSnapshot, n), results: make([]*Result, n),
	}
}

// stageMs is the summed duration of a query's top-level spans of one stage.
func stageMs(snap obs.TraceSnapshot, stage string) float64 {
	total := 0.0
	for _, s := range snap.Spans {
		if s.Stage == stage {
			total += s.Ms
		}
	}
	return total
}

// stagesMs is the summed duration of all top-level stage spans.
func stagesMs(snap obs.TraceSnapshot) float64 {
	total := 0.0
	for _, s := range snap.Spans {
		total += s.Ms
	}
	return total
}

// positive keeps the values above zero: the slots a stage actually ran in.
func positive(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// medianOrZero is Median with 0 for "no slot ran this layer" (a per-layer
// metric a workload bypasses reads 0, e.g. cache.* outside dashboard_repeat).
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Trace executes the traced run: the same stack built in this process with
// an obs.Tracer attached, every slot executed four ways — over the MySQL
// wire socket, over the HTTP socket, through serve.Server.Submit and
// through core.Engine.RunWithOptions — one at a time, so that each
// differential compares one execution's client-side time with the engine's
// own span total for that same execution. It writes the spans to
// OutDir/trace-<workload>.json and reports the per-layer metrics.
func Trace(cfg RunConfig) (*Report, error) {
	w := cfg.Workload
	prep, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer os.Remove(prep.storePath) //nolint:errcheck
	sc := prep.stackConfig(cfg)
	sc.Tracer = obs.NewTracer(obs.Options{RingSize: 4})
	stack, err := OpenStack(sc)
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	wireAddr, httpAddr, err := stack.Listen()
	if err != nil {
		return nil, err
	}
	ready := readyLine{Wire: wireAddr, HTTP: httpAddr}
	wireConn, err := Dial(Wire, ready)
	if err != nil {
		return nil, err
	}
	defer wireConn.Close() //nolint:errcheck
	httpConn, err := Dial(HTTP, ready)
	if err != nil {
		return nil, err
	}
	defer httpConn.Close() //nolint:errcheck

	rep := &Report{}
	rec := &recorder{epoch: time.Now()}
	n := len(prep.slots)
	ctx := context.Background()
	lastSnap := func() obs.TraceSnapshot {
		snap, _ := sc.Tracer.Last()
		return snap
	}

	overhead := traceOverhead(cfg, prep, rep)

	// The four ways, each a full sequential pass with its own pass number
	// (so Fresh slots are answer-cache misses every time). The first pass
	// doubles as warm-up for the later ones.
	ways := []*way{newWay("wire.Client.Query", n), newWay("http.POST", n),
		newWay("serve.Submit", n), newWay("core.RunWithOptions", n)}
	answers := make([]*core.Answer, n) // from the RunWithOptions pass
	cached := make([]bool, n)          // Submit answered from the answer cache
	var mem0, mem1 runtime.MemStats
	for wi, wy := range ways {
		pass := wi + 1
		if wi == 3 {
			runtime.ReadMemStats(&mem0)
		}
		for i, s := range prep.slots {
			text := w.QueryFor(s, pass).SQL()
			var res *Result
			var err error
			t0 := time.Now()
			switch wi {
			case 0:
				res, err = wireConn.Query(text)
			case 1:
				res, err = httpConn.Query(text)
			case 2:
				var ans *core.Answer
				if ans, err = stack.Server.Submit(ctx, text); err == nil {
					res, cached[i] = FromAnswer(ans), ans.Cached
				}
			case 3:
				if answers[i], err = stack.Engine.RunWithOptions(ctx, text, core.RunOptions{}); err == nil {
					res = FromAnswer(answers[i])
				}
			}
			t1 := time.Now()
			rep.Attempted++
			if err != nil {
				rep.Failed++
				rep.problemf("%s slot %d (%s): %v", wy.name, i, text, err)
				continue
			}
			snap := lastSnap()
			wy.latency[i] = float64(t1.Sub(t0)) / 1e6
			wy.engine[i] = snap.TotalMs
			wy.snaps[i], wy.results[i] = snap, res
			id := rec.add(0, i, wy.name, t0, t1)
			rec.addStages(id, i, snap, snap.Spans)
		}
	}
	runtime.ReadMemStats(&mem1)
	if rep.Failed > 0 {
		return rep, nil
	}

	// Bit identity: wire, HTTP, Submit and RunWithOptions agree on every
	// fixed slot.
	for i, s := range prep.slots {
		if s.Fresh {
			continue
		}
		want := ways[3].results[i].Hash()
		for _, wy := range ways[:3] {
			if wy.results[i].Hash() != want {
				rep.problemf("slot %d (%s): %s answer differs from core.RunWithOptions",
					i, s.Query.SQL(), wy.name)
			}
		}
	}

	// Direct timings of public functions on every slot's text and answer.
	parseUs, analyzeUs, encodeUs := make([]float64, n), make([]float64, n), make([]float64, n)
	isUDF := func(string) bool { return true } // every non-builtin call in a slot is a library UDF
	for i, s := range prep.slots {
		text := w.QueryFor(s, 4).SQL()
		t0 := time.Now()
		stmt, err := sql.Parse(text)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if _, err := plan.Analyze(stmt.(*sql.Select), isUDF); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := json.Marshal(serve.EncodeAnswer(answers[i])); err != nil {
			return nil, err
		}
		t3 := time.Now()
		rec.add(0, i, "sql.Parse", t0, t1)
		rec.add(0, i, "plan.Analyze", t1, t2)
		rec.add(0, i, "serve.EncodeAnswer+json.Marshal", t2, t3)
		parseUs[i] = float64(t1.Sub(t0)) / 1e3
		analyzeUs[i] = float64(t2.Sub(t1)) / 1e3
		encodeUs[i] = float64(t3.Sub(t2)) / 1e3
	}

	// Per-slot differentials. Each "X minus engine" uses the engine total of
	// the same execution; overheads of an outer layer subtract the inner
	// layer's overhead measured on the same slot.
	diff := func(wy *way) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = wy.latency[i] - wy.engine[i]
		}
		return out
	}
	wireOver, httpOver, admit := diff(ways[0]), diff(ways[1]), diff(ways[2])
	coreSelf := make([]float64, n)
	var queueWait, replayUs []float64
	primary := ways[0]
	if w.Conns[0] == HTTP {
		primary = ways[1]
	}
	unaccounted := make([]float64, n)
	for i := 0; i < n; i++ {
		wireOver[i] -= admit[i]
		httpOver[i] -= admit[i]
		coreSelf[i] = ways[3].latency[i] - stagesMs(ways[3].snaps[i])
		queueWait = append(queueWait, ways[0].snaps[i].QueueWaitMs, ways[1].snaps[i].QueueWaitMs)
		if cached[i] {
			replayUs = append(replayUs, ways[2].latency[i]*1e3)
		}
		snap := primary.snaps[i]
		unaccounted[i] = (primary.latency[i] - stagesMs(snap) - snap.QueueWaitMs - encodeUs[i]/1e3) /
			primary.latency[i]
	}

	// Stage times and exact counts from the RunWithOptions pass.
	stage := func(name string) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = stageMs(ways[3].snaps[i], name)
		}
		return positive(out)
	}
	var rows, skipped, decoded, hits float64
	var kUsed, closedFormUs []float64
	var aggregates, rejected float64
	for i, ans := range answers {
		c := ans.Counters
		rows += float64(c.RowsScanned)
		skipped += float64(c.BlocksSkipped)
		decoded += float64(c.BlocksDecoded)
		hits += float64(c.CacheHits)
		if ans.BootstrapKUsed > 0 {
			kUsed = append(kUsed, float64(ans.BootstrapKUsed))
		} else if est := stageMs(ways[3].snaps[i], obs.StageEstimate); est > 0 {
			closedFormUs = append(closedFormUs, est*1e3)
		}
		for _, g := range ans.Groups {
			for _, a := range g.Aggs {
				aggregates++
				if !a.DiagnosticOK {
					rejected++
				}
			}
		}
	}
	kMean := 0.0
	for _, k := range kUsed {
		kMean += k / float64(len(kUsed))
	}
	cs := stack.Engine.CacheStatsSnapshot(1)
	queries := float64(rep.Attempted)

	decodeMBs, err := decodeThroughput(stack.Full)
	if err != nil {
		return nil, err
	}
	genericNs, fusedNs := kernelCosts(prep.data.Measures["Gaussian"][:cfg.scale().SampleRows])

	rep.add("wire.rtt_overhead_ms_p50", Median(wireOver), "ms")
	rep.add("wire.bytes_out_per_query", meanBytes(ways[0].results), "B")
	rep.add("serve.http_overhead_ms_p50", Median(httpOver), "ms")
	rep.add("serve.http_bytes_out_per_query", meanBytes(ways[1].results), "B")
	rep.add("serve.encode_us_p50", Median(encodeUs), "us")
	rep.add("serve.admit_overhead_us_p50", Median(admit)*1e3, "us")
	rep.add("serve.queue_wait_ms_p95", Quantile(queueWait, 0.95), "ms")
	rep.add("serve.answer_replay_us_p50", medianOrZero(replayUs), "us")
	rep.add("sql.parse_us_p50", Median(parseUs), "us")
	rep.add("plan.analyze_us_p50", Median(analyzeUs), "us")
	rep.add("exec.scan_ms_p50", medianOrZero(stage(obs.StageScan)), "ms")
	rep.add("exec.rows_scanned_per_query", rows/float64(n), "count")
	rep.add("exec.blocks_skipped_frac", ratio(skipped, skipped+decoded+hits), "ratio")
	rep.add("exec.blocks_decoded_per_query", decoded/float64(n), "count")
	rep.add("exec.fallback_scan_ms_p50", medianOrZero(stage(obs.StageFallback)), "ms")
	rep.add("table.decode_mb_per_s", decodeMBs, "MB/s")
	rep.add("table.compress_ratio", prep.ratio, "ratio")
	rep.add("table.open_s", stack.OpenS, "s")
	rep.add("table.compress_s", prep.compressS, "s")
	rep.add("sample.build_s", stack.SampleS, "s")
	rep.add("cache.answer_hit_rate", ratio(float64(cs.Answer.Hits), float64(cs.Answer.Hits+cs.Answer.Misses)), "ratio")
	rep.add("cache.block_hit_rate", ratio(float64(cs.Block.Hits), float64(cs.Block.Hits+cs.Block.Misses)), "ratio")
	rep.add("cache.evictions_per_query", float64(cs.Block.Evictions)/queries, "count")
	rep.add("cache.resident_mb", float64(cs.Block.Bytes)/(1<<20), "MiB")
	rep.add("kernel.generic_ns_per_row_resample", genericNs, "ns")
	rep.add("kernel.fused_ns_per_row_resample", fusedNs, "ns")
	rep.add("estimator.bootstrap_ms_p50", medianOrZero(stage(obs.StageBootstrap)), "ms")
	rep.add("estimator.bootstrap_k_used_mean", kMean, "count")
	rep.add("estimator.closedform_us_p50", medianOrZero(closedFormUs), "us")
	rep.add("diagnostic.run_ms_p50", medianOrZero(stage(obs.StageDiagnostic)), "ms")
	rep.add("diagnostic.reject_rate", ratio(rejected, aggregates), "ratio")
	rep.add("core.self_ms_p50", Median(coreSelf), "ms")
	rep.add("obs.trace_overhead_frac", overhead, "ratio")
	rep.add("trace.unaccounted_frac", Median(unaccounted), "ratio")

	// Heap traffic of the RunWithOptions pass: everything this process
	// allocated while the engine ran the slots once, spans included.
	rep.add("runtime.alloc_kb_per_query", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(n), "KiB")
	rep.add("runtime.mallocs_per_query", float64(mem1.Mallocs-mem0.Mallocs)/float64(n), "count")

	// The RunWithOptions pass's answers against the oracle: the same gates
	// as the untraced run, on every slot.
	q, err := assess(rep, cfg, prep, passResult{results: ways[3].results}, 4)
	if err != nil {
		return nil, err
	}
	rep.add("quality.approximate_aggregates", float64(q.approximate), "count")

	if err := writeTrace(cfg, rec); err != nil {
		return nil, err
	}
	return rep, nil
}

func meanBytes(results []*Result) float64 {
	total := 0.0
	for _, r := range results {
		total += float64(r.Bytes) / float64(len(results))
	}
	return total
}

// traceOverhead replays every fourth slot through RunWithOptions on an
// untraced and then a traced stack and returns 1 - untraced/traced wall
// time: the share of a traced query's time that tracing itself costs. It is
// a difference of two short runs, so it is reported and never gated.
func traceOverhead(cfg RunConfig, prep *prepared, rep *Report) float64 {
	wall := func(tracer *obs.Tracer) float64 {
		sc := prep.stackConfig(cfg)
		sc.CacheMB = 0 // replay would hide the work being compared
		sc.Tracer = tracer
		stack, err := OpenStack(sc)
		if err != nil {
			rep.problemf("trace overhead: %v", err)
			return math.NaN()
		}
		defer stack.Close()
		var total time.Duration
		for round := 0; round < 2; round++ { // the first round warms up
			t0 := time.Now()
			for i := 0; i < len(prep.slots); i += 4 {
				text := cfg.Workload.QueryFor(prep.slots[i], 0).SQL()
				if _, err := stack.Engine.RunWithOptions(context.Background(), text, core.RunOptions{}); err != nil {
					rep.problemf("trace overhead: %s: %v", text, err)
				}
			}
			total = time.Since(t0)
		}
		return total.Seconds()
	}
	untraced := wall(nil)
	traced := wall(obs.NewTracer(obs.Options{RingSize: 4}))
	return 1 - untraced/traced
}

// decodeThroughput reads every block of the compressed Gaussian column
// through table.F64Reader and returns decoded megabytes per second (the
// median of three sweeps).
func decodeThroughput(full *table.Table) (float64, error) {
	col, ok := full.ColumnByName("Gaussian").(table.F64Reader)
	if !ok {
		return 0, fmt.Errorf("trace: Gaussian column is not an F64Reader")
	}
	buf := make([]float64, table.BlockRows)
	var rates []float64
	for sweep := 0; sweep < 3; sweep++ {
		t0 := time.Now()
		for off := 0; off < col.Len(); off += table.BlockRows {
			end := off + table.BlockRows
			if end > col.Len() {
				end = col.Len()
			}
			col.ReadF64(buf[:end-off], off)
		}
		rates = append(rates, float64(col.Len())*8/1e6/time.Since(t0).Seconds())
	}
	return Median(rates), nil
}

// kernelCosts times the two bootstrap kernels on one sample-sized column
// at K=100 and returns nanoseconds per (row × resample): kernel.Generic
// with the PERCENTILE(0.95) functional, and kernel.FusedSums.
func kernelCosts(values []float64) (genericNs, fusedNs float64) {
	const k = 100
	theta := estimator.Query{Kind: estimator.Percentile, Pct: 0.95}.EvalWeighted
	per := float64(len(values)) * k
	var g, f []float64
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		kernel.Generic(context.Background(), values, k, engineSeed, 1, workers, theta)
		t1 := time.Now()
		kernel.FusedSums(context.Background(), values, k, engineSeed, 1, workers)
		t2 := time.Now()
		g = append(g, float64(t1.Sub(t0))/per)
		f = append(f, float64(t2.Sub(t1))/per)
	}
	return Median(g), Median(f)
}

// writeTrace writes the spans and the self-time table of one traced run.
func writeTrace(cfg RunConfig, rec *recorder) error {
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []Span             `json:"spans"`
	}{cfg.Workload.Name, cfg.Seed, rec.selfTimes(), rec.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload.Name+".json"), raw, 0o644)
}
