package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/table"
)

// footprintPoint is one backing's storage cost for the same logical table.
type footprintPoint struct {
	Backing string `json:"backing"`
	// LogicalBytes is the backing-invariant uncompressed size; the
	// footprint ratio is logical over physical.
	LogicalBytes  int64   `json:"logical_bytes"`
	PhysicalBytes int64   `json:"physical_bytes"`
	Ratio         float64 `json:"ratio"`
}

// scanPoint is one backing's exact full-scan cost on the base table:
// the decode tax (or, with zone maps, the decode savings) made visible.
type scanPoint struct {
	Backing    string  `json:"backing"`
	MsPerScan  float64 `json:"ms_per_scan"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// BlocksDecoded meters lazy decode work (0 on the raw backing).
	BlocksDecoded int64 `json:"blocks_decoded"`
}

// volumePoint is one (scale, backing) cell of the latency-vs-data-volume
// sweep: the base table grows, the sample stays fixed, and sample-query
// latency must stay flat — that is the tentpole's headline claim.
type volumePoint struct {
	Scale   int    `json:"scale"`
	Rows    int    `json:"rows"`
	Backing string `json:"backing"`
	// MsSampleQuery is best-of-5 latency of an approximate query answered
	// entirely from the (fixed-size) sample.
	MsSampleQuery float64 `json:"ms_sample_query"`
	// ResidentBytes is the registered base table's physical footprint at
	// this scale — the axis compression actually moves.
	ResidentBytes int64 `json:"resident_bytes"`
}

// storageBenchResult is the storage fixture; it serializes to
// BENCH_storage.json.
type storageBenchResult struct {
	Rows       int              `json:"rows"`
	SampleRows int              `json:"sample_rows"`
	Footprint  []footprintPoint `json:"footprint"`
	Scan       []scanPoint      `json:"scan"`
	Volume     []volumePoint    `json:"volume"`
	// LatencyRatio is the compressed backing's sample-query latency at the
	// largest scale over the smallest — the "flat latency" number CI gates.
	LatencyRatio float64 `json:"latency_ratio"`
}

// JSONName routes this result's machine-readable output to its own file.
func (*storageBenchResult) JSONName() string { return "BENCH_storage.json" }

// storageTable builds the bench's base table: a lognormal latency column,
// an integral-float bytes column, a small-range int64 user id, and a
// low-cardinality city string — the column shapes the per-block codecs
// (XOR, int-packing, FOR/dict, string dict) are chosen for.
func storageTable(n, seed int) *table.Table {
	src := rng.New(uint64(seed))
	times := make(table.Float64Col, n)
	bytesC := make(table.Float64Col, n)
	users := make(table.Int64Col, n)
	cities := make(table.StringCol, n)
	names := []string{"NYC", "SF", "LA", "CHI", "LDN", "TYO"}
	for i := 0; i < n; i++ {
		times[i] = src.LogNormal(4, 0.6)
		bytesC[i] = float64(src.Intn(1 << 20))
		users[i] = int64(src.Intn(1000))
		cities[i] = names[src.Intn(len(names))]
	}
	return table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "bytes", Type: table.Float64},
		{Name: "user", Type: table.Int64},
		{Name: "City", Type: table.String},
	}, times, bytesC, users, cities)
}

// storageBench measures the three storage axes: footprint per backing,
// exact full-scan throughput per backing, and sample-query latency as the
// base table scales to 10x with the sample size held fixed.
func storageBench(rows, sampleRows, seed int) *storageBenchResult {
	res := &storageBenchResult{Rows: rows, SampleRows: sampleRows}
	raw := storageTable(rows, seed)
	comp := table.Compress(raw)

	dir, err := os.MkdirTemp("", "aqpbench-storage")
	if err != nil {
		panic("aqpbench: " + err.Error())
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "base.aqps")
	if err := table.WriteStore(storePath, raw); err != nil {
		panic("aqpbench: " + err.Error())
	}
	mapped, closer, err := table.OpenStore(storePath)
	if err != nil {
		panic("aqpbench: " + err.Error())
	}
	defer closer.Close()
	fi, err := os.Stat(storePath)
	if err != nil {
		panic("aqpbench: " + err.Error())
	}

	logical := raw.SizeBytes()
	for _, p := range []struct {
		name string
		phys int64
	}{
		{"raw", raw.PhysicalSizeBytes()},
		{"compressed", comp.PhysicalSizeBytes()},
		{"mmap", fi.Size()}, // file bytes: block payloads plus metadata
	} {
		res.Footprint = append(res.Footprint, footprintPoint{
			Backing:       p.name,
			LogicalBytes:  logical,
			PhysicalBytes: p.phys,
			Ratio:         float64(logical) / float64(p.phys),
		})
	}

	// Exact full-scan throughput: no samples registered, so the query runs
	// on the base table and pays (or dodges, via zone maps) the decode.
	scanQ := "SELECT AVG(Time), SUM(bytes), COUNT(*) FROM T WHERE user < 800"
	for _, v := range []struct {
		name string
		tbl  *table.Table
	}{{"raw", raw}, {"compressed", comp}, {"mmap", mapped}} {
		eng := core.New(core.Config{Seed: uint64(seed), Workers: 4})
		if err := eng.RegisterTable("T", v.tbl); err != nil {
			panic("aqpbench: " + err.Error())
		}
		ms, ans := bestOf(5, func() *core.Answer {
			a, err := eng.Run(context.Background(), scanQ)
			if err != nil {
				panic("aqpbench: " + err.Error())
			}
			return a
		})
		res.Scan = append(res.Scan, scanPoint{
			Backing:       v.name,
			MsPerScan:     ms,
			RowsPerSec:    float64(rows) / (ms / 1e3),
			BlocksDecoded: ans.Counters.BlocksDecoded,
		})
	}

	// Latency vs data volume at fixed sample size. Samples are drawn raw
	// (they are small); only the base table's backing changes. The sample
	// query never touches the base table, so latency must stay flat while
	// resident bytes grow 10x (raw) or much less (compressed).
	sampleQ := "SELECT AVG(Time), COUNT(*) FROM T WHERE City = 'NYC'"
	var first, last float64
	for _, scale := range []int{1, 2, 5, 10} {
		n := rows * scale
		base := storageTable(n, seed)
		for _, backing := range []table.Backing{table.BackingRaw, table.BackingCompressed} {
			// Diagnostics off: the sweep measures sample-scan latency, and a
			// diagnostic rejection's exact fallback would rescan the base
			// table — a different experiment (the scan sweep above).
			eng := core.New(core.Config{Seed: uint64(seed), Workers: 4,
				BootstrapK: 20, SkipDiagnostics: true, Backing: backing})
			if err := eng.RegisterTable("T", base); err != nil {
				panic("aqpbench: " + err.Error())
			}
			if err := eng.BuildSamples("T", sampleRows); err != nil {
				panic("aqpbench: " + err.Error())
			}
			ms, _ := bestOf(5, func() *core.Answer {
				a, err := eng.Run(context.Background(), sampleQ)
				if err != nil {
					panic("aqpbench: " + err.Error())
				}
				return a
			})
			var resident int64
			if backing == table.BackingCompressed {
				resident = table.Compress(base).PhysicalSizeBytes()
				if scale == 1 {
					first = ms
				}
				if scale == 10 {
					last = ms
				}
			} else {
				resident = base.PhysicalSizeBytes()
			}
			res.Volume = append(res.Volume, volumePoint{
				Scale:         scale,
				Rows:          n,
				Backing:       backing.String(),
				MsSampleQuery: ms,
				ResidentBytes: resident,
			})
		}
	}
	if first > 0 {
		res.LatencyRatio = last / first
	}
	return res
}

// bestOf runs fn reps times after one warmup and returns the fastest
// latency in milliseconds with the answer it produced.
func bestOf(reps int, fn func() *core.Answer) (float64, *core.Answer) {
	var best float64
	var ans *core.Answer
	for i := 0; i <= reps; i++ {
		start := time.Now()
		a := fn()
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if i == 0 {
			continue // warmup
		}
		if ans == nil || ms < best {
			best, ans = ms, a
		}
	}
	return best, ans
}

// Render implements result.
func (r *storageBenchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "storage footprint (rows=%d)\n", r.Rows)
	fmt.Fprintf(w, "  %-12s %14s %14s %8s\n", "backing", "logical", "physical", "ratio")
	for _, p := range r.Footprint {
		fmt.Fprintf(w, "  %-12s %14d %14d %7.2fx\n",
			p.Backing, p.LogicalBytes, p.PhysicalBytes, p.Ratio)
	}
	fmt.Fprintln(w, "exact full-scan throughput")
	fmt.Fprintf(w, "  %-12s %10s %14s %10s\n", "backing", "ms/scan", "rows/s", "decoded")
	for _, p := range r.Scan {
		fmt.Fprintf(w, "  %-12s %10.3f %14.0f %10d\n",
			p.Backing, p.MsPerScan, p.RowsPerSec, p.BlocksDecoded)
	}
	fmt.Fprintf(w, "sample-query latency vs data volume (sample=%d rows, fixed)\n", r.SampleRows)
	fmt.Fprintf(w, "  %-7s %10s %-12s %12s %14s\n",
		"scale", "rows", "backing", "ms/query", "resident")
	for _, p := range r.Volume {
		fmt.Fprintf(w, "  %-7d %10d %-12s %12.3f %14d\n",
			p.Scale, p.Rows, p.Backing, p.MsSampleQuery, p.ResidentBytes)
	}
	fmt.Fprintf(w, "  latency ratio 10x/1x (compressed): %.3f\n", r.LatencyRatio)
}

// WriteCSV implements result.
func (r *storageBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "backing,logical_bytes,physical_bytes,ratio"); err != nil {
		return err
	}
	for _, p := range r.Footprint {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.3f\n",
			p.Backing, p.LogicalBytes, p.PhysicalBytes, p.Ratio); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "scale,rows,backing,ms_sample_query,resident_bytes"); err != nil {
		return err
	}
	for _, p := range r.Volume {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%.3f,%d\n",
			p.Scale, p.Rows, p.Backing, p.MsSampleQuery, p.ResidentBytes); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable form consumed by CI and tooling.
func (r *storageBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
