package exec

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/table"
)

// backingVariants returns the same logical table behind all three storage
// backings: raw slices, in-memory compressed blocks, and an mmap-backed
// store file. Cleanup of the store mapping is registered on t.
func backingVariants(t *testing.T, raw *table.Table) map[string]*table.Table {
	t.Helper()
	raw.BuildZones()
	comp := table.Compress(raw)
	path := filepath.Join(t.TempDir(), "t.aqps")
	if err := table.WriteStore(path, raw); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := table.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	return map[string]*table.Table{"raw": raw, "compressed": comp, "mmap": mapped}
}

var backingQueries = []string{
	"SELECT AVG(Time) FROM Sessions",
	"SELECT COUNT(*), SUM(Time) FROM Sessions WHERE City = 'NYC'",
	"SELECT City, AVG(Time), COUNT(*) FROM Sessions GROUP BY City",
	"SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE Time > 40",
	"SELECT AVG(Time * 2 + user) FROM Sessions WHERE user < 500 AND Time > 30",
}

// backingOpts diagnoses a sample of rows rows with Algorithm 1's ladder.
func backingOpts(rows int) plan.Options {
	return plan.Options{BootstrapK: 40, Diagnostics: true, SampleRows: rows}
}

// TestRunBackingBitEquality is the tentpole's core invariant: answers,
// resample estimates and diagnostic verdicts are bit-identical whether the
// table is raw, block-compressed in memory, or decoded lazily out of an
// mmap store — at every worker count.
func TestRunBackingBitEquality(t *testing.T) {
	const rows = 8*table.BlockRows + 613
	variants := backingVariants(t, sessionsTable(rows, 41))
	verdicts := map[bool]int{}
	for qi, q := range backingQueries {
		p := mustPlan(t, q, backingOpts(rows))
		var want *Result
		for _, name := range []string{"raw", "compressed", "mmap"} {
			for _, workers := range []int{1, 4} {
				st := &StoredTable{Data: variants[name], PopRows: 1 << 20}
				got, err := Run(context.Background(), p, st, nil,
					Config{Workers: workers, Seed: uint64(300 + qi)})
				if err != nil {
					t.Fatalf("%s workers=%d %q: %v", name, workers, q, err)
				}
				if want == nil {
					want = got
					for _, g := range got.Groups {
						for _, a := range g.Aggs {
							verdicts[a.Diag.OK]++
						}
					}
					continue
				}
				resultsEqual(t, name+": "+q, got, want)
				// Logical scan accounting is backing-invariant too.
				if got.Counters.RowsScanned != want.Counters.RowsScanned ||
					got.Counters.BytesScanned != want.Counters.BytesScanned {
					t.Errorf("%s %q: scan counters %+v != %+v",
						name, q, got.Counters, want.Counters)
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: the queries must keep both an accept and a reject", verdicts)
	}
}

// TestRunBackingDecodeCounters pins the decode accounting: lazy backings
// report decoded blocks and decode time, raw backings report zero.
func TestRunBackingDecodeCounters(t *testing.T) {
	const rows = 8 * table.BlockRows
	variants := backingVariants(t, sessionsTable(rows, 42))
	p := mustPlan(t, "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'", backingOpts(rows))
	run := func(data *table.Table) Counters {
		st := &StoredTable{Data: data, PopRows: 1 << 20}
		res, err := Run(context.Background(), p, st, nil, Config{Workers: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	if c := run(variants["raw"]); c.BlocksDecoded != 0 || c.DecodeNanos != 0 {
		t.Errorf("raw backing metered decodes: %+v", c)
	}
	for _, name := range []string{"compressed", "mmap"} {
		if c := run(variants[name]); c.BlocksDecoded == 0 || c.DecodeNanos == 0 {
			t.Errorf("%s backing metered no decoded blocks or no decode time: %+v", name, c)
		}
	}
}

// TestSkippedBlocksAreNeverDecoded is the decode-after-admission invariant:
// a block pruned by its zone-map envelope costs neither I/O nor decode.
func TestSkippedBlocksAreNeverDecoded(t *testing.T) {
	n := 64 * table.ZoneBlockRows
	q := "SELECT AVG(Time), COUNT(*) FROM Sessions WHERE Time < 655"
	run := func(zones bool) Counters {
		ct := table.Compress(clusteredSessions(n, 23))
		if !zones {
			ct.DropZones()
		}
		st := &StoredTable{Data: ct, PopRows: n * 10}
		p := mustPlan(t, q, plan.Options{BootstrapK: 20})
		res, err := Run(context.Background(), p, st, nil, Config{Workers: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	plain := run(false)
	pruned := run(true)
	if pruned.BlocksSkipped != 63 {
		t.Fatalf("blocks skipped = %d, want 63", pruned.BlocksSkipped)
	}
	if pruned.BlocksDecoded >= plain.BlocksDecoded {
		t.Errorf("pruning did not reduce decodes: %d >= %d",
			pruned.BlocksDecoded, plain.BlocksDecoded)
	}
	// Time < 655 admits only block 0 of 64; with zones on, decodes of the
	// predicate+projection column are bounded by the admitted blocks plus
	// the string column's full scan. Sanity-bound: far below the unpruned
	// decode count rather than an exact constant (the bootstrap/diagnostic
	// stages gather from the filtered rows only).
	if pruned.BlocksDecoded > plain.BlocksDecoded/4 {
		t.Errorf("pruned decodes %d suspiciously high (unpruned %d)",
			pruned.BlocksDecoded, plain.BlocksDecoded)
	}
}

// TestConcurrentCompressedQueries hammers one compressed table from many
// goroutines; run with -race this pins that lazy decode paths share no
// mutable state beyond the atomics that meter them.
func TestConcurrentCompressedQueries(t *testing.T) {
	const rows = 7 * table.BlockRows
	ct := table.Compress(sessionsTable(rows, 44))
	st := &StoredTable{Data: ct, PopRows: 1 << 20}
	p := mustPlan(t, "SELECT City, AVG(Time) FROM Sessions WHERE Time > 40 GROUP BY City",
		backingOpts(rows))
	ref, err := Run(context.Background(), p, st, nil, Config{Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := Run(context.Background(), p, st, nil,
					Config{Workers: 4, Seed: 11})
				if err != nil {
					t.Error(err)
					return
				}
				resultsEqual(t, "concurrent", res, ref)
			}
		}()
	}
	wg.Wait()
}
