package core

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/table"
)

// TestEngineBackingBitEquality drives two whole engines — one over raw
// storage, one with Config.Backing compressing every registered table —
// through sample builds and the full approximate pipeline, and asserts
// every answer (estimate, error bar, technique, verdict) is bit-identical.
// The larger sample's City groups (~4,000 rows) clear the diagnostic's
// floor, so the GROUP BY runs on the sample.
func TestEngineBackingBitEquality(t *testing.T) {
	queries := []string{
		"SELECT AVG(Time) FROM Sessions",
		"SELECT COUNT(*), SUM(Time) FROM Sessions WHERE City = 'NYC'",
		"SELECT City, AVG(Time) FROM Sessions GROUP BY City",
		"SELECT PERCENTILE(Time, 0.9) FROM Sessions WHERE Time > 40",
	}
	build := func(backing table.Backing) *Engine {
		e, _ := buildSessions(t, Config{Seed: 61, Backing: backing}, 40000)
		if err := e.BuildSamples("Sessions", 2000, 16000); err != nil {
			t.Fatal(err)
		}
		return e
	}
	raw := build(table.BackingRaw)
	comp := build(table.BackingCompressed)
	for _, q := range queries {
		a, err := raw.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("raw %q: %v", q, err)
		}
		b, err := comp.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("compressed %q: %v", q, err)
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("%q: %d groups vs %d", q, len(b.Groups), len(a.Groups))
		}
		for gi := range a.Groups {
			ga, gb := a.Groups[gi], b.Groups[gi]
			if ga.Key != gb.Key {
				t.Fatalf("%q: group %q vs %q", q, gb.Key, ga.Key)
			}
			for ai := range ga.Aggs {
				x, y := ga.Aggs[ai], gb.Aggs[ai]
				if x.Estimate != y.Estimate ||
					x.ErrorBar.Lo() != y.ErrorBar.Lo() ||
					x.ErrorBar.Hi() != y.ErrorBar.Hi() ||
					x.Technique != y.Technique ||
					x.DiagnosticOK != y.DiagnosticOK {
					t.Errorf("%q group %q agg %s: %+v != %+v", q, ga.Key, x.Name, y, x)
				}
			}
		}
	}
}

// TestStorageGauges pins the aqp_storage_* registration-time metrics: the
// logical size is backing-invariant, the resident size shrinks under
// compression.
func TestStorageGauges(t *testing.T) {
	tr := obs.NewTracer(obs.Config{})
	e, tbl := buildSessions(t, Config{Seed: 62, Obs: tr, Backing: table.BackingCompressed}, 30000)
	defer e.Close()
	reg := tr.Registry()
	logical := reg.Gauge("aqp_storage_logical_bytes", "", "table", "Sessions").Value()
	resident := reg.Gauge("aqp_storage_resident_bytes", "", "table", "Sessions").Value()
	if logical != tbl.SizeBytes() {
		t.Errorf("logical gauge %d, want %d", logical, tbl.SizeBytes())
	}
	if resident <= 0 || resident >= logical {
		t.Errorf("resident gauge %d not in (0, %d)", resident, logical)
	}
}

// TestSampleBuildStreamsBlocks asserts the one-pass property of sample
// builds over compressed tables: gathering the sample decodes each block
// of each column at most once, no matter how shuffled the row draw is.
func TestSampleBuildStreamsBlocks(t *testing.T) {
	n := 16 * table.BlockRows
	e, _ := buildSessions(t, Config{Seed: 63, Backing: table.BackingCompressed}, n)
	before := table.DecodedBlocks()
	if err := e.BuildSamples("Sessions", n/4); err != nil {
		t.Fatal(err)
	}
	decodes := table.DecodedBlocks() - before
	// 2 columns x 16 blocks is the streaming ceiling; a row-at-a-time
	// gather would decode ~n/4 blocks per column.
	if maxDecodes := int64(2 * 16); decodes > maxDecodes {
		t.Errorf("sample build decoded %d blocks, want <= %d", decodes, maxDecodes)
	}
}

// TestStratifiedSampleOverCompressed covers the lazy string-key path in
// BuildStratifiedSample and the per-group answers it feeds.
func TestStratifiedSampleOverCompressed(t *testing.T) {
	raw, _ := buildSessions(t, Config{Seed: 64}, 20000)
	comp, _ := buildSessions(t, Config{Seed: 64, Backing: table.BackingCompressed}, 20000)
	for _, e := range []*Engine{raw, comp} {
		if err := e.BuildStratifiedSample("Sessions", "City", 800); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT City, AVG(Time), COUNT(*) FROM Sessions GROUP BY City"
	a, err := raw.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comp.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range a.Groups {
		for ai := range a.Groups[gi].Aggs {
			x, y := a.Groups[gi].Aggs[ai], b.Groups[gi].Aggs[ai]
			if x.Estimate != y.Estimate {
				t.Errorf("group %q agg %s: %v != %v",
					a.Groups[gi].Key, x.Name, y.Estimate, x.Estimate)
			}
		}
	}
}
