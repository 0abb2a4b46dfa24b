package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// TestExportAndAlertsDoNotPerturbAnswers extends the inertness invariant
// to this PR's observers: with the OTLP span exporter (filesink) and the
// unified alert bus attached, answers, error bars and verdicts stay
// bit-identical to a bare engine. The exporter draws its span identities
// from crypto/rand and its own goroutine; neither may touch the engine's
// seeded RNG stream.
func TestExportAndAlertsDoNotPerturbAnswers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	mk := func(instrumented bool) *Engine {
		cfg := Config{Seed: 11, Workers: 3, BootstrapK: 30}
		if instrumented {
			cfg.Obs = obs.NewTracer(obs.Config{})
			cfg.ObsConfig = obs.Config{ExportPath: path}
			cfg.Alerts = alert.New(alert.Config{})
		}
		e, _ := buildSessions(t, cfg, 30000)
		if err := e.BuildSamples("Sessions", obsSampleRows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	wired, plain := mk(true), mk(false)
	defer plain.Close() //nolint:errcheck

	for _, q := range obsTestQueries {
		a, err := wired.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Groups) != len(b.Groups) {
			t.Fatalf("%s: group counts differ", q)
		}
		for gi := range a.Groups {
			for ai := range a.Groups[gi].Aggs {
				x, y := a.Groups[gi].Aggs[ai], b.Groups[gi].Aggs[ai]
				if x.Estimate != y.Estimate ||
					x.ErrorBar.HalfWidth != y.ErrorBar.HalfWidth ||
					x.DiagnosticOK != y.DiagnosticOK ||
					x.Technique != y.Technique {
					t.Fatalf("%s: instrumented %+v != plain %+v", q, x, y)
				}
			}
		}
	}

	// Close drains the exporter; the filesink must actually have run.
	if err := wired.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("exporter filesink never wrote: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("exporter filesink is empty — spans were not exported")
	}
}
