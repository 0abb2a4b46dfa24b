// Conviva drives the full engine through an exploratory-dashboard
// workload in the style of the paper's Conviva trace: a batch of
// aggregation queries over a video-sessions table, each answered
// approximately with error bars, with the diagnostic deciding per query
// whether the error bars can be trusted and falling back to exact
// execution when they cannot.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

const rows = 800_000

func buildViews() *table.Table {
	src := rng.New(99)
	bitrate := make(table.Float64Col, rows)   // kbps, bimodal (SD vs HD)
	buffering := make(table.Float64Col, rows) // seconds, heavy tail
	duration := make(table.Float64Col, rows)  // seconds, lognormal
	country := make(table.StringCol, rows)
	countries := []string{"US", "BR", "IN", "DE", "JP"}
	zipf := rng.NewZipf(src, len(countries), 1.0)
	for i := 0; i < rows; i++ {
		if src.Float64() < 0.6 {
			bitrate[i] = 800 + 150*src.NormFloat64()
		} else {
			bitrate[i] = 3200 + 400*src.NormFloat64()
		}
		buffering[i] = src.Pareto(0.5, 1.4) - 0.5 // mostly ~0, rare huge stalls
		duration[i] = src.LogNormal(5, 1.1)
		country[i] = countries[zipf.Next()]
	}
	return table.MustNew(table.Schema{
		{Name: "bitrate", Type: table.Float64},
		{Name: "buffering", Type: table.Float64},
		{Name: "duration", Type: table.Float64},
		{Name: "country", Type: table.String},
	}, bitrate, buffering, duration, country)
}

func main() {
	engine := core.New(core.Config{Seed: 99, Workers: 8, BootstrapK: 100})
	if err := engine.RegisterTable("views", buildViews()); err != nil {
		log.Fatal(err)
	}
	if err := engine.BuildSamples("views", 80_000); err != nil {
		log.Fatal(err)
	}
	engine.RegisterUDF("REBUFFER_RATIO", func(values, weights []float64) float64 {
		// Fraction of sessions with noticeable stalls (> 2s buffering).
		var bad, total float64
		for i, v := range values {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			total += w
			if v > 2 {
				bad += w
			}
		}
		if total == 0 {
			return 0
		}
		return bad / total
	})

	dashboard := []string{
		"SELECT AVG(bitrate) FROM views",
		"SELECT AVG(duration) FROM views WHERE country = 'US'",
		"SELECT COUNT(*) FROM views WHERE buffering > 5",
		"SELECT PERCENTILE(duration, 0.95) FROM views",
		"SELECT REBUFFER_RATIO(buffering) FROM views",
		"SELECT MAX(buffering) FROM views", // fragile: should fall back
		"SELECT country, AVG(bitrate) FROM views GROUP BY country",
	}

	approximated, fellBack := 0, 0
	start := time.Now()
	for _, q := range dashboard {
		ans, err := engine.Run(context.Background(), q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		fmt.Println(q)
		for _, g := range ans.Groups {
			prefix := "  "
			if g.Key != "" {
				prefix = "  " + g.Key + ": "
			}
			for _, a := range g.Aggs {
				switch {
				case a.Exact && !a.DiagnosticOK:
					fellBack++
					fmt.Printf("%s%s = %.5g (exact — diagnostic rejected approximation: %s)\n",
						prefix, a.Name, a.Estimate, short(a.DiagnosticReason))
				case a.Exact:
					fmt.Printf("%s%s = %.5g (exact)\n", prefix, a.Name, a.Estimate)
				default:
					approximated++
					fmt.Printf("%s%s = %.5g ± %.3g (%s, rel.err %.2g%%)\n",
						prefix, a.Name, a.Estimate, a.ErrorBar.HalfWidth,
						a.Technique, 100*a.RelErr)
				}
			}
		}
	}
	fmt.Printf("\ndashboard of %d queries in %v: %d aggregates approximated, %d fell back to exact\n",
		len(dashboard), time.Since(start).Round(time.Millisecond), approximated, fellBack)
	_ = stats.Mean // keep the dependency for doc links
}

func short(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
