// Quickstart: load a table, build a sample, ask one approximate query, and
// read the answer's error bars and diagnostic verdict.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/table"
)

func main() {
	// 1. Some data: a million order amounts.
	src := rng.New(7)
	amounts := make(table.Float64Col, 1_000_000)
	regions := make(table.StringCol, len(amounts))
	names := []string{"us", "eu", "apac"}
	for i := range amounts {
		amounts[i] = src.LogNormal(3.5, 0.8)
		regions[i] = names[src.Intn(len(names))]
	}
	orders := table.MustNew(table.Schema{
		{Name: "amount", Type: table.Float64},
		{Name: "region", Type: table.String},
	}, amounts, regions)

	// 2. An engine with a BlinkDB-style sample catalog.
	engine := core.New(core.Config{Seed: 7, Workers: 8})
	if err := engine.RegisterTable("orders", orders); err != nil {
		log.Fatal(err)
	}
	if err := engine.BuildSamples("orders", 50_000); err != nil {
		log.Fatal(err)
	}

	// 3. Ask for the answer. The engine runs the query on the 50k-row
	// sample, puts a 95% error bar on it, and asks the diagnostic whether
	// that bar can be trusted. If the diagnostic rejects it, the engine
	// re-answers the aggregate exactly on the full table, and the answer
	// says so: technique "exact", diagnostic OK false, and the reason.
	ans, err := engine.Run(context.Background(), "SELECT AVG(amount) FROM orders WHERE region = 'eu'")
	if err != nil {
		log.Fatal(err)
	}
	a := ans.Groups[0].Aggs[0]
	fmt.Printf("AVG(amount | eu) = %.4f ± %.4f  (95%% CI, %s)\n",
		a.Estimate, a.ErrorBar.HalfWidth, a.Technique)
	fmt.Printf("sample used: %d rows of %d; diagnostic OK: %v; elapsed: %v\n",
		ans.SampleRows, orders.NumRows(), a.DiagnosticOK, ans.Elapsed.Round(1000))
	if !a.DiagnosticOK {
		fmt.Printf("the diagnostic rejected the sample's bar (%s), so the answer is exact\n", a.DiagnosticReason)
	}

	// 4. Compare with the exact answer.
	exact, err := engine.RunExact(context.Background(), "SELECT AVG(amount) FROM orders WHERE region = 'eu'")
	if err != nil {
		log.Fatal(err)
	}
	truth := exact.Groups[0].Aggs[0].Estimate
	fmt.Printf("exact answer: %.4f — inside the error bar: %v\n",
		truth, a.ErrorBar.Contains(truth))
}
