package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/table"
)

// ExampleEngine shows the full pipeline: register data, build samples, ask
// an approximate query, and read the error bar and diagnostic verdict.
func ExampleEngine() {
	// A deterministic dataset of 100k session times.
	src := rng.New(1)
	times := make(table.Float64Col, 100000)
	for i := range times {
		times[i] = 60 + 15*src.NormFloat64()
	}
	sessions := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
	}, times)

	engine := core.New(core.Config{Seed: 1, Workers: 2})
	if err := engine.RegisterTable("Sessions", sessions); err != nil {
		panic(err)
	}
	if err := engine.BuildSamples("Sessions", 20000); err != nil {
		panic(err)
	}

	ans, err := engine.Run(context.Background(), "SELECT AVG(Time) FROM Sessions")
	if err != nil {
		panic(err)
	}
	a := ans.Groups[0].Aggs[0]
	fmt.Printf("technique: %s\n", a.Technique)
	fmt.Printf("diagnostic ok: %v\n", a.DiagnosticOK)
	fmt.Printf("relative error under 1%%: %v\n", a.RelErr < 0.01)

	exact, _ := engine.RunExact(context.Background(), "SELECT AVG(Time) FROM Sessions")
	fmt.Printf("error bar brackets the exact answer: %v\n",
		a.ErrorBar.Contains(exact.Groups[0].Aggs[0].Estimate))
	// Output:
	// technique: closed-form
	// diagnostic ok: true
	// relative error under 1%: true
	// error bar brackets the exact answer: true
}
