// Package repro is a from-scratch Go reproduction of "Knowing When You're
// Wrong: Building Fast and Reliable Approximate Query Processing Systems"
// (Agarwal et al., SIGMOD 2014): a BlinkDB-style sampling-based AQP engine
// whose error bars are validated at runtime by the Kleiner et al.
// diagnostic, together with the systems optimizations (Poissonized
// resampling, scan consolidation, operator pushdown, physical-plan tuning)
// that make the whole pipeline interactive.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results. The
// benchmarks in bench_test.go regenerate every figure; cmd/aqpbench prints
// them as tables, and does nothing else: bench/run.sh measures serving.
package repro
