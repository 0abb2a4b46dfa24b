// Package repro is a from-scratch Go reproduction of "Knowing When You're
// Wrong: Building Fast and Reliable Approximate Query Processing Systems"
// (Agarwal et al., SIGMOD 2014): a BlinkDB-style sampling-based AQP engine
// whose error bars are validated at runtime by the Kleiner et al.
// diagnostic, together with the systems optimizations (Poissonized
// resampling, scan consolidation, operator pushdown, physical-plan tuning)
// that make the whole pipeline interactive.
//
// See README.md for a tour and DESIGN.md for the system inventory and
// experiment index. This module is the serving system; bench/run.sh
// measures it. The paper's figures are regenerated by paper/, a module of
// its own: its benchmarks run every figure, its cmd/aqpbench prints them
// as tables, and paper/EXPERIMENTS.md has paper-vs-measured results.
package repro
