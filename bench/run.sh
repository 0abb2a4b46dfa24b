#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#   bash bench/run.sh --workload fb_mix --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout; every argument goes to aqpload. The binary,
# the Go build cache and all run-time files stay under the checkout
# (.bench_build/ and bench/out/), the compiler's temporary files included.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (the benchmark builds internal/ from source)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/aqpload" ./cmd/aqpload)
exec "$build/aqpload" -out "$root/bench/out" -spec "$root/BENCHMARK.json" "$@"
