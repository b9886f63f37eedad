#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live in .bench_build/ under the current
# directory, so the benchmark reads and writes nothing outside the checkout
# apart from the Go toolchain itself.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTMPDIR="${out}"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
