#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache included, stays under .bench_build in that directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" --scratch "${out}" "$@"
