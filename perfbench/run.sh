#!/usr/bin/env bash
# Builds mdqserve, mdqworker and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload zipf-hot --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/logs"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"

go build -o "$out/bin/" ./cmd/mdqserve ./cmd/mdqworker >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -logs "$out/logs" "$@"
