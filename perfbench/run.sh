#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload feed-chain --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and binary stay under .bench_build/
# in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
