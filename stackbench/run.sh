#!/usr/bin/env bash
# Builds stackbench from source and runs it; run from the repository
# root, e.g.:
#   bash stackbench/run.sh --workload kv-zipf --seed 1 --seconds 20 --trace 0
# The build cache, binary and span logs go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the tree.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
(cd stackbench && go build -buildvcs=false -o "$out/stackbench" .) >&2
exec "$out/stackbench" --out "$out" "$@"
