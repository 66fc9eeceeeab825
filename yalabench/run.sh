#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash yalabench/run.sh --workload warm-wire --seed 1 --seconds 15 --trace 0
# Run from the repository root. Every build and run artifact lands in
# .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/yalabench" && go build -o "$out/yalabench" .)
exec "$out/yalabench" "$@"
