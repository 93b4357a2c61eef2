#!/usr/bin/env bash
# Builds the served-sweep benchmark from source and runs it. Run from the
# repository root; every argument passes through to the benchmark, e.g.
#
#   bash sweepbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
#   bash sweepbench/run.sh --check
#
# Build outputs, the Go build cache, throwaway stores and trace files all go
# under $CARGO_TARGET_DIR (default .bench_build), so the run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/sweepbench" && go build -o "$out/sweepbench" .)
exec "$out/sweepbench" --out "$out" "$@"
