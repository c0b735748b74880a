#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload q4-zipf-20k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the benchmark's scratch files all live under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

# The go command's caches, temporary files and its telemetry counters
# (kept under the user config directory) all go to the build directory;
# it must never fetch a module or a toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
