#!/usr/bin/env bash
# Builds the benchmark and the swiftdir-serve binary it drives, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload spec-o3 --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The simulator reads these as defaults; the benchmark fixes its own sizes.
unset SWIFTDIR_JOBS SWIFTDIR_SHARDS
# With telemetry on, the first go command under a fresh config directory
# starts a detached upload process that outlives this script. "go telemetry
# off" is the one go command that never starts it; it records the mode in
# $XDG_CONFIG_HOME, so the go commands below start none either.
go telemetry off

go build -o "$build/bin/swiftdir-serve" ./cmd/swiftdir-serve
(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
