#!/usr/bin/env bash
# Builds mdcbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload preset-sweep --seed 7 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the repository root:
# the binary, the Go build cache, the toolchain's own config and
# telemetry files, and the benchmark's scratch files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C "$root/bench" build -o "$out/mdcbench" .
exec "$out/mdcbench" "$@"
