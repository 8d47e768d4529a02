#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the runs write
# stays under .bench_build/ (Go build cache included); the build uses only
# the local toolchain and the module's own sources.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
GOMAXPROCS=1 exec "$out/bin/perfbench" "$@"
