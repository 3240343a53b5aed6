#!/usr/bin/env bash
# Builds lrcbench from source and runs it with the given arguments. The
# driver calls it from the root of a checkout as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (Go build cache included) stays under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOENV=off
go build -C "$root/bench" -buildvcs=false -o "$build/lrcbench" ./lrcbench
exec "$build/lrcbench" "$@"
