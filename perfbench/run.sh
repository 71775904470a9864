#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-table1 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (the binary,
# the Go build cache, temporary files) stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
