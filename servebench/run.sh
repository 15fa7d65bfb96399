#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash servebench/run.sh --workload get-uniform --seed 1 --seconds 40 --trace 0
#
# Every build artifact (binary, Go build cache and temporary files,
# toolchain config) stays in $CARGO_TARGET_DIR, default .bench_build, so
# nothing is written outside the checkout. The benchmark is a module of its
# own that reaches the program's packages through a replace directive
# pointing at the checkout root; in a directory holding only the benchmark
# that build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$(pwd)/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$here" build -o "$build/servebench" . >&2
exec "$build/servebench" "$@"
