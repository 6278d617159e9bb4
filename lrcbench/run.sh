#!/usr/bin/env bash
# Builds the lrcbench benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash lrcbench/run.sh --workload matrix-small --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, module cache, temp files, the binary,
# scratch stores and span files). Build output goes to stderr, so standard
# output carries only the benchmark's own report.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

(cd "$root/lrcbench" && go build -o "$build/lrcbench" .) >&2
exec "$build/lrcbench" --out "$build" "$@"
