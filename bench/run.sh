#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write — the Go build cache, temporary
# files, the binary, trace files, working data — stays inside the checkout:
# under .bench_build/ at its root and under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/sysds-bench" . >&2
exec "$build/sysds-bench" -outdir "$here/out" "$@"
