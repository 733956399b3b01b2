#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload cluster-deep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# go command state) stays under .bench_build/ in the checkout. Build
# output goes to standard error, so the last line of standard output is
# the benchmark's JSON result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
