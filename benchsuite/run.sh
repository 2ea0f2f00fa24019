#!/usr/bin/env bash
# Builds the dreambench suite from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchsuite/run.sh --workload stream-5k --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so a run reads and writes
# nothing outside the checkout and never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchsuite" build -o "$out/dreambench-suite" .
exec "$out/dreambench-suite" "$@"
