#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness and runs it with
# the caller's arguments, from the root of a checkout.
#
#   sh benchmark/run.sh --workload scan-large --seed 7 --seconds 10 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files,
# telemetry — is redirected under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it. The harness builds the cmd/ tools
# itself (timed as build_s) into the same directory.
set -eu
root=$(pwd)
b="$root/.bench_build"
mkdir -p "$b/home" "$b/tmp" "$b/bin"
export HOME="$b/home" GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$b/bin/benchmark" .
exec "$b/bin/benchmark" "$@"
