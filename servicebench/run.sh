#!/usr/bin/env bash
# Builds cprd and the benchmark harness from the checkout in the current
# directory, then runs the harness with the given arguments, e.g.
#
#   bash servicebench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live in .bench_build/ so that the
# benchmark writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# With telemetry on (the default "local" mode), every go command may start a
# detached telemetry child in its own session that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/cprd" ./cmd/cprd
(cd servicebench && go build -o "$out/servicebench" .)
exec "$out/servicebench" -root "$root" -cprd "$out/cprd" "$@"
