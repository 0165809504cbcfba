#!/usr/bin/env bash
# Builds the benchmark harness and deeprestd from the checkout's sources and
# runs the harness from the repository root. Everything the build writes,
# the Go build cache included, stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
go build -C bench -o "$build/deeprestd" repro/cmd/deeprestd
exec "$build/bench" -daemon "$build/deeprestd" "$@"
