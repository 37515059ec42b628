#!/usr/bin/env bash
# Compiles the benchmark and runs it from the root of the checkout. Everything
# built — the Go build cache included — stays in .bench_build/ inside the
# checkout, and nothing is fetched: the benchmark imports only the repository
# and the standard library.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="${GOPATH:-$build/gopath}" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
