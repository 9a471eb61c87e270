#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# keeping the build cache and the binary under .bench_build in the
# directory it is started from (the root of the repository).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/bin/nodebench" .
exec "$out/bin/nodebench" --out "$out/nodebench" "$@"
