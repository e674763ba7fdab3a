#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/.bench_build/ and runs it
# with the arguments given. Everything the Go toolchain writes (build
# cache, module cache) is kept there too, so a run reads and writes only
# inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/smartbench" .)
exec "$out/smartbench" "$@"
