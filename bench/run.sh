#!/usr/bin/env bash
# Builds the ledger from source and runs it with the arguments given.
# Everything the build writes (binary, Go build cache, temporary files, an
# empty GOPATH, the toolchain's own config) stays under .bench_build/ at the
# root of the checkout:
#
#   bash bench/run.sh --workload mem_transfer --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1                  # every workload, one document
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C bench -o "$build/ledger" .
exec "$build/ledger" "$@"
