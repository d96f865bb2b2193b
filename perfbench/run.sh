#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload rpc_transfers --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the file-backed chain
# state all live under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
