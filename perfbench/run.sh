#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it:
#
#   bash perfbench/run.sh --workload flagship_uniform --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, the binary and the
# trace files all stay under .bench_build/perfbench in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
# The build uses only the repository's own module and the standard
# library: no downloads, no user Go settings, nothing written outside
# the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
