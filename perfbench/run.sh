#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload map-k1 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout. See perfbench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; go.mod is missing here" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
