#!/usr/bin/env bash
# Builds the benchmark and cmd/manthand from source into .bench_build, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload synth --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and output stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -o "$out/bin/manthand" ./cmd/manthand
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --manthand "$out/bin/manthand" --out "$out/perfbench" "$@"
