#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given flags, e.g.
#   bash perfbench/run.sh --workload web-hdd --seed 1 --seconds 30 --trace 0
# Run it from the repository root.  Everything the go command and the
# benchmark write (build cache, go config and telemetry, binary, span
# files) stays under .bench_build.  See perfbench/README.md.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
