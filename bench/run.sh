#!/usr/bin/env bash
# Builds the daemon and both halves of the benchmark from this checkout,
# then hands every argument to huntload:
#
#   bash bench/run.sh --workload hunt_repeat --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all --out runs.jsonl
#   bash bench/run.sh --compare a.jsonl b.jsonl
#
# Everything it writes stays inside the checkout: binaries and the Go
# build cache under .bench_build/, scratch data and traces under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/home"
# The go command gets a home of its own, so that its caches and counters
# land in the checkout as well.
(cd bench && env -u XDG_CONFIG_HOME -u XDG_CACHE_HOME HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false go build -o "$build/bin/" ./huntload ./layertrace repro/cmd/threatraptord)
exec "$build/bin/huntload" -daemon "$build/bin/threatraptord" -layertrace "$build/bin/layertrace" "$@"
