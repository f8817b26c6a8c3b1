#!/usr/bin/env bash
# perfbench/run.sh — build the perfbench binary from source and run it
# from the repository root, passing every argument on:
#
#   bash perfbench/run.sh --workload colocation --seed 2017 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build/ in the checkout, and
# the toolchain is never downloaded. Outside a perfiso checkout it
# fails before building.
set -eu

cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f results/test/cells.csv ]; then
	echo "perfbench: not a perfiso checkout (need go.mod, internal/ and results/test/ next to perfbench/)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
