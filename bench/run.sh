#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   bash bench/run.sh                        # all four workloads, results in bench/out/
#   bash bench/run.sh --workload qc-warm --seed 3 --seconds 12 --trace 0
#   bash bench/run.sh -compare a.json b.json
#
# The binary, the Go build cache and the toolchain's scratch files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside the
# checkout. The benchmark module replaces fastcc with the checkout's root, so
# without the engine's sources next to bench/ the build fails and the script
# exits nonzero without printing a result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go build -C bench -o "$build/fastcc-bench" .
exec "$build/fastcc-bench" "$@"
