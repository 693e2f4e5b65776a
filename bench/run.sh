#!/usr/bin/env bash
# Runs the rdload benchmark on the checkout it is called from, e.g.
#
#   bash bench/run.sh --workload social-zipf --seed 1 --seconds 10 --trace 0
#
# It builds rdload (which builds rdserver and rdproxy) with the Go build
# cache and temporary files under .bench_build/, so a run reads and writes
# only inside the checkout, and passes every argument on to rdload.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rdserver" || ! -f "$root/cmd/rdload/go.mod" ]]; then
	echo "bench/run.sh: run it from the root of a landmarkrd checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C cmd/rdload build -o "$build/bin/rdload" .
exec "$build/bin/rdload" "$@"
