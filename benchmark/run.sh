#!/bin/bash
# The command BENCHMARK.json names: build the benchmark from source inside the
# checkout, then run it with the arguments given. Everything the toolchain
# writes — build cache, module path, telemetry — is kept under .bench_build,
# so a run reads and writes nothing outside the checkout.
set -eu
cd "$(dirname "$0")/.."
# Without the module there is nothing to build: say so before starting any
# process at all.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 2
fi
build=$PWD/.bench_build
# Telemetry off, written the way `go telemetry off` writes it: with a fresh
# config directory the go command would otherwise start a detached
# report-processing child that can outlive this script.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE=$build/go-cache GOPATH=$build/go-path XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
