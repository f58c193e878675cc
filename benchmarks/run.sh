#!/usr/bin/env bash
# Entry point of the service ledger (BENCHMARK.json's command). Builds the
# daemon under test and the load generator from source into .bench_build/,
# then runs the load generator with the caller's arguments. Everything the
# toolchain writes stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The toolchain's cache, module path, temporary files and telemetry counters
# (kept under the user's configuration directory) all land in the build
# directory; nothing is fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
# With telemetry in its default "local" mode the go command forks a detached
# `go "** telemetry **"` sidecar that outlives it; the mode file is the only
# switch, so turn it off before the first go invocation.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/aiqld" ./cmd/aiqld >&2
go -C benchmarks build -o "$build/bin/" ./cmd/ledger ./cmd/ledgerdiff >&2
exec "$build/bin/ledger" --aiqld "$build/bin/aiqld" --workdir "$build/work" --results-dir benchmarks/results "$@"
