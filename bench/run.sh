#!/usr/bin/env bash
# Builds the yardstick from source and runs it from the repository root.
# Everything the Go tool writes — build cache, module path, its own
# telemetry counters — and the binary stay inside the checkout, under
# .bench_build/, so a fresh checkout compiles once and later runs reuse it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	go build -C bench -o "$build/yardstick" .
exec "$build/yardstick" "$@"
