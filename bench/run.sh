#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from the checkout's
# source and runs it with the arguments given. Everything it writes (build
# cache, binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME moves the go command's telemetry counter files in here too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/flowtune-repo-bench" .) >&2
exec "$build/flowtune-repo-bench" "$@"
