#!/usr/bin/env bash
# Builds the program under test and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#
#   bash vqibench/run.sh --workload formulate --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included), and no module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"

# The go command otherwise forks a detached telemetry process that can
# outlive this script; with telemetry off it starts none.
go telemetry off
go build -o "$out/bin/" ./cmd/vqiserve ./cmd/vqibuild ./cmd/vqimaintain
(cd "$root/vqibench" && go build -o "$out/bin/vqibench" .)
exec "$out/bin/vqibench" --bin "$out/bin" --work "$out/work" "$@"
