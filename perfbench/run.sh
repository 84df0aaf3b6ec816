#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build writes (binary,
# Go build cache) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/go-cache"
export GOPATH="${out}/go-path"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOENV=off

go -C perfbench build -o "${out}/perfbench" . >&2
exec "${out}/perfbench" "$@"
