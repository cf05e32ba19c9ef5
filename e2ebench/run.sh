#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it
# is run in, then runs it with the given arguments. Run it from the
# root of the repository:
#
#   bash e2ebench/run.sh --workload plet-motif-cluster --seed 7 --seconds 55 --trace 0
#
# Build outputs and the Go build cache go to .bench_build, and job
# scratch space to .bench_out, both in the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
