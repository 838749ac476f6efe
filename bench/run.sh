#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build writes (binary, Go build cache) under .bench_build/ in the
# checkout. Arguments are passed through; see README.md.
#
#   bash bench/run.sh --workload serve-young --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off

# The module replaces lxr with the checkout's root; without the repo's
# sources around it this fails, and so does the run.
(cd "$here" && go build -o "$out/lxr-bench" .) >&2

cd "$root"
exec "$out/lxr-bench" "$@"
