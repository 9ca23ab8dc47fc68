#!/usr/bin/env bash
# Builds the harness from source and runs it with the arguments given. Run
# from the root of a checkout:
#
#   bash bench/run.sh --workload train-ae-large --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh -seed 1 -trace 1 -out bench/out/run.json
#
# Everything the build leaves behind (binary, Go build cache, Go's own
# config directory) stays under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local

# Warm, this is a no-op of well under a second; the program is never run
# from a stale binary.
(cd "$here" && go build -o "$build/phideep-bench" .) >&2
exec "$build/phideep-bench" "$@"
