#!/usr/bin/env bash
# Runs two full sets of the same build (RUNS untraced runs per workload,
# each with the next seed, then one traced run) and compares the second
# against the first: every end-to-end metric on every workload must come
# out "ok", and the exact counts of the two traced passes must be
# identical. Run from the root of the repo; takes about
# 2 x 6 x (RUNS x 13 s + 15 s).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${RUNS:-3}"
seed="${SEED:-1}"
out="$here/out/selfcheck"
mkdir -p "$out"
for set in a b; do
    bash "$here/run.sh" -seed "$seed" -runs "$runs" -trace 1 -outdir "$out" -out "$out/$set.json"
done
bash "$here/run.sh" -compare "$out/a.json" "$out/b.json"
