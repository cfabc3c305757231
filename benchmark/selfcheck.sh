#!/usr/bin/env bash
# The benchmark checking itself: two full result sets from the same
# build must agree within the benchmark's own bounds.
#
#   benchmark/selfcheck.sh            RUNS=3 runs per set, SEED=11
#   RUNS=5 SEED=12 benchmark/selfcheck.sh
#
# Asserts, in order: the benchmark's own unit tests pass;
# BENCHMARK.json matches the tables compiled into lepbench; the byte
# check is not vacuous (selftest); every workload x end-to-end metric
# compares `unchanged` between the two sets; stored_ratio and the exact
# per-layer counts are identical in both.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
runs="${RUNS:-3}"
seed="${SEED:-11}"
out="$CARGO_TARGET_DIR/lepbench"
sets="$out/selfcheck"

cargo test --offline --quiet --config Cargo.toml --manifest-path benchmark/lepbench/Cargo.toml
benchmark/run.sh manifest | diff - BENCHMARK.json
benchmark/run.sh selftest

rm -rf "$sets"
for set in a b; do
    for run in $(seq "$runs"); do
        mkdir -p "$sets/$set/run-$run"
        benchmark/run.sh --seed "$seed" --trace 0 >/dev/null
        cp "$out"/{codec_photo,serve_chunk,serve_hot,fleet_mixed}.json "$sets/$set/run-$run/"
    done
    benchmark/run.sh --seed "$seed" --trace 1 >/dev/null
    mkdir -p "$sets/$set/layers"
    cp "$out"/*.layers.json "$sets/$set/layers/"
done

python3 benchmark/compare.py "$sets/a" "$sets/b" --expect-unchanged
echo "selfcheck: two sets of $runs runs agree within the bounds"
