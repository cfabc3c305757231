#!/usr/bin/env bash
# Build lepbench as the repository ships and run it.
#
#   benchmark/run.sh                         all four workloads, end to end
#   benchmark/run.sh --trace 1               all four, per-layer (traced) run
#   benchmark/run.sh --workload serve_hot --seed 12 --seconds 12 --trace 0
#   benchmark/run.sh selftest | manifest
#
# Each workload runs in a fresh process. Records land in
# $CARGO_TARGET_DIR/lepbench/ (default target/lepbench/); the last line
# of each run's output is the result object a driver reads. A run that
# failed an operation exits non-zero, and so does this script.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# lepbench is a package outside the workspace, so the repository's
# [profile.release] does not reach it by inheritance. The root manifest
# is handed over as a cargo config file instead: of its tables, cargo's
# configuration knows only [profile.*].
cargo build --release --offline --quiet --config Cargo.toml \
    --manifest-path benchmark/lepbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/lepbench"

case " $* " in
*" --workload "* | " selftest " | " manifest ")
    exec "$bin" "$@"
    ;;
esac
for workload in codec_photo serve_chunk serve_hot fleet_mixed; do
    "$bin" --workload "$workload" "$@"
done
