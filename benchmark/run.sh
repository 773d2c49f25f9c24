#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S | --smoke] [--trace 0|1]
#
# Without --workload it runs every workload, untraced and then traced, each
# in a fresh process (about 4 minutes). Each run prints its metrics by name
# and unit, ends with the one-line JSON result, and writes benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin=$target/release/pqp-benchmark

if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@"
fi
for workload in hot_read cold_read rank_exec profile_write; do
    "$bin" --workload "$workload" "$@" --trace 0
    "$bin" --workload "$workload" "$@" --trace 1
done
