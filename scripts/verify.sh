#!/usr/bin/env bash
# Local verification gate: everything CI runs, runnable offline.
#
#   ./scripts/verify.sh
#
# The workspace has no external dependencies, so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--offline)

echo "==> cargo build --release"
cargo build "${CARGO_FLAGS[@]}" --workspace --release

echo "==> cargo test"
cargo test "${CARGO_FLAGS[@]}" --workspace -q

# The serving-layer concurrency suite must hold under the default test
# parallelism AND serially (different interleavings on both schedules).
echo "==> concurrency tests (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test concurrency -q

# Telemetry invariants (exactly-once query log under parallel sessions,
# live SHOW answers) must also hold on both schedules.
echo "==> telemetry tests (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test "${CARGO_FLAGS[@]}" -p pqp-service --test telemetry -q

# Admission control must still cross the wire on a one-CPU host, where the
# server's worker pool is at its smallest (two workers).
echo "==> server chaos tests on one CPU (taskset -c 0)"
taskset -c 0 cargo test "${CARGO_FLAGS[@]}" -p pqp-server --test chaos -q

# No new unwrap()/expect() in non-test serving-path code (panics there
# take lock-holding threads down mid-query; use typed errors instead).
echo "==> unwrap/expect gate (service, core, engine, storage, wire, server, sql, obs)"
./scripts/check_unwrap.sh

# One configuration parse: no library reads the environment, so every
# `PQP_*` variable is read once, by the rule in crates/server/src/config.rs.
echo "==> env gate (env::var only in crates/server/src/config.rs)"
if grep -rn 'env::var' crates/*/src | grep -v '^crates/server/src/config.rs:'; then
    echo "error: env::var outside crates/server/src/config.rs; add the knob to its Config" >&2
    exit 1
fi

# The cost of a plan-cache miss, counted exactly: a counting allocator
# bounds the allocations per build_execution(Auto) and the live allocations
# and bytes of the plan it leaves behind, and the one-pass estimator must
# agree bit for bit with its recursive reference while plans, strategy
# choices and answers match the recorded digest. Release mode: that is the
# build the serving path runs (the counts are the same in debug).
echo "==> plan footprint budget + estimator equivalence (release)"
cargo test "${CARGO_FLAGS[@]}" --release -p pqp --test plan_footprint --test estimator_equivalence -q

# The repo's benchmark the way the pipeline runs it, at smoke length: all
# four workloads, untraced then traced, each building from this checkout,
# checking every answer and its own guards (~70 s). The traced runs compile
# against several times more of the crates' public API than the untraced
# ones, so every one of the eight last-line JSON results must say correct.
# Then the benchmark package's own tests.
echo "==> benchmark smoke (all workloads, untraced + traced)"
smoke=$(bash benchmark/run.sh --smoke)
grep -E '^(workload |ops_attempted |FAILED)' <<<"$smoke"
[ "$(grep -c '^{.*"correct":true' <<<"$smoke")" -eq 8 ]
echo "==> benchmark package tests"
cargo test "${CARGO_FLAGS[@]}" --manifest-path benchmark/Cargo.toml -q

# Native TopK micro-bench smoke (PQP_TOPK_SMOKE shrinks the K/L sweep to
# its two ends): must produce results/micro_topk.json with per-point cost
# model choices and the K=14/L=3 corner speedup. The native-vs-ranked-MQ
# equivalence assertion runs inside the bench binary itself.
echo "==> topk bench smoke"
PQP_TOPK_SMOKE=1 cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench topk
if command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json
doc = json.load(open("results/micro_topk.json"))
assert doc["meta"]["bench"] == "micro_topk"
assert doc["meta"]["schema_version"] >= 2
assert doc["benchmarks"], "no benchmarks recorded"
for b in doc["benchmarks"]:
    assert b["mean_ms"] > 0 and b["n"] > 0
derived = doc["derived"]
for key in ("native_speedup_k14_l3", "top_n", "sweep", "host_cores",
            "measured_cheapest_low_end", "measured_cheapest_high_end"):
    assert key in derived, f"derived.{key} missing"
assert derived["sweep"], "empty sweep"
for point in derived["sweep"]:
    assert point["cost_model_choice"] in ("SQ", "MQ", "native"), point
    assert point["est_cost_mq"] > 0 and point["est_cost_native"] > 0
EOF
else
    grep -q '"native_speedup_k14_l3"' results/micro_topk.json
fi

echo "==> cargo test --doc"
cargo test "${CARGO_FLAGS[@]}" --workspace --doc -q

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc "${CARGO_FLAGS[@]}" --workspace --no-deps -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "==> OK"
