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

# The workspace's only non-test `unsafe` is the epoll shim the server's
# readiness loop stands on: three `extern "C"` calls and the adoption of the
# descriptor they return, all in crates/server/src/epoll.rs.
echo "==> unsafe gate (unsafe / extern \"C\" only in crates/server/src/epoll.rs)"
if find crates/*/src src -name '*.rs' ! -path crates/server/src/epoll.rs | sort | while read -r f; do
    sed -e '/#\[cfg(test)\]/,$d' -e 's|//.*||' "$f" | { grep -nE '\bunsafe\b|extern "C"' || true; } |
        sed "s|^|$f:|"
done | grep .; then
    echo "error: unsafe code outside crates/server/src/epoll.rs; use a safe std API" >&2
    exit 1
fi

# Keys drawn from stored rows hash once, with the seeded in-tree key hasher
# (pqp_storage::hash); maps keyed by what a client sends (SQL text, user
# ids, names) keep std's SipHash, which resists keys crafted to collide.
echo "==> key hasher gate (no SipHash on per-row keys, no KeyHasher on client keys)"
if for f in crates/engine/src/exec.rs crates/engine/src/topk.rs crates/storage/src/index.rs; do
    sed -e '/#\[cfg(test)\]/,$d' -e 's|//.*||' "$f" | { grep -n 'DefaultHasher\|RandomState' || true; } |
        sed "s|^|$f:|"
done | grep .; then
    echo "error: SipHash on a per-row key path; hash with pqp_storage::KeyState" >&2
    exit 1
fi
if grep -rnE 'KeyState|KeyHasher' crates/service/src crates/server/src crates/sql/src \
    crates/engine/src/planner.rs; then
    echo "error: the key hasher on a map keyed by client input; keep std's RandomState" >&2
    exit 1
fi

# Executor keys hash in place: a join key, a distinct row, a group key and
# a TopK prefix are hashed where they lie and looked up in a `KeyTable`
# (crates/engine/src/exec.rs), and a hash index keeps its keys inline in one
# entry table (crates/storage/src/index.rs), so no engine or storage map or
# set is keyed by a row.
echo "==> row-keyed map gate (no HashMap / HashSet keyed by Row or Vec<Value> in crates/engine/src, crates/storage/src)"
if grep -rnE 'Hash(Map|Set)[[:space:]]*(::)?[[:space:]]*<[[:space:]]*&?[[:space:]]*(([A-Za-z_][A-Za-z0-9_]*::)*Row\b|Vec[[:space:]]*<[[:space:]]*([A-Za-z_][A-Za-z0-9_]*::)*Value[[:space:]]*>)' \
    crates/engine/src crates/storage/src; then
    echo "error: a map or set keyed by a whole row; hash the key in place (a KeyTable, an index entry)" >&2
    exit 1
fi

# One plan representation: a plan is one flat array of nodes with index
# children (crates/engine/src/plan.rs), so no crate boxes or shares a
# `Plan` inside another plan-shaped tree.
echo "==> plan representation gate (no Box<Plan> / Arc<Plan> in crates/*/src)"
if grep -rnE '\b(Box|Arc)<[[:space:]]*([A-Za-z_][A-Za-z0-9_]*::)*Plan\b' crates/*/src; then
    echo "error: a boxed or shared Plan; a plan is one node array, reference nodes by index" >&2
    exit 1
fi

# The replication core is a pure state machine: no socket, file, clock,
# WAL or service, so the simulator drives it exactly as the server does.
echo "==> replication core purity gate (crates/server/src/repl/core.rs)"
if grep -nE 'std::net|std::fs|Instant|SystemTime|thread::sleep|pqp_storage|pqp_service' \
    crates/server/src/repl/core.rs; then
    echo "error: repl/core.rs must stay free of I/O, clocks, the WAL and the service" >&2
    exit 1
fi

# 10 000 simulated seeds (tier-1 runs 1 000): message, crash and disk faults
# over N = 3 and N = 2 clusters at quorum 2, every property checked.
echo "==> replication simulator, 10 000 seeds (release)"
cargo test "${CARGO_FLAGS[@]}" --release -p pqp-server --lib repl::sim -- --ignored --nocapture

# The differential generator at ten times its tier-1 cases: every executor
# pipeline (scans, index and hash joins, the index join's hash fallback,
# residual filters, DISTINCT over computed columns, GROUP BY, UNION [ALL])
# against the naive oracle.
echo "==> differential generator, 3 840 cases (release)"
cargo test "${CARGO_FLAGS[@]}" --release -p pqp-engine --test differential -- --ignored

# The cost of a plan-cache miss, counted exactly: a counting allocator
# bounds the allocations per build_execution(Auto) and the live allocations
# and bytes of the plan it leaves behind (one node array: 4 allocations),
# the live bytes per entry of a Service's plan cache filled with the
# cold_read-shaped population (and none left once every entry is dropped),
# and the one-pass estimator must
# agree bit for bit with its recursive reference while plans, strategy
# choices and answers match the recorded digest. On the execution side, the
# rows scanned and the bytes charged to the query governor by the
# rank_exec-shaped run_plans are exact gates (511 442 rows / 30 866 552 B
# over 128 runs, no slack), beside the allocation and byte ceilings; so are
# the rows, bytes and pruning counters of the native rank operator's runs
# on the cold_read-shaped keys whose Auto choice is native. Release
# mode: that is the build the serving path runs (the counts are the same in
# debug).
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
# its two ends): must produce target/topk-smoke/micro_topk.json with
# per-point cost model choices and the K=14/L=3 corner speedup, and leave
# the recorded sweep under results/ untouched. The native-vs-ranked-MQ
# equivalence assertion runs inside the bench binary itself.
echo "==> topk bench smoke"
smoke_json=target/topk-smoke/micro_topk.json
rm -f "$smoke_json"
PQP_TOPK_SMOKE=1 cargo bench "${CARGO_FLAGS[@]}" -p pqp-bench --bench topk
if command -v python3 >/dev/null; then
    python3 - "$smoke_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
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
    grep -q '"native_speedup_k14_l3"' "$smoke_json"
fi
if ! git diff --quiet -- results/; then
    git diff --stat -- results/ >&2
    echo "error: a smoke run rewrote tracked files under results/" >&2
    exit 1
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
