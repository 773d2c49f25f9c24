#!/usr/bin/env bash
# Every committed benchmark ledger as one table.
#
#   scripts/bench_trend.sh [metric ...]
#
# Reads each BENCH_<pr>.json at the root of the repo (the JSON arrays that
# `scripts/bench_pair.sh --out` writes, one object per paired run) and
# prints one row per run and metric: workload, metric, PR, seed, A → B
# median, the change of B's median against A's in percent, B's wins out of
# the pairs, and the verdict. The verdict is the gain verdict; for a metric
# with a BENCHMARK.json bound the no-regression verdict follows it after a
# slash. The last column is the two sides as the ledger recorded them:
# commits since PR 41, free-form labels ("change", "newtree",
# "+uncommitted") before it. With metric names as arguments, only those
# metrics are printed. Rows are sorted by workload, metric and PR.
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
ledgers=(BENCH_*.json)
[[ ${#ledgers[@]} -gt 0 ]] || { echo "no BENCH_*.json ledger" >&2; exit 1; }

awk -v only=" $* " '
    # The JSON value that follows "key": in s, up to the next , or }.
    function value(s, key,    i, v) {
        i = index(s, "\"" key "\": ")
        if (!i) return ""
        v = substr(s, i + length(key) + 4)
        sub(/[,}].*/, "", v)
        gsub(/"/, "", v)
        return v
    }
    FNR == 1 { pr = FILENAME; gsub(/[^0-9]/, "", pr) }
    /^  "workload": / { workload = value($0, "workload") }
    /^  "seed": / { seed = value($0, "seed") }
    /^  "pairs": / { pairs = value($0, "pairs") }
    /^  "a": "/ { a = value($0, "a") }
    /^  "b": "/ { b = value($0, "b") }
    /^    "[a-z_0-9.]+": \{"better"/ {
        name = $1
        gsub(/[":]/, "", name)
        if (only != "  " && index(only, " " name " ") == 0) next
        ma = value(substr($0, index($0, "\"a\": {")), "median")
        mb = value(substr($0, index($0, "\"b\": {")), "median")
        verdict = value($0, "gain_verdict")
        regression = value($0, "no_regression_verdict")
        if (regression != "") verdict = verdict " / " regression
        delta = ma == 0 ? "-" : sprintf("%+.1f %%", 100 * (mb - ma) / ma)
        printf "%s\t%s\t%s\t%s\t%.4g → %.4g\t%s\t%s/%s\t%s\t%s → %s\n", workload, name, pr, seed,
            ma, mb, delta, value($0, "b_wins"), pairs, verdict, a, b
    }
' "${ledgers[@]}" | sort -t $'\t' -k1,1 -k2,2 -k3,3n |
    awk -F '\t' '
        BEGIN { printf "%-14s %-14s %-4s %-5s %-24s %-11s %-6s %-40s %s\n", "workload", "metric", "PR", "seed", "A → B median", "Δ", "wins", "verdict", "sides" }
        { printf "%-14s %-14s %-4s %-5s %-24s %-10s %-6s %-40s %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }
    '
