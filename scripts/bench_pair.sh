#!/usr/bin/env bash
# Paired before/after runs of one benchmark workload.
#
#   scripts/bench_pair.sh [--seed N] <ref-a> <ref-b> <workload> [pairs]
#
# Checks each ref out into its own `git worktree`, builds both once, then
# runs `benchmark/run.sh --workload W --trace 0` (with `--seed N` when
# given; the benchmark's own default otherwise) in alternating order
# (A B, B A, A B, ...) so drift of the host hits both sides alike. A side
# may also be a directory holding a checkout (an uncommitted tree has no
# ref); it is used in place, with its build output kept outside it.
#
# Prints, per metric, each side's median and quartiles and how many pairs B
# won, and applies the rule a claimed gain has to pass: B wins at least nine
# tenths of the pairs (ties count for neither side) and the medians differ
# by more than the distance between A's quartiles. Then, for each metric of
# BENCHMARK.json's `end_to_end` list, the no-regression rule with that
# metric's bound: `beyond bound` if B's median is worse than A's by more
# than the bound, `unresolved` if A's own quartile distance exceeds it,
# else `within bound`. Raw values are kept in $BENCH_PAIR_DIR (default: a
# fresh temporary directory) as <metric>.tsv.
set -euo pipefail

seed=
args=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --seed)
            [[ $# -ge 2 ]] || { echo "--seed needs a value" >&2; exit 2; }
            seed=$2
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done
set -- "${args[@]}"
if [[ $# -lt 3 || $# -gt 4 ]]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
ref_a=$1 ref_b=$2 workload=$3 pairs=${4:-10}
repo=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_PAIR_DIR:-$(mktemp -d)}
mkdir -p "$work"
worktrees=()

cleanup() {
    for tree in "${worktrees[@]}"; do
        git -C "$repo" worktree remove --force "$tree" >/dev/null 2>&1 || true
    done
}
trap cleanup EXIT

# checkout <side> <ref-or-dir>: sets $dir to the directory to run that side from.
checkout() {
    if [[ -d $2 ]]; then
        dir=$(cd "$2" && pwd)
        return
    fi
    dir=$work/tree-$1
    git -C "$repo" worktree add --detach --quiet "$dir" "$2"
    worktrees+=("$dir")
}
checkout a "$ref_a" && dir_a=$dir
checkout b "$ref_b" && dir_b=$dir

# run_side <side> <dir> <pair>: one run; appends each metric's value to
# <metric>.<side>, one line per pair.
run_side() {
    local side=$1 dir=$2 log=$work/run-$1-$3.log
    CARGO_TARGET_DIR=$work/target-$side bash "$dir/benchmark/run.sh" \
        --workload "$workload" ${seed:+--seed "$seed"} --trace 0 >"$log"
    grep -q '"correct":true' "$log" || { echo "run $side/$3 failed its checks: $log" >&2; exit 1; }
    # Metric lines read "<name> <value> <unit>", optionally "(reported, ...)".
    awk '$1 ~ /^[a-z_0-9.]+$/ && $2 ~ /^-?[0-9.]+$/ && (NF == 3 || $4 ~ /^\(/) { print $1, $2 }' "$log" |
        while read -r name value; do echo "$value" >>"$work/$name.$side"; done
}

rm -f "$work"/*.a "$work"/*.b
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do
        echo "pair $pair/$pairs: side $side" >&2
        dir_of_side=dir_$side
        run_side "$side" "${!dir_of_side}" "$pair"
    done
done

# Shared by both verdict tables: quartiles of the values in v[1..n].
awk_lib='
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
    }
    function sorted(src, dst, n,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    }'

echo "workload $workload, $pairs pairs, seed ${seed:-default}, A = $ref_a, B = $ref_b"
printf '%-16s %-34s %-34s %-14s %s\n' metric "A median [q1, q3]" "B median [q1, q3]" "B wins/ties" verdict
for file_a in "$work"/*.a; do
    name=$(basename "$file_a" .a)
    paste "$file_a" "$work/$name.b" >"$work/$name.tsv"
    # ops_per_s is the one metric of an untraced run where higher is better.
    higher=0
    [[ $name == ops_per_s ]] && higher=1
    awk -v name="$name" -v higher="$higher" "$awk_lib"'
        { n++; a[n] = $1; b[n] = $2
          if ($1 == $2) ties++
          else if ((higher && $2 > $1) || (!higher && $2 < $1)) wins++ }
        END {
            sorted(a, sa, n); sorted(b, sb, n)
            ma = quantile(sa, n, 0.5); mb = quantile(sb, n, 0.5)
            iqr = quantile(sa, n, 0.75) - quantile(sa, n, 0.25)
            gap = higher ? mb - ma : ma - mb
            verdict = "unresolved"
            if (wins >= 0.9 * n && gap > iqr) verdict = sprintf("B better by %.1f %%", 100 * gap / ma)
            else if (n - wins - ties >= 0.9 * n && -gap > iqr) verdict = sprintf("B worse by %.1f %%", -100 * gap / ma)
            printf "%-16s %-34s %-34s %-14s %s\n", name,
                sprintf("%.4g [%.4g, %.4g]", ma, quantile(sa, n, 0.25), quantile(sa, n, 0.75)),
                sprintf("%.4g [%.4g, %.4g]", mb, quantile(sb, n, 0.25), quantile(sb, n, 0.75)),
                sprintf("%d/%d", wins, ties), verdict
        }' "$work/$name.tsv"
done

# The no-regression rule, read from BENCHMARK.json: one "<name> <bound>
# <better>" line per object of the `end_to_end` array.
echo
echo "no-regression rule (BENCHMARK.json end_to_end bounds)"
printf '%-16s %-8s %-12s %s\n' metric bound "B vs A" verdict
awk '
    /"end_to_end"/ { inside = 1; next }
    inside && /\]/ { exit }
    inside && /"(name|bound|better)"/ { key = $1; val = $2; gsub(/[":,]/, "", key); gsub(/[",]/, "", val); m[key] = val }
    inside && /}/ { print m["name"], m["bound"], m["better"]; delete m }
' "$repo/BENCHMARK.json" | while read -r name bound better; do
    if [[ ! -f $work/$name.tsv ]]; then
        printf '%-16s %-8s %-12s %s\n' "$name" "$bound" - "not reported"
        continue
    fi
    awk -v name="$name" -v bound="$bound" -v higher="$([[ $better == higher ]] && echo 1 || echo 0)" "$awk_lib"'
        { n++; a[n] = $1; b[n] = $2 }
        END {
            sorted(a, sa, n); sorted(b, sb, n)
            ma = quantile(sa, n, 0.5); mb = quantile(sb, n, 0.5)
            iqr = quantile(sa, n, 0.75) - quantile(sa, n, 0.25)
            worse = higher ? ma - mb : mb - ma
            if (iqr > bound * ma) verdict = "unresolved"
            else if (worse > bound * ma) verdict = "beyond bound"
            else verdict = "within bound"
            printf "%-16s %-8s %-12s %s\n", name, sprintf("%.0f %%", 100 * bound),
                sprintf("%+.1f %%", 100 * (mb - ma) / ma), verdict
        }' "$work/$name.tsv"
done
echo "raw values: $work/<metric>.tsv (one pair per line: A, B)"
