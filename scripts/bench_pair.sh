#!/usr/bin/env bash
# Paired before/after runs of one benchmark workload.
#
#   scripts/bench_pair.sh [--seed N] [--out FILE] <ref-a> <ref-b> <workload> [pairs]
#
# Checks each ref out into its own `git worktree`, builds both once, then
# runs `benchmark/run.sh --workload W --trace 0 --seed N` (N defaults to
# 14, the benchmark's own default) in alternating order (A B, B A, A B,
# ...) so drift of the host hits both sides alike. A side
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
#
# With --out FILE, the run is also recorded as one object of the JSON array
# in FILE (created if missing, appended to otherwise): both sides as
# commits (see side_label), the workload and seed; per metric the median,
# q1, q3, B's wins and ties, the gain verdict and, for an `end_to_end`
# metric, its bound and no-regression verdict; a host block with nproc, the
# kernel and each run's host_cpu_stolen_share; and every raw pair.
set -euo pipefail

seed=14
out=
args=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --seed)
            [[ $# -ge 2 && $2 =~ ^[0-9]+$ ]] || { echo "--seed needs a number" >&2; exit 2; }
            seed=$2
            shift 2
            ;;
        --out)
            [[ $# -ge 2 ]] || { echo "--out needs a file" >&2; exit 2; }
            out=$2
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
    sed -n '2,28p' "$0" >&2
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
        --workload "$workload" --seed "$seed" --trace 0 >"$log"
    grep -q '"correct":true' "$log" || { echo "run $side/$3 failed its checks: $log" >&2; exit 1; }
    # Metric lines read "<name> <value> <unit>", optionally "(reported, ...)".
    awk '$1 ~ /^[a-z_0-9.]+$/ && $2 ~ /^-?[0-9.]+$/ && (NF == 3 || $4 ~ /^\(/) { print $1, $2 }' "$log" |
        while read -r name value; do echo "$value" >>"$work/$name.$side"; done
    # The share of host CPU time stolen by the hypervisor during the run.
    sed -n 's/.*"host_cpu_stolen_share": *\([-0-9.e]*\).*/\1/p' \
        "$dir/benchmark/out/$workload.json" | head -n 1 >>"$work/stolen-$side"
}

rm -f "$work"/*.a "$work"/*.b "$work"/*.tsv "$work"/stolen-* "$work"/regress-* "$work"/metrics.json
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do
        echo "pair $pair/$pairs: side $side" >&2
        dir_of_side=dir_$side
        run_side "$side" "${!dir_of_side}" "$pair"
    done
done

# Shared by the verdict awk programs: quartiles of the values in v[1..n].
awk_lib='
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
    }
    function sorted(src, dst, n,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    }'

# The no-regression rule's bounds, read from BENCHMARK.json: one "<name>
# <bound> <better>" line per object of the `end_to_end` array.
bounds=$(awk '
    /"end_to_end"/ { inside = 1; next }
    inside && /\]/ { exit }
    inside && /"(name|bound|better)"/ { key = $1; val = $2; gsub(/[":,]/, "", key); gsub(/[",]/, "", val); m[key] = val }
    inside && /}/ { print m["name"], m["bound"], m["better"]; delete m }
' "$repo/BENCHMARK.json")

echo "workload $workload, $pairs pairs, seed $seed, A = $ref_a, B = $ref_b"
printf '%-16s %-34s %-34s %-14s %s\n' metric "A median [q1, q3]" "B median [q1, q3]" "B wins/ties" verdict
for file_a in "$work"/*.a; do
    name=$(basename "$file_a" .a)
    paste "$file_a" "$work/$name.b" >"$work/$name.tsv"
    read -r bound better < <(awk -v name="$name" '$1 == name { print $2, $3 }' <<<"$bounds") || true
    # ops_per_s is the one unbounded metric of an untraced run where higher
    # is better.
    higher=0
    [[ $name == ops_per_s || ${better:-} == higher ]] && higher=1
    # Prints the gain table's row; writes the no-regression row (bounded
    # metrics only) to regress-<name> and the metric's JSON to metrics.json.
    awk -v name="$name" -v higher="$higher" -v bound="${bound:--1}" \
        -v regress="$work/regress-$name" -v json="$work/metrics.json" "$awk_lib"'
        { n++; a[n] = $1; b[n] = $2
          if ($1 == $2) ties++
          else if ((higher && $2 > $1) || (!higher && $2 < $1)) wins++ }
        END {
            sorted(a, sa, n); sorted(b, sb, n)
            ma = quantile(sa, n, 0.5); mb = quantile(sb, n, 0.5)
            qa1 = quantile(sa, n, 0.25); qa3 = quantile(sa, n, 0.75)
            qb1 = quantile(sb, n, 0.25); qb3 = quantile(sb, n, 0.75)
            iqr = qa3 - qa1
            gap = higher ? mb - ma : ma - mb
            verdict = "unresolved"
            if (wins >= 0.9 * n && gap > iqr) verdict = sprintf("B better by %.1f %%", 100 * gap / ma)
            else if (n - wins - ties >= 0.9 * n && -gap > iqr) verdict = sprintf("B worse by %.1f %%", -100 * gap / ma)
            printf "%-16s %-34s %-34s %-14s %s\n", name,
                sprintf("%.4g [%.4g, %.4g]", ma, qa1, qa3),
                sprintf("%.4g [%.4g, %.4g]", mb, qb1, qb3),
                sprintf("%d/%d", wins, ties), verdict
            line = sprintf("    \"%s\": {\"better\": \"%s\", \"a\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}, \"b\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}, \"b_wins\": %d, \"ties\": %d, \"gain_verdict\": \"%s\"",
                name, higher ? "higher" : "lower", ma, qa1, qa3, mb, qb1, qb3, wins, ties, verdict)
            if (bound >= 0) {
                worse = higher ? ma - mb : mb - ma
                if (iqr > bound * ma) regression = "unresolved"
                else if (worse > bound * ma) regression = "beyond bound"
                else regression = "within bound"
                printf "%-16s %-8s %-12s %s\n", name, sprintf("%.0f %%", 100 * bound),
                    sprintf("%+.1f %%", 100 * (mb - ma) / ma), regression >regress
                line = line sprintf(", \"bound\": %g, \"no_regression_verdict\": \"%s\"", bound, regression)
            }
            print line "}" >>json
        }' "$work/$name.tsv"
    bound= better=
done

echo
echo "no-regression rule (BENCHMARK.json end_to_end bounds)"
printf '%-16s %-8s %-12s %s\n' metric bound "B vs A" verdict
while read -r name bound better; do
    if [[ -f $work/regress-$name ]]; then
        cat "$work/regress-$name"
    else
        printf '%-16s %-8s %-12s %s\n' "$name" "$bound" - "not reported"
    fi
done <<<"$bounds"
echo "raw values: $work/<metric>.tsv (one pair per line: A, B)"

[[ -n $out ]] || exit 0
json_str() { sed 's/[\\"]/\\&/g; s/.*/"&"/' <<<"$1"; }
# A side as recorded, always a commit or a hash of what was measured: a ref
# as its commit; a checkout directory as its HEAD commit, plus "+diff-" and
# a hash of its changes (the diff against HEAD and every untracked file)
# when it has any; a directory that is no git checkout as "tree-" and a
# hash of its files, build output aside.
short_hash() { sha256sum | cut -c1-12; }
side_label() {
    if [[ ! -d $1 ]]; then
        git -C "$repo" rev-parse --short "$1^{commit}"
        return
    fi
    local dir head
    dir=$(cd "$1" && pwd)
    if [[ $(git -C "$dir" rev-parse --show-toplevel 2>/dev/null) != "$dir" ]]; then
        echo "tree-$(cd "$dir" && find . -type f ! -path '*/target/*' ! -path './.git/*' \
            ! -path './benchmark/out/*' -print0 | LC_ALL=C sort -z | xargs -0 sha256sum | short_hash)"
        return
    fi
    head=$(git -C "$dir" rev-parse --short HEAD)
    if [[ -n $(git -C "$dir" status --porcelain) ]]; then
        head+=+diff-$( {
            git -C "$dir" diff --binary HEAD
            git -C "$dir" ls-files -z --others --exclude-standard | (cd "$dir" && xargs -0 -r sha256sum)
        } | short_hash)
    fi
    echo "$head"
}
# One array of the run's per-pair host CPU steal shares for one side.
stolen_list() { paste -sd, "$work/stolen-$1" | sed 's/^/[/; s/$/]/'; }
# Every raw pair: which side ran first, then each side's metric values.
raw_pairs=$(awk '
    FNR == 1 { name = FILENAME; sub(/.*\//, "", name); sub(/\.tsv$/, "", name); names[++m] = name }
    { a[name, FNR] = $1; b[name, FNR] = $2; if (FNR > n) n = FNR }
    END {
        for (i = 1; i <= n; i++) {
            sa = ""; sb = ""
            for (j = 1; j <= m; j++) {
                sa = sa sprintf("%s\"%s\": %s", j > 1 ? ", " : "", names[j], a[names[j], i])
                sb = sb sprintf("%s\"%s\": %s", j > 1 ? ", " : "", names[j], b[names[j], i])
            }
            printf "    {\"pair\": %d, \"first\": \"%s\", \"a\": {%s}, \"b\": {%s}}%s\n",
                i, i % 2 ? "a" : "b", sa, sb, i < n ? "," : ""
        }
    }' "$work"/*.tsv)
record=$(
    echo "{"
    echo "  \"workload\": $(json_str "$workload"),"
    echo "  \"seed\": $seed,"
    echo "  \"pairs\": $pairs,"
    echo "  \"a\": $(json_str "$(side_label "$ref_a")"),"
    echo "  \"b\": $(json_str "$(side_label "$ref_b")"),"
    echo "  \"host\": {\"nproc\": $(nproc), \"kernel\": $(json_str "$(uname -r)"),"
    echo "    \"host_cpu_stolen_share\": {\"a\": $(stolen_list a), \"b\": $(stolen_list b)}},"
    echo "  \"metrics\": {"
    sed '$!s/$/,/' "$work/metrics.json"
    echo "  },"
    echo "  \"raw_pairs\": ["
    echo "$raw_pairs"
    echo "  ]"
    echo "}"
)
# FILE holds a JSON array of runs: drop its closing bracket and append.
if [[ -s $out ]]; then
    sed -i '$ d' "$out"
    printf ',\n%s\n]\n' "$record" >>"$out"
else
    printf '[\n%s\n]\n' "$record" >"$out"
fi
echo "recorded in $out"
