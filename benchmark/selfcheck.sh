#!/usr/bin/env bash
# Is the benchmark steady enough for its own bounds? Mirrors the acceptance
# rule: two sets of N runs per workload of the same build, interleaved
# (A B A B ...), run i of either set with seed BASE+i. For every (workload,
# end-to-end metric) it prints both medians, how much worse B's is than A's,
# each set's spread (interquartile range / median) and the bound, and exits
# non-zero if a median disagrees or a spread (setup_s excepted) exceeds the
# bound. A spread beyond half the bound is marked `unresolved`: a difference
# of that size between a change and its parent says nothing on this host.
# The metrics a run reports without gating them are listed the same way,
# without a bound. Every run's values are kept in
# benchmark/out/selfcheck.json; N=0 prints the report for the values there.
#
#   benchmark/selfcheck.sh [N=5] [BASE=14]      # N=10 takes about 45 minutes
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
exec python3 - "$here" "${1:-5}" "${2:-14}" <<'PY'
import json, statistics, subprocess, sys

here, runs, base = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
root = here + "/.."
spec = json.load(open(root + "/BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops")
    # The result file has the gated metrics of the last line and the rest.
    saved_run = json.load(open(f"{here}/out/{workload}.json"))
    return {name: m["value"] for kind in ("metrics", "reported")
            for name, m in saved_run[kind].items()}

saved = here + "/out/selfcheck.json"
values = {(s, w): [] for s in "AB" for w in workloads}
if runs == 0:
    values = {tuple(k.split(".")): v for k, v in json.load(open(saved)).items()}
for i in range(runs):
    for s in "AB":
        for w in workloads:
            values[s, w].append(run(w, base + i))
            print(f"set {s} run {i + 1}/{runs} {w}", file=sys.stderr)

json.dump({f"{s}.{w}": runs_ for (s, w), runs_ in values.items()}, open(saved, "w"), indent=1)

def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)

bad = 0
print(f"{'workload':14} {'metric':14} {'median A':>12} {'median B':>12} "
      f"{'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}")
gated_names = [m["name"] for m in spec["end_to_end"]]
for w in workloads:
    reported = [{"name": n, "better": "higher" if n == "ops_per_s" else "lower", "bound": None}
                for n in values["A", w][0] if n not in gated_names]
    for m in spec["end_to_end"] + reported:
        a = [v[m["name"]] for v in values["A", w]]
        b = [v[m["name"]] for v in values["B", w]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        if m["bound"] is None:
            bound, note = "     -", "  reported, not gated"
        else:
            spread_counts = m["name"] != "setup_s"
            ok = worse <= m["bound"] and not (spread_counts and max(sa, sb) > m["bound"])
            bad += not ok
            bound = f"{m['bound']:6.2f}"
            note = "  <-- FAIL" if not ok else "  unresolved" if max(sa, sb) > m["bound"] / 2 else ""
        print(f"{w:14} {m['name']:14} {ma:12.4f} {mb:12.4f} {worse:+10.2%} "
              f"{sa:9.2%} {sb:9.2%} {bound}{note}")
sys.exit(1 if bad else 0)
PY
