#!/usr/bin/env bash
# Lines added, removed and net since a base commit, by kind of file.
#
#   scripts/net_lines.sh <base-ref>
#
# Compares <base-ref> with the working tree (`git diff --numstat`, so
# staged new files count; untracked ones do not) and prints one row per
# group: crates/*/src; src (the umbrella crate's own src/: a row of its
# own, so crates/*/src stays comparable with earlier reports, and the
# code total is the two rows summed); tests (tests/ and crates/*/tests;
# `#[cfg(test)]` modules stay in their source file); benches and
# examples (crates/*/benches, examples/, benchmark/); scripts and CI;
# docs (*.md below the root, and the root's README, DESIGN,
# ARCHITECTURE, ROADMAP, PAPER, PAPERS and SNIPPETS); everything else,
# the root's other *.md logs included. Binary files count zero lines.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

git diff --numstat "$1" | awk -F'\t' '
    function group(path) {
        if (path ~ /^(README|DESIGN|ARCHITECTURE|ROADMAP|PAPERS?|SNIPPETS)\.md$/) return "docs"
        if (path ~ /\/.*\.md$/) return "docs"
        if (path ~ /^crates\/[^\/]+\/src\//) return "crates/*/src"
        if (path ~ /^src\//) return "src"
        if (path ~ /^(tests|crates\/[^\/]+\/tests)\//) return "tests"
        if (path ~ /^(examples|benchmark|crates\/[^\/]+\/benches)\//) return "benches+examples"
        if (path ~ /^(scripts|\.github)\//) return "scripts+CI"
        return "other"
    }
    {
        # A rename reads "old => new" or "dir/{old => new}/file"; group by the new path.
        path = $3
        if (path ~ /{.* => .*}/) { sub(/{[^{]* => /, "", path); sub(/}/, "", path) }
        else if (path ~ / => /) sub(/.* => /, "", path)
        g = group(path)
        added[g] += ($1 == "-" ? 0 : $1); removed[g] += ($2 == "-" ? 0 : $2)
    }
    END {
        printf "%-18s %8s %8s %8s\n", "group", "added", "removed", "net"
        n = split("crates/*/src src tests benches+examples scripts+CI docs other", order, " ")
        for (i = 1; i <= n; i++) {
            g = order[i]
            printf "%-18s %8d %8d %+8d\n", g, added[g], removed[g], added[g] - removed[g]
            ta += added[g]; tr += removed[g]
        }
        printf "%-18s %8d %8d %+8d\n", "total", ta, tr, ta - tr
    }'
