#!/usr/bin/env bash
# Line counts of the tracked files by bucket, and each bucket's lines added
# and removed since <rev> (default HEAD~1; uncommitted edits count, new
# files once they are `git add`ed). Inline `#[cfg(test)]` modules count as
# product: the split is by path, not by parse.
#
# Usage: scripts/loc.sh [<rev>]
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:-HEAD~1}"

{
    git ls-files -z | xargs -0 wc -l 2>/dev/null | awk '$2 != "total" { print "L", $1, 0, $2 }'
    git diff --numstat --no-renames "$rev" -- | awk '$1 != "-" { print "D", $1, $2, $3 }'
} | awk '
    function bucket(p) {
        if (p ~ /^benchmark\//) return "benchmark"
        if (p ~ /^scripts\//) return "scripts"
        if (p ~ /^(crates\/[^\/]+\/)?tests\//) return "tests"
        if (p ~ /^crates\/[^\/]+\/benches\//) return "benches"
        if (p ~ /^(crates\/[^\/]+\/)?src\//) return "product"
        return "other"
    }
    { b = bucket($4) }
    $1 == "L" { loc[b] += $2 }
    $1 == "D" { add[b] += $2; del[b] += $3 }
    END {
        printf "%-10s %8s %7s %7s %7s\n", "bucket", "lines", "+", "-", "net"
        n = split("product tests benches benchmark scripts", order, " ")
        for (i = 1; i <= n; i++) {
            b = order[i]
            printf "%-10s %8d %7d %7d %+7d\n", b, loc[b], add[b], del[b], add[b] - del[b]
        }
    }'
