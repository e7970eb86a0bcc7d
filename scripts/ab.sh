#!/usr/bin/env bash
# A/B two revisions on one workload of the repo benchmark (BENCHMARK.json).
#
# Usage:
#   scripts/ab.sh <rev-a> <rev-b> --workload W --pairs N
#
# Each revision's committed files are unpacked under .bench_build/<sha>
# (kept, so a revision builds once; for uncommitted work `git add -A` and
# pass "$(git stash create)") and BENCHMARK.json's `command` is run
# there for `run_seconds`, N times per side. Pair i uses seed i on both
# sides and the side that goes first alternates, because this box changes
# speed by 20-40 % over minutes: only neighbouring runs compare.
#
# Per end-to-end metric it prints each side's median and interquartile
# range, in how many pairs b beat a, and a verdict for b against a:
#   WORSE       b's median is worse by more than the metric's `bound`
#   better      N >= 10, b won >= 9/10 of the pairs and the medians differ
#               by more than a's interquartile range
#   unresolved  neither, and a side's IQR/median exceeds the bound: the
#               runs spread too widely to call it unchanged
#   no worse    none of the above
# and appends the same as one JSON row to BENCH_HISTORY.jsonl. Exits 1 on a
# WORSE verdict or a run that failed requests or produced wrong output.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,6p' "$0" >&2; exit 2; }
[[ $# -eq 6 ]] || usage
revs=("$1" "$2")
shift 2
workload="" pairs=""
while [[ $# -gt 0 ]]; do
    case "$1" in
    --workload) workload="$2" ;;
    --pairs) pairs="$2" ;;
    *) usage ;;
    esac
    shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

# BENCHMARK.json, read with sed: `array KEY` is the text between the brackets
# of a top-level array that holds no nested one.
spec=$(tr -d '\n' <BENCHMARK.json)
array() { sed -n "s/.*\"$1\": *\[\([^]]*\)\].*/\1/p" <<<"$spec"; }
grep -q "{\"name\": \"$workload\"," <<<"$(array workloads)" ||
    { echo "ab.sh: no workload '$workload' in BENCHMARK.json" >&2; exit 2; }
mapfile -t cmd < <(array command | sed 's/", *"/\n/g; s/^ *"//; s/" *$//')
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' <<<"$spec")

shas=() dirs=()
for rev in "${revs[@]}"; do
    sha=$(git rev-parse --verify --quiet "$rev^{commit}") ||
        { echo "ab.sh: '$rev' is not a revision" >&2; exit 2; }
    dir=".bench_build/$sha"
    if [[ ! -d "$dir" ]]; then
        mkdir -p "$dir.tmp"
        git archive "$sha" | tar -x -C "$dir.tmp"
        mv "$dir.tmp" "$dir"
    fi
    echo "ab.sh: building ${sha:0:12} ($rev)" >&2
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    shas+=("$sha") dirs+=("$dir")
done

# One line per run: side, then the benchmark's result object.
results=$(mktemp .bench_build/ab.XXXXXX)
trap 'rm -f "$results"' EXIT
for ((i = 1; i <= pairs; i++)); do
    order=(0 1)
    ((i % 2)) || order=(1 0)
    for side in "${order[@]}"; do
        echo "ab.sh: pair $i/$pairs, ${shas[$side]:0:12}" >&2
        line=$(cd "${dirs[$side]}" &&
            "${cmd[@]}" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1) &&
            [[ "$line" == "{"* ]] ||
            { echo "ab.sh: no result line from ${shas[$side]:0:12}" >&2; exit 1; }
        echo "$side $line" >>"$results"
    done
done

array end_to_end | sed 's/} *, */}\n/g; s/[{}",:]/ /g' |
    awk -v a="${shas[0]}" -v b="${shas[1]}" -v w="$workload" -v n="$pairs" -v ts="$(date +%s)" '
    function quantile(v, cnt, q,    pos, lo) {   # v[1..cnt] sorted ascending
        pos = 1 + (cnt - 1) * q; lo = int(pos)
        return lo >= cnt ? v[cnt] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function summarise(side, name,    i, j, t, v) {
        for (i = 1; i <= n; i++) v[i] = val[side, name, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        med[side] = quantile(v, n, 0.5)
        iqr[side] = quantile(v, n, 0.75) - quantile(v, n, 0.25)
    }
    NR == FNR {                                  # an end_to_end entry: key value ...
        for (f = 1; f < NF; f += 2) kv[$f] = $(f + 1)
        names[++m] = kv["name"]; better[kv["name"]] = kv["better"]; bound[kv["name"]] = kv["bound"]
        next
    }
    {
        side = $1; run[side]++
        if ($0 !~ /"correct": true/ || $0 !~ /"failed": 0,/) bad[side]++
        for (k = 1; k <= m; k++) {
            if (!match($0, "\"" names[k] "\": \\{\"value\": [-+0-9.eE]+")) { bad[side]++; continue }
            s = substr($0, RSTART, RLENGTH); sub(/.*: /, "", s)
            val[side, names[k], run[side]] = s + 0
        }
    }
    END {
        printf "%s: a=%.12s b=%.12s, %d pairs; runs failed or incorrect: a %d, b %d\n", \
            w, a, b, n, bad[0], bad[1]
        printf "%-18s %12s %11s %12s %11s %6s  %s\n", \
            "metric", "a median", "a IQR", "b median", "b IQR", "b wins", "verdict"
        row = sprintf("{\"ts\": %d, \"a\": \"%s\", \"b\": \"%s\", \"workload\": \"%s\", \"pairs\": %d, " \
            "\"bad_runs_a\": %d, \"bad_runs_b\": %d, \"metrics\": {", ts, a, b, w, n, bad[0], bad[1])
        for (k = 1; k <= m; k++) {
            name = names[k]; sign = better[name] == "higher" ? 1 : -1
            summarise(0, name); summarise(1, name)
            wins = 0
            for (i = 1; i <= n; i++) if (sign * (val[1, name, i] - val[0, name, i]) > 0) wins++
            gain = sign * (med[1] - med[0])          # > 0: b is better
            spread = iqr[0] / med[0] > iqr[1] / med[1] ? iqr[0] / med[0] : iqr[1] / med[1]
            if (-gain > bound[name] * med[0]) { verdict = "WORSE"; worse = 1 }
            else if (n >= 10 && wins >= 0.9 * n && gain > iqr[0]) verdict = "better"
            else if (spread > bound[name]) verdict = "unresolved"
            else verdict = "no worse"
            printf "%-18s %12.4f %11.4f %12.4f %11.4f %3d/%-2d  %s\n", \
                name, med[0], iqr[0], med[1], iqr[1], wins, n, verdict
            row = row sprintf("%s\"%s\": {\"a_median\": %.6g, \"a_iqr\": %.6g, \"b_median\": %.6g, " \
                "\"b_iqr\": %.6g, \"b_wins\": %d, \"verdict\": \"%s\"}", \
                k > 1 ? ", " : "", name, med[0], iqr[0], med[1], iqr[1], wins, verdict)
        }
        print row "}}" >>"BENCH_HISTORY.jsonl"
        exit (worse || bad[0] || bad[1]) ? 1 : 0
    }' - "$results"
