#!/usr/bin/env bash
# Alternating parent/change pairs of one workload, as a table.
#
#   scripts/ab-pairs.sh <parent-bin> <change-bin> <workload> <pairs> [seconds] [seed]
#
# Runs two built benchmark binaries (each checkout's
# benchmark/target/release/sjcm-benchmark) untraced on one workload,
# `pairs` times each, alternating which side runs first (odd pairs the
# parent). `seconds` defaults to 20 and `seed` to 1998. Exits non-zero
# if any run is not `correct` or has failed operations. Prints one row
# per end-to-end metric of BENCHMARK.json: median [q1, q3] of each side,
# the ratio of the medians, the parent's interquartile distance and the
# pairs in which the change read better (by the metric's `better`),
# then each side's operations per run. Needs jq; nothing under benchmark/ is edited.
#
# Each binary bakes its checkout's path in at compile time, and two builds
# of the same code from checkout roots of different lengths have read
# `query_ms_p50` 8–12 % apart; copying a built binary elsewhere does not
# remove that. Build both sides in checkouts whose roots (the path before
# /benchmark/target/release/) have the same length. When they differ, the
# script warns on stderr and under the table.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
parent=$(realpath "$1") change=$(realpath "$2")
workload=$3 pairs=$4 seconds=${5:-20} seed=${6:-1998}

parent_root=${parent%/benchmark/target/release/*} change_root=${change%/benchmark/target/release/*}
confound=""
if [ ${#parent_root} != ${#change_root} ]; then
    confound="Warning: the checkout roots differ in length (${#parent_root} vs ${#change_root} characters: $parent_root, $change_root), which alone can move wall time by 8–12 %."
    echo "$confound" >&2
fi

cd "$(dirname "$0")/.."
readings=$(mktemp)
trap 'rm -f "$readings"' EXIT

# One run of `bin`, its metrics appended to the readings as
# "<side> <pair> <metric> <value>".
run() {
    local side=$1 bin=$2 pair=$3 line
    if ! line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1); then
        echo "pair $pair $side: the benchmark exited non-zero: $line" >&2
        exit 1
    fi
    if [ "$(jq -r '.correct' <<<"$line")" != true ] || [ "$(jq -r '.failed' <<<"$line")" != 0 ]; then
        echo "pair $pair $side: run not correct: $line" >&2
        exit 1
    fi
    jq -r --arg s "$side" --arg p "$pair" \
        '.metrics | to_entries[] | "\($s) \($p) \(.key) \(.value.value)"' <<<"$line" >>"$readings"
    echo "$side $pair attempted $(jq -r '.attempted' <<<"$line")" >>"$readings"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) = 1 ]; then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
    echo "pair $pair of $pairs done" >&2
done

echo "#### $workload: $pairs pairs, seed $seed, $seconds s"
echo
echo "| metric | parent | change | ratio | parent q3 − q1 | change wins |"
echo "|---|---|---|---|---|---|"
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | awk -v pairs="$pairs" '
    # Quartile p of the n sorted values in s[1..n], by linear
    # interpolation between order statistics.
    function q(s, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo == n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo]) }
    function sorted(side, m, s,    n, i, j, t) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i, m) in v) s[++n] = v[side, i, m]
        for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
        return n
    }
    function cell(s, n) { return sprintf("%.3g \\[%.3g, %.3g\\]", q(s, n, 0.5), q(s, n, 0.25), q(s, n, 0.75)) }
    FILENAME == "-" { order[++metrics] = $1; better[$1] = $2; next }
    { v[$1, $2, $3] = $4 }
    END {
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            delete a; delete b
            na = sorted("parent", m, a); nb = sorted("change", m, b)
            if (na == 0 || nb == 0) continue
            wins = 0
            for (i = 1; i <= pairs; i++) {
                d = v["change", i, m] - v["parent", i, m]
                if ((better[m] == "lower" && d < 0) || (better[m] == "higher" && d > 0)) wins++
            }
            ratio = q(a, na, 0.5) ? sprintf("%.2f×", q(b, nb, 0.5) / q(a, na, 0.5)) : ""
            printf "| `%s` | %s | %s | %s | %.3g | %d/%d |\n", m, cell(a, na), cell(b, nb), ratio, q(a, na, 0.75) - q(a, na, 0.25), wins, pairs
        }
        na = sorted("parent", "attempted", a); nb = sorted("change", "attempted", b)
        printf "\nOperations per run: parent %d–%d (median %d), change %d–%d (median %d).\n", a[1], a[na], q(a, na, 0.5), b[1], b[nb], q(b, nb, 0.5)
    }' - "$readings"
if [ -n "$confound" ]; then
    echo
    echo "$confound"
fi
