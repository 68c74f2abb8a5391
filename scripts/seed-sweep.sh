#!/usr/bin/env bash
# Spread of one benchmark metric over the workload seed.
#
#   scripts/seed-sweep.sh <workload> <metric> <n> [seconds]
#
# Runs the command BENCHMARK.json declares, untraced, once per seed
# 1..n on one workload of this checkout (nothing under benchmark/ is
# edited) and prints every reading, then min / quartiles / max and the
# spread (max - min) as a share of the median. `seconds` defaults to 1:
# set-up metrics such as peak_rss_mb do not need a long measuring pass.
# To sweep another commit, run that checkout's copy of this script.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    sed -n '2,11p' "$0" >&2
    exit 2
fi
workload=$1 metric=$2 n=$3 seconds=${4:-1}

cd "$(dirname "$0")/.."
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)

readings=()
for seed in $(seq 1 "$n"); do
    line=$("${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    if [ "$(jq -r '.correct' <<<"$line")" != true ]; then
        echo "seed $seed: run not correct: $line" >&2
        exit 1
    fi
    value=$(jq -r --arg m "$metric" '.metrics[$m].value // empty' <<<"$line")
    if [ -z "$value" ]; then
        echo "seed $seed: no end-to-end metric named $metric" >&2
        exit 1
    fi
    echo "seed $seed: $value"
    readings+=("$value")
done

# Quartiles by linear interpolation between order statistics.
printf '%s\n' "${readings[@]}" | sort -g | awk -v w="$workload" -v m="$metric" '
    { v[NR] = $1 }
    function q(p,    h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo == NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    END {
        med = q(0.5)
        printf "%s %s over %d seeds: min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g  spread %.1f %% of median\n",
            w, m, NR, v[1], q(0.25), med, q(0.75), v[NR], med ? 100 * (v[NR] - v[1]) / med : 0
    }'
