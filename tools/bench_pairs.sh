#!/bin/sh
# Paired perfbench runs: a parent revision against the working tree.
#
#   tools/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# Builds perfbench twice, from a `git archive` export of <parent-rev>
# under $TMPDIR and from the working tree, then runs <pairs> pairs of
# `--trace 0` runs, alternating which side goes first. Pair i uses seed i,
# or [seed] for every pair. BENCH_SECONDS (default 30) sets --seconds.
#
# Prints each run's gated metrics (the `end_to_end` list of
# BENCHMARK.json), then per metric each side's median and quartiles and
# the pairs the working tree won (strictly better, in the metric's
# `better` direction).
set -eu

usage() {
    echo "usage: $0 <parent-rev> <workload> <pairs> [seed]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 4 ] || usage
rev=$1
workload=$2
pairs=$3
seed=${4:-}
seconds=${BENCH_SECONDS:-30}
case $pairs in '' | *[!0-9]*) usage ;; esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

# name:better for every gated metric, in BENCHMARK.json order.
metrics=$(sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" |
    sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1:\2/p')

mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
for side in parent change; do
    src=$tmp/parent
    [ $side = change ] && src=$root
    echo "building perfbench ($side)" >&2
    cargo build --release --offline --quiet --manifest-path "$src/perfbench/Cargo.toml" \
        --target-dir "$tmp/target-$side"
done

# One run: print its gated metrics and append them to the results table
# (side, pair, metric, value).
run() {
    side=$1 pair=$2 s=$3
    out=$tmp/run-$side-$pair.txt
    "$tmp/target-$side/release/rhik-perfbench" --workload "$workload" --seed "$s" \
        --seconds "$seconds" --trace 0 >"$out"
    json=$(tail -n 1 "$out")
    line="$side seed $s:"
    case $json in *'"correct": true'*) ;; *) line="$line correct=false" ;; esac
    for m in $metrics; do
        name=${m%%:*}
        value=$(echo "$json" | sed -n "s/.*\"$name\": {\"value\": \([^,]*\),.*/\1/p")
        line="$line $name=$value"
        echo "$side $pair $name $value" >>"$tmp/results"
    done
    echo "  $line"
}

: >"$tmp/results"
i=1
while [ "$i" -le "$pairs" ]; do
    s=${seed:-$i}
    echo "pair $i (seed $s)"
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i" "$s"
        run change "$i" "$s"
    else
        run change "$i" "$s"
        run parent "$i" "$s"
    fi
    i=$((i + 1))
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   pos, lo) {
            pos = 1 + (NR - 1) * p; lo = int(pos)
            return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6g [%.6g, %.6g]", q(0.5), q(0.25), q(0.75) }'
}

echo
printf '%-18s %-7s %-36s %-36s %s\n' metric better "parent median [q1, q3]" \
    "change median [q1, q3]" "change wins"
for m in $metrics; do
    name=${m%%:*}
    better=${m#*:}
    p=$(awk -v n="$name" '$1 == "parent" && $3 == n { print $4 }' "$tmp/results" | quartiles)
    c=$(awk -v n="$name" '$1 == "change" && $3 == n { print $4 }' "$tmp/results" | quartiles)
    wins=$(awk -v n="$name" -v better="$better" '
        $3 == n { v[$1, $2] = $4; pairs[$2] = 1 }
        END {
            for (i in pairs) {
                d = v["change", i] - v["parent", i]
                if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) w++
                total++
            }
            printf "%d/%d", w, total
        }' "$tmp/results")
    printf '%-18s %-7s %-36s %-36s %s\n' "$name" "$better" "$p" "$c" "$wins"
done
