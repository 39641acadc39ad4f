#!/usr/bin/env bash
# Interleaved lifebench pairs: REV (the parent) against the working tree.
#
#   scripts/lifebench-pairs.sh REV WORKLOAD N
#
# Extracts REV with `git archive` under target/lifebench-pairs/base,
# builds lifebench in both trees, then runs N pairs of 30 s runs on
# WORKLOAD with seed = pair number. Odd pairs run the parent first, even
# pairs the change first, so an order effect between the two sides
# cancels out over the pairs. Prints each pair's CPU per op and set-up
# time with the change/parent ratios, then one line per metric: parent
# median, change median, their ratio and in how many pairs the change
# read lower. Run from the repository root.
set -euo pipefail
if [ $# -ne 3 ]; then
    echo "usage: $0 REV WORKLOAD N" >&2
    exit 2
fi
rev=$1 workload=$2 n=$3
base=target/lifebench-pairs/base
out=target/lifebench-pairs/out
rm -rf "$base/tree"
mkdir -p "$base/tree" "$out"
# `-m` stamps the files with the extraction time: with REV's commit
# time they could look older than a build of an earlier REV left in
# "$base/target", and cargo would reuse that stale build.
git archive "$rev" | tar -x -m -C "$base/tree"
cargo build --release --offline --manifest-path "$base/tree/lifebench/Cargo.toml" \
    --target-dir "$base/target"
cargo build --release --offline --manifest-path lifebench/Cargo.toml
declare -A bin=(
    [parent]="$base/target/release/lifebench"
    [change]=lifebench/target/release/lifebench
)
metrics=(cpu_us_per_op_single cpu_us_per_op_monitored setup_s ok_frac)
value() { tail -n 1 "$1" | sed -E "s/.*\"$2\": \{\"value\": ([-0-9.eE+]+).*/\1/"; }
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        "${bin[$side]}" --workload "$workload" --seed "$i" --seconds 30 --trace 0 \
            > "$out/$workload-$side-$i.txt" 2> /dev/null
    done
    line="pair $i (${order%% *} first)"
    for m in "${metrics[@]}"; do
        a=$(value "$out/$workload-parent-$i.txt" "$m")
        b=$(value "$out/$workload-change-$i.txt" "$m")
        line="$line  $m $(awk "BEGIN { printf \"%.4g -> %.4g (%.3f)\", $a, $b, $b / $a }")"
    done
    echo "$line"
done
median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
for m in "${metrics[@]}"; do
    parent=$(for i in $(seq 1 "$n"); do value "$out/$workload-parent-$i.txt" "$m"; done | median)
    change=$(for i in $(seq 1 "$n"); do value "$out/$workload-change-$i.txt" "$m"; done | median)
    lower=0
    for i in $(seq 1 "$n"); do
        a=$(value "$out/$workload-parent-$i.txt" "$m")
        b=$(value "$out/$workload-change-$i.txt" "$m")
        lower=$((lower + $(awk "BEGIN { print ($b < $a) }")))
    done
    awk "BEGIN { printf \"%-24s parent %.4g  change %.4g  ratio %.3f  lower in %d of %d pairs\n\", \"$m\", $parent, $change, $change / $parent, $lower, $n }"
done
