#!/usr/bin/env bash
# Chaos traces and forensics dumps of REV against the working tree.
#
#   scripts/chaos-traces-vs.sh REV
#
# Extracts REV with `git archive` under target/chaos-traces-vs/base,
# builds the harness in both trees, writes the stdout of seeds 0..200
# and of --scenarios to one file per run for each tree (stderr dropped:
# injected panics print thread ids that differ on every run; exit codes
# ignored, since a violation shows up in the trace), then, in a loop of
# its own, each seed's canonical forensics dump (`--obs-out`), and
# compares the two directories with one `diff -r`. Exits 1 and prints
# the differences if any trace or dump differs. Run from the repository
# root.
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
base=target/chaos-traces-vs/base
out=target/chaos-traces-vs/out
rm -rf "$base/tree"
mkdir -p "$base/tree"
# `-m` stamps the files with the extraction time: with REV's commit
# time they could look older than a build of an earlier REV left in
# "$base/target", and cargo would reuse that stale build.
git archive "$rev" | tar -x -m -C "$base/tree"
cargo build --release --offline -p mvedsua-harness \
    --manifest-path "$base/tree/Cargo.toml" --target-dir "$base/target"
cargo build --release --offline -p mvedsua-harness
traces() {
    rm -rf "$2" && mkdir -p "$2"
    for s in $(seq 0 199); do "$1" --seed "$s" > "$2/seed-$s.txt" 2> /dev/null || true; done
    "$1" --scenarios > "$2/scenarios.txt" 2> /dev/null || true
    # A recorder-attached run is a separate run: its stdout (metrics)
    # is not compared, only the dump it writes.
    for s in $(seq 0 199); do
        "$1" --seed "$s" --obs-out "$2/dump-$s.json" > /dev/null 2>&1 || true
    done
}
traces "$base/target/release/harness" "$out/base"
traces "${CARGO_TARGET_DIR:-target}/release/harness" "$out/change"
diff -r "$out/base" "$out/change"
echo "chaos traces and forensics dumps of $rev and the working tree are identical"
