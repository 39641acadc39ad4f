#!/usr/bin/env bash
# Flake census of the tier-1 suite (the root package's tests, as
# `cargo test -q` runs them).
#
# Usage: scripts/flake-census.sh N [TEST...]
#
# Runs each test alone, one at a time, N times on an otherwise idle
# box; then N times again beside two busy-loop processes that the
# script starts and kills itself (nothing on the host is changed). It
# prints the failures per test in each condition and exits 1 if any
# run failed. TEST names a test as the suite prints it, e.g.
# `tests/stages.rs::tiny_ring_applies_backpressure_but_loses_nothing`;
# the default is every tier-1 test. The output of each failing run is
# kept under target/flake-census/. Run it from the repo root.
set -euo pipefail

n=${1:?usage: scripts/flake-census.sh N [TEST...]}
shift
target=${CARGO_TARGET_DIR:-target}
logs="$target/flake-census"
rm -rf "$logs"
mkdir -p "$logs"

# Build the test binaries once; map each test file to its binary.
declare -A bin_of
while read -r file bin; do
    bin_of[$file]=$bin
done < <(cargo test --no-run 2>&1 | sed -n 's/^ *Executable \(tests\/[^ ]*\) (\(.*\))$/\1 \2/p')

tests=("$@")
if [ ${#tests[@]} -eq 0 ]; then
    for file in $(printf '%s\n' "${!bin_of[@]}" | sort); do
        while read -r name; do
            tests+=("$file::$name")
        done < <("${bin_of[$file]}" --list --format terse 2>/dev/null | sed -n 's/: test$//p')
    done
fi

# Runs every test N times alone; appends "<test> <failures>" to $1.
census() {
    local out=$1 id file name bin fails i
    for id in "${tests[@]}"; do
        file=${id%%::*}
        name=${id#*::}
        bin=${bin_of[$file]:?no test binary for $file}
        fails=0
        for ((i = 1; i <= n; i++)); do
            # A name that matches no test runs none and passes: count
            # that as a failure too.
            if ! "$bin" --exact "$name" --test-threads=1 -q >"$logs/run.log" 2>&1 ||
                ! grep -q '^test result: ok. 1 passed' "$logs/run.log"; then
                fails=$((fails + 1))
                mv "$logs/run.log" "$logs/$(basename "$out")-${id//[\/:]/_}-$i.log"
            fi
        done
        echo "$id $fails" >>"$out"
    done
    rm -f "$logs/run.log"
}

census "$logs/idle"

busy=()
trap 'kill "${busy[@]}" 2>/dev/null || true' EXIT
for _ in 1 2; do
    sh -c 'while :; do :; done' &
    busy+=($!)
done
census "$logs/loaded"
kill "${busy[@]}"
busy=()

printf '| test | idle failures / %s | loaded failures / %s |\n|---|---|---|\n' "$n" "$n"
paste -d' ' "$logs/idle" "$logs/loaded" | while read -r id idle _ loaded; do
    printf '| `%s` | %s | %s |\n' "$id" "$idle" "$loaded"
done
! grep -qv ' 0$' "$logs/idle" "$logs/loaded"
