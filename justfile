# Task runner for the MVEDSUA reproduction. `just --list` shows targets.

# Tier-1 verification: build + the root test suite (includes the
# 200-seed chaos smoke tier).
verify:
    cargo build --release
    cargo test -q

# Everything: all workspace crates' tests.
test-all:
    cargo test --workspace --no-fail-fast -q

# lifebench's own tests: it is a package outside the workspace, so
# `test-all` does not reach them. `--locked` fails instead of rewriting
# lifebench/Cargo.lock when its dependency graph changes.
test-lifebench:
    cargo test --locked --offline --manifest-path lifebench/Cargo.toml -q

# The chaos smoke sweep the test tier runs, via the harness binary
# (fixed 200-seed base; exits 1 with seed + minimized trace on failure).
chaos-smoke:
    cargo run --release -p mvedsua-harness -- --base 0 --count 200

# Longer chaos soak over an arbitrary seed range.
chaos-soak base="0" count="5000":
    cargo run --release -p mvedsua-harness -- --base {{base}} --count {{count}}

# Replay a single chaos seed and print its canonical trace.
chaos-replay seed:
    cargo run --release -p mvedsua-harness -- --seed {{seed}}

# Write the harness stdout for seeds 0..200 and for --scenarios to one
# file per run under DIR, so two trees compare with a single `diff -r`.
# Stderr is dropped: injected panics print thread ids that differ on
# every run. Exit codes are ignored; a violation shows up in the diff.
chaos-traces dir:
    cargo build --release -p mvedsua-harness
    mkdir -p {{dir}}
    for s in $(seq 0 199); do "${CARGO_TARGET_DIR:-target}/release/harness" --seed $s > {{dir}}/seed-$s.txt 2>/dev/null || true; done
    "${CARGO_TARGET_DIR:-target}/release/harness" --scenarios > {{dir}}/scenarios.txt 2>/dev/null || true

# Chaos traces of REV against the working tree: builds REV in a git
# worktree under target/, writes the traces of both trees as
# `chaos-traces` does (seeds 0..200 and --scenarios, one file per run,
# stderr dropped) and compares them with one `diff -r`. Exits 1 and
# prints the differences if any trace differs.
chaos-traces-vs rev:
    #!/usr/bin/env bash
    set -euo pipefail
    base=target/chaos-traces-vs/base
    out=target/chaos-traces-vs/out
    if [ -d "$base" ]; then
        git -C "$base" checkout --quiet --detach {{rev}}
    else
        git worktree add --quiet --detach "$base" {{rev}}
    fi
    cargo build --release --offline -p mvedsua-harness \
        --manifest-path "$base/Cargo.toml" --target-dir "$base/target"
    cargo build --release --offline -p mvedsua-harness
    traces() {
        rm -rf "$2" && mkdir -p "$2"
        for s in $(seq 0 199); do "$1" --seed $s > "$2/seed-$s.txt" 2>/dev/null || true; done
        "$1" --scenarios > "$2/scenarios.txt" 2>/dev/null || true
    }
    traces "$base/target/release/harness" "$out/base"
    traces "${CARGO_TARGET_DIR:-target}/release/harness" "$out/change"
    diff -r "$out/base" "$out/change"
    echo "chaos traces of {{rev}} and the working tree are identical"

# The §6.2 error study through the chaos engine.
chaos-scenarios:
    cargo run --release -p mvedsua-harness -- --scenarios

# Replay a seed with the flight recorder attached: prints metrics and
# writes the canonical forensics dump (replay-stable JSON).
obs-report seed out="/tmp/obs-dump.json":
    cargo run --release -p mvedsua-harness -- --seed {{seed}} --obs-out {{out}}

# Observability smoke: recorder-attached chaos sweep (dump of the first
# failing seed lands in /tmp/obs-dump.json) plus the obs test tier.
obs-smoke:
    cargo test -q --test obs_smoke
    cargo run --release -p mvedsua-harness -- --base 0 --count 50 --obs --obs-out /tmp/obs-dump.json

# Flight-recorder overhead numbers (disabled emit vs enabled record).
bench-obs:
    cargo run --release -p mvedsua-bench --bin obs_bench

# Rulecheck over every embedded rule program (kvstore, redis, vsftpd)
# plus the clean fixture; exits 1 on any error-severity diagnostic.
lint-rules:
    cargo run --release -p mvedsua-harness -- lint --corpus tests/fixtures/rules/good_wording.rules

# Mirror of the CI pipeline: lint, tier-1 verify, workspace and
# lifebench tests, chaos smoke, bench smoke.
ci:
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    just verify
    just test-all
    just test-lifebench
    just lint-rules
    just chaos-smoke
    just bench-ring-smoke
    just bench-vos-smoke

# Interleaved lifebench pairs: REV (the parent) against the working
# tree. Builds REV in a git worktree under target/, then runs N pairs of
# 30 s runs on WORKLOAD, REV first, seed = pair number, and prints each
# pair's CPU per op and set-up time with the change/parent ratios.
lifebench-pairs rev workload n:
    #!/usr/bin/env bash
    set -euo pipefail
    base=target/lifebench-pairs/base
    out=target/lifebench-pairs/out
    if [ -d "$base" ]; then
        git -C "$base" checkout --quiet --detach {{rev}}
    else
        git worktree add --quiet --detach "$base" {{rev}}
    fi
    cargo build --release --offline --manifest-path "$base/lifebench/Cargo.toml"
    cargo build --release --offline --manifest-path lifebench/Cargo.toml
    mkdir -p "$out"
    value() { tail -n 1 "$1" | sed -E "s/.*\"$2\": \{\"value\": ([-0-9.eE+]+).*/\1/"; }
    for i in $(seq 1 {{n}}); do
        for side in parent change; do
            bin=lifebench/target/release/lifebench
            if [ $side = parent ]; then bin="$base/$bin"; fi
            "$bin" --workload {{workload}} --seed "$i" --seconds 30 --trace 0 \
                > "$out/{{workload}}-$side-$i.txt" 2> /dev/null
        done
        line="pair $i"
        for m in cpu_us_per_op_single cpu_us_per_op_monitored setup_s; do
            a=$(value "$out/{{workload}}-parent-$i.txt" $m)
            b=$(value "$out/{{workload}}-change-$i.txt" $m)
            line="$line  $m $(awk "BEGIN { printf \"%.4g -> %.4g (%.3f)\", $a, $b, $b / $a }")"
        done
        echo "$line"
    done

# Ring microbenchmark, full mode: rewrites BENCH_ring.json in place.
bench-ring:
    cargo run --release -p mvedsua-bench --bin ring_bench

# Quick ring bench gated against the committed baseline (what CI runs).
bench-ring-smoke:
    cargo run --release -p mvedsua-bench --bin ring_bench -- --quick --out /tmp/BENCH_ring.quick.json --check BENCH_ring.json

# Data-plane benchmark, full mode: rewrites BENCH_vos.json in place.
bench-vos:
    cargo run --release -p mvedsua-bench --bin vos_bench

# Quick data-plane bench gated against the committed baseline plus the
# 2x-over-legacy floor at 4 KiB+ (what CI runs).
bench-vos-smoke:
    cargo run --release -p mvedsua-bench --bin vos_bench -- --quick --out /tmp/BENCH_vos.quick.json --check BENCH_vos.json
