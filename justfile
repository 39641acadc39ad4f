# Task runner for the MVEDSUA reproduction. `just --list` shows targets.

# Tier-1 verification: build + the root test suite (includes the
# 200-seed chaos smoke tier).
verify:
    cargo build --release
    cargo test -q

# Everything: all workspace crates' tests.
test-all:
    cargo test --workspace --no-fail-fast -q

# lifebench's own tests and lints: it is a package outside the
# workspace, so `test-all` does not reach it. `--locked` fails instead
# of rewriting lifebench/Cargo.lock when its dependency graph changes.
test-lifebench:
    cargo test --locked --offline --manifest-path lifebench/Cargo.toml -q
    cargo clippy --locked --offline --manifest-path lifebench/Cargo.toml --all-targets -- -D warnings

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

# Chaos traces and forensics dumps of REV against the working tree:
# extracts REV under target/, writes the traces of both trees as
# `chaos-traces` does plus each seed's `--obs-out` dump, and compares
# them with one `diff -r` (exit 1 on a difference). The body is
# scripts/chaos-traces-vs.sh, which runs without `just` as well.
chaos-traces-vs rev:
    scripts/chaos-traces-vs.sh {{rev}}

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

# The planted-bad rule fixtures must each make `harness lint` exit with
# 1 (a panic exits 101, so a crashing linter does not count).
lint-rules-bad:
    #!/usr/bin/env bash
    set -euo pipefail
    for f in tests/fixtures/rules/bad_*.rules; do
        status=0
        cargo run --release -p mvedsua-harness -- lint "$f" || status=$?
        if [ "$status" -ne 1 ]; then
            echo "expected $f to fail the lint with exit 1, got $status" >&2
            exit 1
        fi
    done

# Mirror of the CI pipeline: lint, tier-1 verify, workspace and
# lifebench tests, rule lint, chaos and obs smoke, bench smoke.
ci:
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    just verify
    just test-all
    just test-lifebench
    just lint-rules
    just lint-rules-bad
    just chaos-smoke
    just obs-smoke
    just bench-ring-smoke
    just bench-vos-smoke

# Interleaved lifebench pairs: REV (the parent) against the working
# tree, N pairs of 30 s runs on WORKLOAD, the parent first in odd pairs
# and the change first in even ones; ends with each metric's medians,
# ratio and pairs lower. The body is scripts/lifebench-pairs.sh.
lifebench-pairs rev workload n:
    scripts/lifebench-pairs.sh {{rev}} {{workload}} {{n}}

# CPU µs and parks (voluntary switches) per attempted op for each thread
# role of one lifebench run of BIN, sampled from /proc; see
# scripts/lifebench-roles.sh.
lifebench-roles bin workload seconds="30" seed="1":
    scripts/lifebench-roles.sh {{bin}} {{workload}} {{seconds}} {{seed}}

# Ring microbenchmark, full mode: rewrites BENCH_ring.json in place.
bench-ring:
    cargo run --release -p mvedsua-bench --bin ring_bench

# Quick ring bench gated against the committed baseline (what CI runs).
bench-ring-smoke:
    cargo run --release -p mvedsua-bench --bin ring_bench -- --quick --out /tmp/BENCH_ring.quick.json --check BENCH_ring.json

# Data-plane benchmark, full mode: rewrites BENCH_vos.json in place.
bench-vos:
    cargo run --release -p mvedsua-bench --bin vos_bench

# Quick data-plane bench gated against the committed baseline (what CI
# runs).
bench-vos-smoke:
    cargo run --release -p mvedsua-bench --bin vos_bench -- --quick --out /tmp/BENCH_vos.quick.json --check BENCH_vos.json
