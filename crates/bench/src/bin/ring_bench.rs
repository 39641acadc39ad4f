//! Throughput and latency benchmark for the leader→follower channel,
//! [`ring::Ring`], measured on the workload that matters to Varan's
//! design — a single producer (the leader) streaming records to a
//! single consumer (the follower).
//!
//! Measures:
//! * single-record push/pop throughput (Mops/s),
//! * batched throughput (Mops/s) through `push_batch`/`pop_batch`,
//! * p50/p99 publish (push) latency in nanoseconds.
//!
//! Emits machine-readable JSON (default `BENCH_ring.json`). CI runs
//! `--quick` and gates on `--check <baseline> --min-ratio 0.8`: the
//! run fails if the ring's throughput regressed more than 20% below
//! the committed baseline.
//!
//! Usage: `ring_bench [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]`

use ring::Ring;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Channel depth. Sized like the leader→follower replication buffer
/// in the runner (thousands of in-flight records) rather than a toy
/// queue: a deep ring is exactly what lets the leader run ahead of a
/// paused follower during an update, per the paper's availability
/// argument.
const CAPACITY: usize = 16 * 1024;
const BATCH: usize = 64;

struct ModeParams {
    name: &'static str,
    /// Records streamed per throughput measurement.
    single_ops: u64,
    batched_ops: u64,
    /// Push latency samples collected.
    latency_samples: usize,
}

const FULL: ModeParams = ModeParams {
    name: "full",
    single_ops: 4_000_000,
    batched_ops: 16_000_000,
    latency_samples: 200_000,
};

const QUICK: ModeParams = ModeParams {
    name: "quick",
    single_ops: 400_000,
    batched_ops: 1_600_000,
    latency_samples: 20_000,
};

#[derive(Clone, Copy, Debug, Default)]
struct RingResult {
    single_mops: f64,
    batched_mops: f64,
    push_p50_ns: u64,
    push_p99_ns: u64,
}

fn bench_ring(params: &ModeParams) -> RingResult {
    // Single-record throughput.
    let n = params.single_ops;
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(CAPACITY));
    let consumer = {
        let r = r.clone();
        thread::spawn(move || while r.pop(None).is_ok() {})
    };
    let begin = Instant::now();
    for i in 0..n {
        r.push(i).expect("push");
    }
    r.close();
    consumer.join().expect("consumer");
    let single_mops = n as f64 / begin.elapsed().as_secs_f64() / 1e6;

    let batched_mops = bench_batched(params.batched_ops);

    // Publish latency: time each push while a consumer drains
    // concurrently — the leader-visible cost of logging one record,
    // which is what MVEDSUA must keep off the hot path.
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(CAPACITY));
    let consumer = {
        let r = r.clone();
        thread::spawn(move || while r.pop(None).is_ok() {})
    };
    let mut samples = Vec::with_capacity(params.latency_samples);
    for i in 0..params.latency_samples as u64 {
        let begin = Instant::now();
        r.push(i).expect("push");
        samples.push(begin.elapsed().as_nanos() as u64);
    }
    r.close();
    consumer.join().expect("consumer");
    samples.sort_unstable();
    let push_p50_ns = samples[samples.len() / 2];
    let push_p99_ns = samples[samples.len() * 99 / 100];

    RingResult {
        single_mops,
        batched_mops,
        push_p50_ns,
        push_p99_ns,
    }
}

/// Batched workload: `push_batch`/`pop_batch` move `BATCH` records per
/// synchronization round.
fn bench_batched(n: u64) -> f64 {
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(CAPACITY));
    let consumer = {
        let r = r.clone();
        thread::spawn(move || while r.pop_batch(BATCH, None).is_ok() {})
    };
    let begin = Instant::now();
    let mut next = 0u64;
    while next < n {
        let end = (next + BATCH as u64).min(n);
        r.push_batch(next..end).expect("push_batch");
        next = end;
    }
    r.close();
    consumer.join().expect("consumer");
    n as f64 / begin.elapsed().as_secs_f64() / 1e6
}

fn emit_json(mode: &str, r: RingResult) -> String {
    format!(
        "{{\n  \"bench\": \"ring_bench\",\n  \"mode\": \"{mode}\",\n  \"capacity\": {CAPACITY},\n  \"batch\": {BATCH},\n  \"results\": {{\n    \"lockfree_ring\": {{\"single_mops\": {:.3}, \"batched_mops\": {:.3}, \"push_p50_ns\": {}, \"push_p99_ns\": {}}}\n  }}\n}}\n",
        r.single_mops, r.batched_mops, r.push_p50_ns, r.push_p99_ns
    )
}

/// Minimal extraction of `"key": <number>` pairs scoped to the
/// `"lockfree_ring"` object of a previously emitted report — enough to
/// gate CI without a JSON dependency.
fn baseline_metric(json: &str, key: &str) -> Option<f64> {
    let scope = json.split("\"lockfree_ring\"").nth(1)?;
    let scope = &scope[..scope.find('}')?];
    let tail = scope.split(&format!("\"{key}\"")).nth(1)?;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = &FULL;
    let mut out_path = String::from("BENCH_ring.json");
    let mut check_path: Option<String> = None;
    let mut min_ratio = 0.8f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => params = &QUICK,
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            "--check" => check_path = Some(it.next().expect("--check BASELINE").clone()),
            "--min-ratio" => {
                min_ratio = it
                    .next()
                    .expect("--min-ratio R")
                    .parse()
                    .expect("ratio must be a number")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: ring_bench [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "ring_bench: mode={}, capacity={CAPACITY}, batch={BATCH}",
        params.name
    );
    let lockfree = bench_ring(params);
    eprintln!(
        "  lockfree_ring: single {:8.2} Mops/s  batched {:8.2} Mops/s  push p50 {:5} ns  p99 {:5} ns",
        lockfree.single_mops, lockfree.batched_mops, lockfree.push_p50_ns, lockfree.push_p99_ns
    );

    let report = emit_json(params.name, lockfree);
    std::fs::write(&out_path, &report).expect("write report");
    eprintln!("  wrote {out_path}");

    if let Some(path) = check_path {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let mut failed = false;
        for (key, measured) in [
            ("single_mops", lockfree.single_mops),
            ("batched_mops", lockfree.batched_mops),
        ] {
            let base = baseline_metric(&baseline, key)
                .unwrap_or_else(|| panic!("baseline {path} lacks lockfree_ring.{key}"));
            let floor = base * min_ratio;
            let verdict = if measured < floor {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!(
                "  gate {key}: measured {measured:.2} vs baseline {base:.2} (floor {floor:.2}) .. {verdict}"
            );
        }
        if failed {
            eprintln!(
                "ring_bench: throughput regressed >{:.0}% below baseline",
                (1.0 - min_ratio) * 100.0
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_metric_reads_lockfree_scope() {
        let json = emit_json(
            "quick",
            RingResult {
                single_mops: 80.0,
                batched_mops: 400.0,
                push_p50_ns: 20,
                push_p99_ns: 90,
            },
        );
        assert_eq!(baseline_metric(&json, "single_mops"), Some(80.0));
        assert_eq!(baseline_metric(&json, "batched_mops"), Some(400.0));
        assert_eq!(baseline_metric(&json, "missing"), None);
        // The committed baseline the CI gate reads has the same shape.
        let committed = include_str!("../../../../BENCH_ring.json");
        assert!(baseline_metric(committed, "single_mops").is_some());
        assert!(baseline_metric(committed, "batched_mops").is_some());
    }
}
