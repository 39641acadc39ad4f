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

use bench_support::gate::{BenchArgs, Floor};
use obs::json::JsonObject;
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
    let mut ring = JsonObject::new();
    ring.field_f64("single_mops", r.single_mops)
        .field_f64("batched_mops", r.batched_mops)
        .field_u64("push_p50_ns", r.push_p50_ns)
        .field_u64("push_p99_ns", r.push_p99_ns);
    let mut results = JsonObject::new();
    results.field_raw("lockfree_ring", &ring.finish());
    let mut report = JsonObject::new();
    report
        .field_str("bench", "ring_bench")
        .field_str("mode", mode)
        .field_u64("capacity", CAPACITY as u64)
        .field_u64("batch", BATCH as u64)
        .field_raw("results", &results.finish());
    report.finish()
}

fn main() {
    let args = BenchArgs::from_env("ring_bench", "BENCH_ring.json");
    let params = if args.quick { &QUICK } else { &FULL };
    eprintln!(
        "ring_bench: mode={}, capacity={CAPACITY}, batch={BATCH}",
        params.name
    );
    let lockfree = bench_ring(params);
    eprintln!(
        "  lockfree_ring: single {:8.2} Mops/s  batched {:8.2} Mops/s  push p50 {:5} ns  p99 {:5} ns",
        lockfree.single_mops, lockfree.batched_mops, lockfree.push_p50_ns, lockfree.push_p99_ns
    );
    args.write_report(&emit_json(params.name, lockfree));
    args.gate(
        "ring_bench",
        "lockfree_ring",
        &[
            ("single_mops".into(), lockfree.single_mops, Floor::Baseline),
            (
                "batched_mops".into(),
                lockfree.batched_mops,
                Floor::Baseline,
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_support::gate::baseline_metric;

    #[test]
    fn report_reads_back_through_the_baseline_reader() {
        let json = emit_json(
            "quick",
            RingResult {
                single_mops: 80.0,
                batched_mops: 400.0,
                push_p50_ns: 20,
                push_p99_ns: 90,
            },
        );
        let read = |key| baseline_metric(&json, "lockfree_ring", key);
        assert_eq!(read("single_mops"), Some(80.0));
        assert_eq!(read("batched_mops"), Some(400.0));
        assert_eq!(read("push_p99_ns"), Some(90.0));
        assert_eq!(read("missing"), None);
    }
}
