//! Throughput and latency benchmark for the leader→follower channel,
//! [`ring::Ring`], measured on the workload that matters to Varan's
//! design — a single producer (the leader) streaming records to a
//! single consumer (the follower), each end driven the way `mve`
//! drives it: one `push` per record, drained with
//! `pop_batch(FOLLOWER_BATCH)`.
//!
//! Measures:
//! * streaming throughput (Mops/s),
//! * p50/p99 publish (push) latency in nanoseconds.
//!
//! Emits machine-readable JSON (default `BENCH_ring.json`). CI runs
//! `--quick` and gates on `--check <baseline> --min-ratio 0.8`: the
//! run fails if the ring's throughput regressed more than 20% below
//! the committed baseline.
//!
//! Usage: `ring_bench [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]`

use bench_support::gate::{BenchArgs, Floor};
use mve::FOLLOWER_BATCH;
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

struct ModeParams {
    name: &'static str,
    /// Records streamed per throughput measurement.
    stream_ops: u64,
    /// Push latency samples collected.
    latency_samples: usize,
}

const FULL: ModeParams = ModeParams {
    name: "full",
    stream_ops: 16_000_000,
    latency_samples: 200_000,
};

const QUICK: ModeParams = ModeParams {
    name: "quick",
    stream_ops: 1_600_000,
    latency_samples: 20_000,
};

#[derive(Clone, Copy, Debug, Default)]
struct RingResult {
    stream_mops: f64,
    push_p50_ns: u64,
    push_p99_ns: u64,
}

/// Streams records `0..n` through a fresh ring, publishing each with
/// `push`, and returns the seconds from the first push until the
/// consumer has drained the closed ring.
fn stream(n: u64, mut push: impl FnMut(&Ring<u64>, u64)) -> f64 {
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(CAPACITY));
    let consumer = {
        let r = r.clone();
        thread::spawn(move || while r.pop_batch(FOLLOWER_BATCH).is_ok() {})
    };
    let begin = Instant::now();
    for i in 0..n {
        push(&r, i);
    }
    r.close();
    consumer.join().expect("consumer");
    begin.elapsed().as_secs_f64()
}

fn bench_ring(params: &ModeParams) -> RingResult {
    let n = params.stream_ops;
    let stream_mops = n as f64 / stream(n, |r, i| r.push(i).expect("push")) / 1e6;

    // Publish latency: time each push while a consumer drains
    // concurrently — the leader-visible cost of logging one record,
    // which is what MVEDSUA must keep off the hot path.
    let mut samples = Vec::with_capacity(params.latency_samples);
    stream(params.latency_samples as u64, |r, i| {
        let begin = Instant::now();
        r.push(i).expect("push");
        samples.push(begin.elapsed().as_nanos() as u64);
    });
    samples.sort_unstable();
    RingResult {
        stream_mops,
        push_p50_ns: samples[samples.len() / 2],
        push_p99_ns: samples[samples.len() * 99 / 100],
    }
}

fn emit_json(mode: &str, r: RingResult) -> String {
    let mut ring = JsonObject::new();
    ring.field_f64("stream_mops", r.stream_mops)
        .field_u64("push_p50_ns", r.push_p50_ns)
        .field_u64("push_p99_ns", r.push_p99_ns);
    let mut results = JsonObject::new();
    results.field_raw("lockfree_ring", &ring.finish());
    let mut report = JsonObject::new();
    report
        .field_str("bench", "ring_bench")
        .field_str("mode", mode)
        .field_u64("capacity", CAPACITY as u64)
        .field_u64("batch", FOLLOWER_BATCH as u64)
        .field_raw("results", &results.finish());
    report.finish()
}

fn main() {
    let args = BenchArgs::from_env("ring_bench", "BENCH_ring.json");
    let params = if args.quick { &QUICK } else { &FULL };
    eprintln!(
        "ring_bench: mode={}, capacity={CAPACITY}, batch={FOLLOWER_BATCH}",
        params.name
    );
    let lockfree = bench_ring(params);
    eprintln!(
        "  lockfree_ring: stream {:8.2} Mops/s  push p50 {:5} ns  p99 {:5} ns",
        lockfree.stream_mops, lockfree.push_p50_ns, lockfree.push_p99_ns
    );
    args.write_report(&emit_json(params.name, lockfree));
    args.gate(
        "ring_bench",
        "lockfree_ring",
        &[("stream_mops".into(), lockfree.stream_mops, Floor::Baseline)],
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
                stream_mops: 80.0,
                push_p50_ns: 20,
                push_p99_ns: 90,
            },
        );
        let read = |key| baseline_metric(&json, "lockfree_ring", key);
        assert_eq!(read("stream_mops"), Some(80.0));
        assert_eq!(read("push_p99_ns"), Some(90.0));
        assert_eq!(read("missing"), None);
    }
}
