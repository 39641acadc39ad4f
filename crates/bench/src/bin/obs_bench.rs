//! Overhead measurement for the flight-recorder handle: what a syscall
//! dispatch pays per [`obs::Obs::emit`] with the recorder disabled (the
//! production configuration — must be unmeasurable) and enabled (the
//! harness/debug configuration — a bounded mutex-guarded push).
//!
//! The disabled number is the one that matters for the paper's
//! availability argument: observability must not tax the MVE hot path.
//! The enabled number bounds the cost a chaos run pays for forensics.
//!
//! Usage: `obs_bench [--quick]` — prints ns/op for both paths plus an
//! empty-loop baseline for reference.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use obs::{FlightRecorder, ManualClock, Obs, ObsKind, TimeSource};

fn measure(label: &str, ops: u64, mut f: impl FnMut(u64)) -> f64 {
    let begin = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let ns = begin.elapsed().as_nanos() as f64 / ops as f64;
    println!("{label:<28} {ns:>8.2} ns/op  ({ops} ops)");
    ns
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ops: u64 = if quick { 2_000_000 } else { 50_000_000 };

    let baseline = measure("empty loop", ops, |i| {
        black_box(i);
    });

    let disabled = Obs::disabled();
    let off = measure("emit, recorder off", ops, |i| {
        disabled.emit(black_box(0), || ObsKind::Syscall {
            role: "leader",
            call: format!("never built {i}"),
            ret: "Size(1)".to_string(),
            semantic: true,
            pos: Some(i),
            raw_pos: Some(i),
        });
    });

    // Enabled: a realistic semantic syscall event into a deep lane, with
    // steady-state eviction (the ring is full after `capacity` records).
    let rec = FlightRecorder::new(4096, Arc::new(ManualClock::new()) as Arc<dyn TimeSource>);
    let on_handle = Obs::enabled(rec.clone());
    let on_ops = ops / 10; // recording allocates; keep runtime bounded
    let on = measure("emit, recorder on", on_ops, |i| {
        on_handle.emit(0, || ObsKind::Syscall {
            role: "leader",
            call: format!("write(fd=6, {i} bytes)"),
            ret: "Size(1)".to_string(),
            semantic: true,
            pos: Some(i),
            raw_pos: Some(i),
        });
    });

    println!();
    println!(
        "recorder-off emit overhead vs empty loop: {:.2} ns/op",
        (off - baseline).max(0.0)
    );
    println!("recorder-on record cost: {on:.0} ns/op");
    println!(
        "events recorded: {}, evicted: {}",
        rec.recorded(),
        rec.evicted()
    );
}
