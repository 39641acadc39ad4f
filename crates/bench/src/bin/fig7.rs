//! Regenerates Figure 7: the update pause with a large program state,
//! as a function of the ring-buffer size.
//!
//! The paper pre-populates Redis with 1 M entries (~250 MB) and updates
//! 2.0.0 → 2.0.1, comparing Kitsune's in-place pause against MVEDSUA
//! with ring capacities 2^10, 2^20 and 2^24 — plus an immediate-promote
//! variant. The reported metric is the maximum client latency.
//!
//! ```text
//! cargo run -p mvedsua-bench --bin fig7 --release -- --secs 6 --entries 200000
//! ```
//!
//! Expected shape: Kitsune's pause ≈ the full state-transformation
//! time; MVEDSUA's pause shrinks as the ring grows (a small ring blocks
//! the leader once full); the largest ring masks the pause down to
//! roughly the fork (snapshot) cost; immediate promotion pays the
//! drain-while-paused cost the outdated-leader stage avoids.

use std::sync::Arc;
use std::time::Duration;

use bench_support::BenchOpts;
use dsu::{DsuControl, UpdateRequest};
use mvedsua::{Mvedsua, MvedsuaConfig, Stage};
use servers::redis::{registry, update_package, RedisOptions};
use vos::VirtualKernel;
use workload::{run_kv, KvConfig, KvFlavor, WorkloadReport};

const PORT: u16 = 6379;

fn parse_entries(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--entries")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(400_000)
}

/// Pre-load the store through the protocol? Far too slow — seed the
/// state by driving the server natively before measurement instead.
fn preload(kernel: &Arc<VirtualKernel>, entries: usize) {
    let mut config = KvConfig::new(PORT, KvFlavor::Redis);
    config.clients = 4;
    config.read_ratio = 0.0;
    config.keyspace = entries as u64;
    config.value_len = 64;
    // Writes are uniform over the keyspace: ~63% coverage per pass; a
    // few passes fill most of it, which is enough mass for the
    // transformer cost to show.
    config.duration = Duration::from_millis((entries as u64 / 40).clamp(500, 15_000));
    let report = run_kv(kernel.clone(), &config);
    eprintln!("  preload: {}", report.summary());
}

fn workload(kernel: Arc<VirtualKernel>, secs: f64, entries: usize) -> WorkloadReport {
    let mut config = KvConfig::new(PORT, KvFlavor::Redis);
    config.clients = 2;
    config.keyspace = entries as u64;
    config.duration = Duration::from_secs_f64(secs);
    run_kv(kernel, &config)
}

fn measure_kitsune(secs: f64, entries: usize) -> (WorkloadReport, Option<u64>) {
    let options = RedisOptions::new(PORT);
    let registry = registry(&options);
    let kernel = VirtualKernel::new();
    let ctl = Arc::new(DsuControl::new());
    let server = {
        let registry = registry.clone();
        let kernel = kernel.clone();
        let ctl = ctl.clone();
        std::thread::spawn(move || {
            let app = registry.boot(&dsu::v("2.0.0")).expect("boot");
            let mut os = vos::DirectOs::new(kernel);
            dsu::serve(app, &mut os, &registry, &ctl);
        })
    };
    preload(&kernel, entries);
    let driver = {
        let kernel = kernel.clone();
        std::thread::spawn(move || workload(kernel, secs, entries))
    };
    std::thread::sleep(Duration::from_secs_f64(secs / 3.0));
    ctl.request_update(UpdateRequest::new("2.0.1"))
        .expect("queue");
    let report = driver.join().expect("driver");
    ctl.request_stop();
    let _ = server.join();
    (report, ctl.last_pause_nanos())
}

fn measure_mvedsua(
    secs: f64,
    entries: usize,
    ring_capacity: usize,
    immediate_promote: bool,
) -> (WorkloadReport, Option<(u64, u64)>) {
    let options = RedisOptions::new(PORT);
    let kernel = VirtualKernel::new();
    let session = Mvedsua::launch_observed(
        kernel.clone(),
        registry(&options),
        dsu::v("2.0.0"),
        MvedsuaConfig {
            ring_capacity,
            monitor_after_promote: false,
            ..MvedsuaConfig::default()
        },
        obs::Obs::disabled(),
    )
    .expect("launch");
    preload(&kernel, entries);
    let driver = {
        let kernel = kernel.clone();
        std::thread::spawn(move || workload(kernel, secs, entries))
    };
    std::thread::sleep(Duration::from_secs_f64(secs / 3.0));
    session
        .update_monitored(
            update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
            Duration::from_millis(1),
        )
        .expect("update");
    // Wait for the follower to finish transforming (t2)...
    session.timeline().wait_for(Duration::from_secs(120), |es| {
        es.iter()
            .any(|e| matches!(e.event, mvedsua::TimelineEvent::UpdateCompleted { .. }))
    });
    if !immediate_promote {
        // ...and for the catch-up to drain the backlog (t3): promoting
        // while records remain pauses service for the drain, which is
        // precisely what the paper's outdated-leader stage avoids.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while std::time::Instant::now() < deadline {
            let drained = session
                .update_ring_stats()
                .map(|s| s.pushed - s.popped < 64)
                .unwrap_or(true);
            if drained {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    session.promote().expect("promote");
    session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(120));
    let report = driver.join().expect("driver");
    let entries_tl = session.timeline().entries();
    let mut fork = None;
    let mut xform = None;
    for e in &entries_tl {
        match e.event {
            mvedsua::TimelineEvent::Forked { snapshot_nanos } => fork = Some(snapshot_nanos),
            mvedsua::TimelineEvent::UpdateCompleted { xform_nanos } => xform = Some(xform_nanos),
            _ => {}
        }
    }
    session.shutdown();
    (report, fork.zip(xform))
}

/// The §2.2 baseline MVEDSUA is motivated against: stop the server,
/// checkpoint the heap, restart the new version from the checkpoint.
/// Returns the workload report and the measured service gap.
fn measure_restart(secs: f64, entries: usize) -> (WorkloadReport, Duration) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let options = RedisOptions::new(PORT);
    let registry = registry(&options);
    let kernel = VirtualKernel::new();

    let serve = |app: Box<dyn dsu::DsuApp>, stop: Arc<AtomicBool>, kernel: Arc<VirtualKernel>| {
        std::thread::spawn(move || {
            let mut app = app;
            let mut os = vos::DirectOs::new(kernel);
            while !stop.load(Ordering::Relaxed) {
                if let dsu::StepOutcome::Shutdown = app.step(&mut os) {
                    break;
                }
            }
            app
        })
    };

    let stop_v1 = Arc::new(AtomicBool::new(false));
    let v1 = serve(
        registry.boot(&dsu::v("2.0.0")).expect("boot"),
        stop_v1.clone(),
        kernel.clone(),
    );
    preload(&kernel, entries);
    let driver = {
        let kernel = kernel.clone();
        std::thread::spawn(move || workload(kernel, secs, entries))
    };
    std::thread::sleep(Duration::from_secs_f64(secs / 3.0));

    // --- the upgrade: stop, checkpoint, restore, restart -------------
    let gap_begin = std::time::Instant::now();
    stop_v1.store(true, Ordering::Relaxed);
    let old_app = v1.join().expect("old server");
    let old_state: servers::redis::RedisState =
        old_app.into_state().downcast().expect("redis state");
    // Close the listener (so the port can be re-bound) and every client
    // connection — the disruption rolling upgrades dodge by having other
    // replicas, which a stateful single node lacks.
    for fd in old_state.net.fds() {
        let _ = kernel.close(fd);
    }
    let bytes = servers::redis::checkpoint::checkpoint(&old_state.store);
    drop(old_state);
    let restored = servers::redis::checkpoint::restore(&bytes).expect("restore");
    let new_state = servers::redis::RedisState {
        net: servers::NetCore::new(PORT),
        store: restored,
        ops_seen: 0,
        last_stat_nanos: 0,
    };
    // NetCore re-binds the (now released) port lazily on the new app's
    // first step.
    let new_app = Box::new(servers::redis::RedisApp::from_state(
        dsu::v("2.0.1"),
        &options,
        new_state,
    ));
    let stop_v2 = Arc::new(AtomicBool::new(false));
    let v2 = serve(new_app, stop_v2.clone(), kernel.clone());
    let gap = gap_begin.elapsed();

    let report = driver.join().expect("driver");
    stop_v2.store(true, Ordering::Relaxed);
    let _ = v2.join();
    (report, gap)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BenchOpts::from_args(&args);
    if !args.iter().any(|a| a == "--secs") {
        opts.secs = 6.0;
    }
    let entries = parse_entries(&args);
    println!("Figure 7: updating Redis with a large state ({entries} entries seeded)");
    println!(
        "{:<22} {:>14} {:>16} {:>14}",
        "configuration", "max lat (ms)", "update work (ms)", "ops/s"
    );

    // Native: no update at all, the latency floor.
    {
        let options = RedisOptions::new(PORT);
        let registry = registry(&options);
        let kernel = VirtualKernel::new();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let server = {
            let registry = registry.clone();
            let kernel = kernel.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut app = registry.boot(&dsu::v("2.0.0")).expect("boot");
                let mut os = vos::DirectOs::new(kernel);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let dsu::StepOutcome::Shutdown = app.step(&mut os) {
                        break;
                    }
                }
            })
        };
        preload(&kernel, entries);
        let report = workload(kernel, opts.secs, entries);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = server.join();
        println!(
            "{:<22} {:>14.1} {:>16} {:>14.0}",
            "Native (no update)",
            report.max_latency.as_secs_f64() * 1e3,
            "-",
            report.throughput()
        );
    }

    // Kitsune: in-place update pause.
    let (report, pause) = measure_kitsune(opts.secs, entries);
    println!(
        "{:<22} {:>14.1} {:>16.1} {:>14.0}",
        "Kitsune (in place)",
        report.max_latency.as_secs_f64() * 1e3,
        pause.map(|n| n as f64 / 1e6).unwrap_or(f64::NAN),
        report.throughput()
    );

    // MVEDSUA with the paper's three ring sizes.
    for (label, cap) in [
        ("Mvedsua 2^10", 1 << 10),
        ("Mvedsua 2^20", 1 << 20),
        ("Mvedsua 2^24", 1 << 24),
    ] {
        let (report, work) = measure_mvedsua(opts.secs, entries, cap, false);
        let work_ms = work
            .map(|(fork, xform)| (fork + xform) as f64 / 1e6)
            .unwrap_or(f64::NAN);
        println!(
            "{:<22} {:>14.1} {:>16.1} {:>14.0}",
            label,
            report.max_latency.as_secs_f64() * 1e3,
            work_ms,
            report.throughput()
        );
    }

    // Immediate promotion (no outdated-leader draining, paper §6.1).
    let (report, _) = measure_mvedsua(opts.secs, entries, 1 << 24, true);
    println!(
        "{:<22} {:>14.1} {:>16} {:>14.0}",
        "Mvedsua imm-promote",
        report.max_latency.as_secs_f64() * 1e3,
        "-",
        report.throughput()
    );

    // Stop-restart with checkpoint/restore: the §2.2 baseline. All
    // connections drop; the service gap plus client reconnects is the
    // disruption DSU exists to avoid.
    let (report, gap) = measure_restart(opts.secs, entries);
    println!(
        "{:<22} {:>14.1} {:>16.1} {:>14.0}  ({} reconnects)",
        "Stop-restart (ckpt)",
        report.max_latency.as_secs_f64() * 1e3,
        gap.as_secs_f64() * 1e3,
        report.throughput(),
        report.errors
    );

    println!();
    println!("paper (Fig 7): native 100ms; Kitsune 5040ms; Mvedsua 2^10 7130ms,");
    println!("               2^20 5330ms, 2^24 117ms; immediate promote 3000ms");
    println!("expected shape: pause shrinks as the ring grows; the largest ring");
    println!("masks the update down to ~the fork cost.");
}
