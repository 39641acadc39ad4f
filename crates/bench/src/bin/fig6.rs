//! Regenerates Figure 6: throughput over time while updating Memcached
//! and Redis with MVEDSUA through every stage.
//!
//! The paper runs 6 minutes with the update at t=120 s, promotion at
//! t=180 s, and retirement at t=240 s; this harness scales that schedule
//! (default 36 s total: update at 12 s, promote at 18 s, retire at 24 s;
//! `--secs N` sets the total, keeping the 1/3–1/2–2/3 proportions).
//!
//! ```text
//! cargo run -p mvedsua-bench --bin fig6 --release -- --secs 36
//! ```
//!
//! Expected shape: throughput never reaches zero; it drops to the
//! Mvedsua-2 plateau between the update and retirement, and recovers to
//! the Mvedsua-1 plateau afterwards (the paper notes a slight bump at
//! promotion for Redis).

use std::time::Duration;

use bench_support::{setup, BenchOpts, Server};
use mvedsua::{Mvedsua, MvedsuaConfig, Stage};
use workload::{run_kv, KvConfig, KvFlavor};

fn series_for(server: Server, opts: &BenchOpts) {
    let total = Duration::from_secs_f64(opts.secs.max(6.0));
    let t_update = total.mul_f64(1.0 / 3.0);
    let t_promote = total.mul_f64(0.5);
    let t_retire = total.mul_f64(2.0 / 3.0);

    let s = setup(server, opts);
    let session = Mvedsua::launch_observed(
        s.kernel.clone(),
        s.registry,
        s.initial,
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");

    let package = s.package;
    let (flavor, port) = match server {
        Server::Memcached => (KvFlavor::Memcached, 11211),
        Server::Redis => (KvFlavor::Redis, 6379),
        _ => unreachable!("fig6 covers the kv servers"),
    };
    let mut config = KvConfig::new(port, flavor);
    config.clients = opts.clients;
    config.duration = total;
    config.bucket_ms = (total.as_millis() as u64 / 60).max(100);

    let kernel = s.kernel.clone();
    let session_ref = &session;
    // The workload runs on a scoped thread; the Figure 2 schedule
    // (update -> promote -> retire) executes on this one.
    let report = std::thread::scope(|scope| {
        let driver = scope.spawn(move || run_kv(kernel, &config));
        std::thread::sleep(t_update);
        session_ref
            .update_monitored(package, Duration::from_millis(100))
            .expect("update");
        std::thread::sleep(t_promote.saturating_sub(t_update));
        session_ref.promote().expect("promote");
        session_ref
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(30));
        std::thread::sleep(t_retire.saturating_sub(t_promote));
        session_ref.finalize().expect("finalize");
        driver.join().expect("driver")
    });

    println!(
        "\n# {} — ops/s per {}-ms bucket",
        server.name(),
        report.bucket_ms
    );
    println!(
        "# update at {:.1}s, promote at {:.1}s, retire at {:.1}s",
        t_update.as_secs_f64(),
        t_promote.as_secs_f64(),
        t_retire.as_secs_f64()
    );
    println!("time_s\tops_per_s");
    for (i, ops) in report.series_ops_per_sec().iter().enumerate() {
        println!(
            "{:.2}\t{:.0}",
            (i as f64 * report.bucket_ms as f64) / 1000.0,
            ops
        );
    }
    eprintln!("{}: {}", server.name(), report.summary());
    session.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BenchOpts::from_args(&args);
    if !args.iter().any(|a| a == "--secs") {
        opts.secs = 12.0;
    }
    println!("Figure 6: performance while updating with Mvedsua (all stages)");
    for server in [Server::Memcached, Server::Redis] {
        series_for(server, &opts);
    }
    println!("\n# expected shape: no zero-throughput window; dip to the -2 plateau");
    println!("# between update and retire; recovery to the -1 plateau after retire.");
}
