//! Update-lifecycle benchmark for the MVEDSUA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path lifebench/Cargo.toml -- \
//!     --workload redis-kv --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the session's lifecycle with tracing off and reports
//! the end-to-end metrics; `--trace 1` runs it with the flight recorder
//! on, then rebuilds its stages with timing adapters and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object; the lines before it are a table of every metric with its
//! unit and sample count. See `README.md` beside this file.

mod layers;
mod lifecycle;
mod load;
mod model;
mod rss;
mod stats;
mod trace;

use std::sync::Arc;
use std::time::{Duration, Instant};

use vos::VirtualKernel;

use lifecycle::{median_of, LifeOpts};
use load::{Conn, Model};
use model::{Workload, CONNS};
use stats::{metric, Metric};

/// Set-ups timed per end-to-end run; `setup_s` is the median of their
/// CPU times.
const SETUPS: usize = 5;
/// Longest window of the rebuilt stages: enough calls for stable means,
/// few enough spans to keep in memory.
const LAYER_WINDOW: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: lifebench --workload <redis-kv|memcached-kv|ftp-large> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Opens every client session one connection at a time, calling
/// `connected(c)` after connection `c`, then preloads the keyspace over
/// all of them in parallel.
pub fn open_sessions(
    workload: Workload,
    seed: u64,
    kernel: &Arc<VirtualKernel>,
    port: u16,
    retr: &Arc<Vec<u8>>,
    connected: impl Fn(usize),
) -> Result<Vec<(Model, Conn)>, String> {
    let mut sessions = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let model = Model::new(workload, c, seed, retr);
        let conn = model.open(kernel, port)?;
        connected(c);
        sessions.push((model, conn));
    }
    std::thread::scope(|s| {
        let loads: Vec<_> = sessions
            .iter()
            .map(|(model, conn)| s.spawn(move || model.preload(conn)))
            .collect();
        loads
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect::<Result<Vec<()>, String>>()
    })?;
    Ok(sessions)
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Further metrics shown only in the table.
    table_only: Vec<Metric>,
}

fn end_to_end(args: &Args, started: Instant, retr: &Arc<Vec<u8>>) -> Result<Outcome, String> {
    let r = lifecycle::run(
        &LifeOpts {
            workload: args.workload,
            seed: args.seed,
            window: Duration::from_secs_f64(args.seconds / 2.0),
            observed: false,
            setups: SETUPS,
        },
        started,
        retr,
    )?;
    for u in &r.updates {
        eprintln!(
            "update: pause {:.2} ms = request->fork {:.2} + snapshot {:.2} + ring stall {:.2}? \
             (transform {:.2}, catch-up {:.2})",
            u.pause_ms, u.request_to_fork_ms, u.snapshot_ms, u.stall_ms, u.xform_ms, u.catchup_ms
        );
    }
    eprintln!(
        "promote {:.2} ms, finalize {:.2} ms, shutdown {:.2} ms",
        r.promote_ms, r.finalize_ms, r.shutdown_ms
    );
    let fail_frac = r.failed as f64 / r.attempted.max(1) as f64;
    let metrics = vec![
        metric(
            "setup_s",
            stats::median(&r.setup_s),
            "s",
            r.setup_s.len() as u64,
        ),
        metric("cpu_us_per_op_single", r.single.cpu_us, "us", r.single.ops),
        metric(
            "cpu_us_per_op_monitored",
            r.monitored.cpu_us,
            "us",
            r.monitored.ops,
        ),
        metric("ok_frac", 1.0 - fail_frac, "ratio", r.attempted),
    ];
    // Wall-clock figures rest on how fast a shared machine wakes the
    // client and server threads (set-up too: the warm-up is thousands of
    // round trips), and the resident set on which malloc arenas the
    // threads happen to pick, so these go in the table only.
    let table_only = vec![
        metric(
            "setup_wall_s",
            stats::median(&r.setup_wall_s),
            "s",
            r.setup_wall_s.len() as u64,
        ),
        metric("tput_single_ops", r.single.tput, "ops/s", r.single.ops),
        metric("p50_single_us", r.single.p50_us, "us", r.single.n),
        metric("p99_single_us", r.single.p99_us, "us", r.single.n),
        metric(
            "tput_monitored_ops",
            r.monitored.tput,
            "ops/s",
            r.monitored.ops,
        ),
        metric("p50_monitored_us", r.monitored.p50_us, "us", r.monitored.n),
        metric("p99_monitored_us", r.monitored.p99_us, "us", r.monitored.n),
        metric(
            "pause_ms",
            median_of(&r.updates, |u| u.pause_ms),
            "ms",
            r.pause_ops,
        ),
        metric("fail_frac", fail_frac, "ratio", r.attempted),
        metric("rss_peak_mb", r.rss_mb, "MiB", 1),
    ];
    Ok(Outcome {
        correct: r.failed == 0 && r.attempted > 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        table_only,
    })
}

fn per_layer(args: &Args, started: Instant, retr: &Arc<Vec<u8>>) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(args.seconds / 4.0);
    let life = lifecycle::run(
        &LifeOpts {
            workload: args.workload,
            seed: args.seed,
            window,
            observed: true,
            setups: 1,
        },
        started,
        retr,
    )?;
    let dump = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
    let l = layers::run(
        args.workload,
        args.seed,
        Duration::from_secs_f64(args.seconds / 8.0).min(LAYER_WINDOW),
        retr,
        &dump,
    )?;
    use trace::{ratio, Call};
    let ops = l.native_ops as f64;
    let up = &life.updates;
    let (slice_start, ring) = &life.ring_last_slice;
    let lag_n = life.lag_samples.len() as u64;
    let lag_mean = ratio(life.lag_samples.iter().sum::<u64>() as f64, lag_n as f64);
    let n_native = l.native_ops;
    let metrics = vec![
        metric(
            "vos.calls_per_op",
            ratio(l.native.syscalls() as f64, ops),
            "count",
            n_native,
        ),
        metric(
            "vos.bytes_per_op",
            ratio(l.native.bytes as f64, ops),
            "B",
            n_native,
        ),
        metric(
            "vos.read_ns",
            l.native.mean_ns(Call::Read),
            "ns",
            l.native.calls(Call::Read),
        ),
        metric(
            "vos.write_ns",
            l.native.mean_ns(Call::Write),
            "ns",
            l.native.calls(Call::Write),
        ),
        metric(
            "vos.epoll_wait_ns",
            l.native.mean_ns(Call::EpollWait),
            "ns",
            l.native.calls(Call::EpollWait),
        ),
        metric(
            "vos.epoll_idle_ns",
            l.native.mean_ns(Call::EpollIdle),
            "ns",
            l.native.calls(Call::EpollIdle),
        ),
        metric(
            "app.self_ns_per_op",
            ratio(l.native.app_self_ns() as f64, ops),
            "ns",
            n_native,
        ),
        metric(
            "app.idle_steps_per_op",
            ratio(l.native.idle_steps as f64, ops),
            "count",
            n_native,
        ),
        metric(
            "mve.single.call_ns",
            l.single.work_call_ns(),
            "ns",
            l.single.syscalls(),
        ),
        metric(
            "mve.single.overhead_ns",
            l.single.work_call_ns() - l.native.work_call_ns(),
            "ns",
            l.single.syscalls(),
        ),
        metric(
            "mve.leader.call_ns",
            l.leader.work_call_ns(),
            "ns",
            l.leader.syscalls(),
        ),
        metric(
            "mve.follower.call_ns",
            l.follower.work_call_ns(),
            "ns",
            l.follower.syscalls(),
        ),
        metric(
            "mve.records_per_op",
            ratio(l.pair_records as f64, l.pair_ops as f64),
            "count",
            l.pair_ops,
        ),
        metric("ring.pushed", ring.pushed as f64, "count", 1),
        metric("ring.popped", ring.popped as f64, "count", 1),
        metric(
            "ring.stalls_per_kop",
            ratio(
                (ring.producer_stalls - slice_start.producer_stalls) as f64 * 1e3,
                life.last_monitored_ops as f64,
            ),
            "count",
            life.last_monitored_ops,
        ),
        metric(
            "ring.stall_ms",
            median_of(up, |u| u.stall_ms),
            "ms",
            up.len() as u64,
        ),
        metric("ring.high_water", ring.high_water as f64, "count", 1),
        metric("ring.lag_mean", lag_mean, "count", lag_n),
        metric("dsl.rule_matches", life.rule_matches as f64, "count", 1),
        metric(
            "dsl.rule_path_ns_per_record",
            l.rules_ns_per_record - l.plain_ns_per_record,
            "ns",
            l.follower.syscalls(),
        ),
        metric(
            "dsu.snapshot_ms",
            median_of(up, |u| u.snapshot_ms),
            "ms",
            up.len() as u64,
        ),
        metric(
            "dsu.xform_ms",
            median_of(up, |u| u.xform_ms),
            "ms",
            up.len() as u64,
        ),
        metric(
            "core.request_to_fork_ms",
            median_of(up, |u| u.request_to_fork_ms),
            "ms",
            up.len() as u64,
        ),
        metric(
            "core.catchup_ms",
            median_of(up, |u| u.catchup_ms),
            "ms",
            up.len() as u64,
        ),
        metric("core.promote_ms", life.promote_ms, "ms", 1),
        metric("core.finalize_ms", life.finalize_ms, "ms", 1),
        metric(
            "core.pause_ms",
            median_of(up, |u| u.pause_ms),
            "ms",
            life.pause_ops,
        ),
        metric(
            "obs.events_recorded",
            life.events_recorded as f64,
            "count",
            1,
        ),
        metric("obs.events_evicted", life.events_evicted as f64, "count", 1),
        metric(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(l.pair_traced_tput, l.pair_plain_tput)),
            "%",
            l.pair_ops,
        ),
        metric(
            "trace.unattributed_frac",
            ratio(l.unattributed_ns as f64, l.traced_latency_ns as f64),
            "ratio",
            l.traced_latency_ns.min(1),
        ),
    ];
    eprintln!(
        "follower ns/record: rules {:.1}, plain {:.1}; spans dropped {}; spans in {}",
        l.rules_ns_per_record,
        l.plain_ns_per_record,
        l.spans_dropped,
        dump.display()
    );
    let attempted = life.attempted + l.attempted;
    let failed = life.failed + l.failed;
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        table_only: Vec::new(),
    })
}

fn main() {
    let started = trace::start_clock();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lifebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let retr = Arc::new(if args.workload == Workload::FtpLarge {
        model::retr_reply(args.seed)
    } else {
        Vec::new()
    });
    let outcome = if args.trace {
        per_layer(&args, started, &retr)
    } else {
        end_to_end(&args, started, &retr)
    };
    match outcome {
        Ok(o) => {
            let shown: Vec<Metric> = o.metrics.iter().chain(&o.table_only).cloned().collect();
            print!("{}", stats::table(args.workload.name(), &shown));
            println!(
                "attempted={} failed={} correct={}",
                o.attempted, o.failed, o.correct
            );
            println!(
                "{}",
                stats::result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
        }
        Err(e) => {
            eprintln!("lifebench: {e}");
            std::process::exit(1);
        }
    }
}
