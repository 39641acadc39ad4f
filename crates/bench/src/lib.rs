//! Shared harness behind the table/figure binaries.
//!
//! One *cell* of the paper's Table 2 is a `(server, configuration)`
//! pair: the server runs under one of the eight execution modes and a
//! fixed workload measures throughput. The modes:
//!
//! | mode | paper row | construction |
//! |---|---|---|
//! | [`Mode::Native`] | Native | `DirectOs`, no interposition |
//! | [`Mode::Kitsune`] | Kitsune | in-place DSU driver, update points armed |
//! | [`Mode::Varan1`] | Varan-1 | MVE single-leader interception |
//! | [`Mode::Mvedsua1`] | Mvedsua-1 | full controller, single-leader stage |
//! | [`Mode::Varan2`] | Varan-2 | leader + same-version follower over the ring |
//! | [`Mode::Mvedsua2`] | Mvedsua-2 | controller monitoring the real next-version update |
//! | [`Mode::Muc`] | MUC-like | leader + follower in per-syscall lockstep |
//! | [`Mode::Mx`] | Mx-like | lockstep with double rendezvous |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsu::{DsuApp, DsuControl, StepOutcome, Version, VersionRegistry};
use mve::{EventRing, FollowerConfig, LeaderConfig, LockstepMode, RetiredSignal, VariantOs};
use mvedsua::{Mvedsua, MvedsuaConfig, UpdatePackage};
use servers::{memcached, redis, vsftpd};
use vos::VirtualKernel;
use workload::{run_ftp, run_kv, FtpConfig, KvConfig, KvFlavor, WorkloadReport};

pub mod gate;

/// Which evaluation server/workload a cell uses (Table 2's columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Server {
    Memcached,
    Redis,
    VsftpdSmall,
    VsftpdLarge,
}

impl Server {
    /// All four columns.
    pub const ALL: [Server; 4] = [
        Server::Memcached,
        Server::Redis,
        Server::VsftpdSmall,
        Server::VsftpdLarge,
    ];

    /// Column header.
    pub fn name(self) -> &'static str {
        match self {
            Server::Memcached => "Memcached",
            Server::Redis => "Redis",
            Server::VsftpdSmall => "Vsftpd small",
            Server::VsftpdLarge => "Vsftpd large",
        }
    }
}

/// Execution mode (Table 2's rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Native,
    Kitsune,
    Varan1,
    Mvedsua1,
    Varan2,
    Mvedsua2,
    Muc,
    Mx,
}

impl Mode {
    /// All rows, paper order.
    pub const ALL: [Mode; 8] = [
        Mode::Native,
        Mode::Kitsune,
        Mode::Varan1,
        Mode::Mvedsua1,
        Mode::Varan2,
        Mode::Mvedsua2,
        Mode::Muc,
        Mode::Mx,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Native => "Native",
            Mode::Kitsune => "Kitsune",
            Mode::Varan1 => "Varan-1",
            Mode::Mvedsua1 => "Mvedsua-1",
            Mode::Varan2 => "Varan-2",
            Mode::Mvedsua2 => "Mvedsua-2",
            Mode::Muc => "MUC-like",
            Mode::Mx => "Mx-like",
        }
    }
}

/// Workload knobs shared by all cells.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Measurement window per cell.
    pub secs: f64,
    /// Concurrent clients.
    pub clients: usize,
    /// Size of the "Vsftpd large" file (paper: 10 MB).
    pub large_file_len: usize,
    /// Ring capacity for the paired modes (paper default: 256).
    pub ring_capacity: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            secs: 2.0,
            clients: 2,
            large_file_len: 2 * 1024 * 1024,
            ring_capacity: 256,
        }
    }
}

impl BenchOpts {
    /// Parses `--secs N`, `--clients N`, `--large-mb N` style CLI args.
    pub fn from_args(args: &[String]) -> Self {
        let mut opts = BenchOpts::default();
        let mut i = 0;
        while i < args.len() {
            let take = |i: &mut usize| -> Option<f64> {
                *i += 1;
                args.get(*i).and_then(|s| s.parse().ok())
            };
            match args[i].as_str() {
                "--secs" => {
                    if let Some(v) = take(&mut i) {
                        opts.secs = v;
                    }
                }
                "--clients" => {
                    if let Some(v) = take(&mut i) {
                        opts.clients = v as usize;
                    }
                }
                "--large-mb" => {
                    if let Some(v) = take(&mut i) {
                        opts.large_file_len = (v * 1024.0 * 1024.0) as usize;
                    }
                }
                "--ring" => {
                    if let Some(v) = take(&mut i) {
                        opts.ring_capacity = v as usize;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// Everything needed to boot one server family for a cell.
pub struct ServerSetup {
    pub kernel: Arc<VirtualKernel>,
    pub registry: Arc<VersionRegistry>,
    pub initial: Version,
    /// The "next version" used by Mvedsua-2 monitoring.
    pub package: UpdatePackage,
    pub port: u16,
}

/// Builds the kernel/registry/update for a server column.
pub fn setup(server: Server, opts: &BenchOpts) -> ServerSetup {
    let kernel = VirtualKernel::new();
    match server {
        Server::Memcached => ServerSetup {
            kernel,
            registry: memcached::registry(11211, 4),
            initial: dsu::v("1.2.2"),
            package: memcached::update_package(&dsu::v("1.2.3"), dsu::FaultPlan::none()),
            port: 11211,
        },
        Server::Redis => ServerSetup {
            kernel,
            registry: redis::registry(&redis::RedisOptions::new(6379)),
            initial: dsu::v("2.0.0"),
            package: redis::update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
            port: 6379,
        },
        Server::VsftpdSmall | Server::VsftpdLarge => {
            kernel.fs().write_file("/small.txt", b"12345").expect("fs");
            kernel
                .fs()
                .write_file("/large.bin", &vec![0x5a; opts.large_file_len])
                .expect("fs");
            ServerSetup {
                kernel,
                registry: vsftpd::registry(21),
                initial: dsu::v("2.0.5"),
                package: vsftpd::update_package(&dsu::v("2.0.5"), &dsu::v("2.0.6")),
                port: 21,
            }
        }
    }
}

/// Runs the column's workload against an already-serving kernel.
pub fn drive(server: Server, kernel: Arc<VirtualKernel>, opts: &BenchOpts) -> WorkloadReport {
    let duration = Duration::from_secs_f64(opts.secs);
    match server {
        Server::Memcached => {
            let mut config = KvConfig::new(11211, KvFlavor::Memcached);
            config.clients = opts.clients;
            config.duration = duration;
            run_kv(kernel, &config)
        }
        Server::Redis => {
            let mut config = KvConfig::new(6379, KvFlavor::Redis);
            config.clients = opts.clients;
            config.duration = duration;
            run_kv(kernel, &config)
        }
        Server::VsftpdSmall => {
            let mut config = FtpConfig::new(21, "small.txt", 5);
            config.clients = opts.clients;
            config.duration = duration;
            run_ftp(kernel, &config)
        }
        Server::VsftpdLarge => {
            let mut config = FtpConfig::new(21, "large.bin", opts.large_file_len);
            config.clients = opts.clients.min(2);
            config.duration = duration;
            run_ftp(kernel, &config)
        }
    }
}

/// Steps `app` on a dedicated thread until `stop`, using the given OS.
fn step_loop(
    mut app: Box<dyn DsuApp>,
    mut os: impl vos::Os + 'static,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            while !stop.load(Ordering::Relaxed) {
                if let StepOutcome::Shutdown = app.step(&mut os) {
                    break;
                }
            }
        }));
        if let Err(payload) = run {
            if RetiredSignal::from_payload(&*payload).is_none() {
                eprintln!("bench variant crashed: {}", dsu::panic_message(&*payload));
            }
        }
    })
}

/// Runs one Table 2 cell and returns the workload report.
pub fn run_cell(server: Server, mode: Mode, opts: &BenchOpts) -> WorkloadReport {
    let s = setup(server, opts);
    match mode {
        Mode::Native => {
            let stop = Arc::new(AtomicBool::new(false));
            let app = s.registry.boot(&s.initial).expect("boot");
            let handle = step_loop(app, vos::DirectOs::new(s.kernel.clone()), stop.clone());
            let report = drive(server, s.kernel, opts);
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            report
        }
        Mode::Kitsune => {
            let ctl = Arc::new(DsuControl::new());
            let registry = s.registry.clone();
            let kernel = s.kernel.clone();
            let initial = s.initial.clone();
            let ctl2 = ctl.clone();
            let handle = std::thread::spawn(move || {
                let app = registry.boot(&initial).expect("boot");
                let mut os = vos::DirectOs::new(kernel);
                dsu::serve(app, &mut os, &registry, &ctl2);
            });
            let report = drive(server, s.kernel, opts);
            ctl.request_stop();
            let _ = handle.join();
            report
        }
        Mode::Varan1 => {
            let stop = Arc::new(AtomicBool::new(false));
            let app = s.registry.boot(&s.initial).expect("boot");
            let os = VariantOs::single(0, s.kernel.clone(), None);
            let handle = step_loop(app, os, stop.clone());
            let report = drive(server, s.kernel, opts);
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            report
        }
        Mode::Mvedsua1 => {
            let session = Mvedsua::launch_observed(
                s.kernel.clone(),
                s.registry,
                s.initial,
                MvedsuaConfig {
                    ring_capacity: opts.ring_capacity,
                    ..MvedsuaConfig::default()
                },
                obs::Obs::disabled(),
            )
            .expect("launch");
            let report = drive(server, s.kernel, opts);
            session.shutdown();
            report
        }
        Mode::Varan2 => run_pair(s, server, None, opts),
        Mode::Muc => run_pair(s, server, Some(LockstepMode::Muc), opts),
        Mode::Mx => run_pair(s, server, Some(LockstepMode::Mx), opts),
        Mode::Mvedsua2 => {
            let session = Mvedsua::launch_observed(
                s.kernel.clone(),
                s.registry,
                s.initial,
                MvedsuaConfig {
                    ring_capacity: opts.ring_capacity,
                    ..MvedsuaConfig::default()
                },
                obs::Obs::disabled(),
            )
            .expect("launch");
            session
                .update_monitored(s.package, Duration::from_millis(50))
                .expect("update");
            // Measure while the outdated leader and updated follower
            // both run — the paper's Mvedsua-2 row.
            let report = drive(server, s.kernel, opts);
            session.shutdown();
            report
        }
    }
}

/// A leader plus a same-version follower over the MVE ring (no DSU):
/// the paper's Varan-2 (and, with lockstep, MUC/Mx) configurations.
fn run_pair(
    s: ServerSetup,
    server: Server,
    lockstep: Option<LockstepMode>,
    opts: &BenchOpts,
) -> WorkloadReport {
    let cap = if lockstep.is_some() {
        1
    } else {
        opts.ring_capacity
    };
    let ring: EventRing = Arc::new(ring::Ring::with_capacity(cap));
    let stop = Arc::new(AtomicBool::new(false));

    let leader_app = s.registry.boot(&s.initial).expect("boot");
    let follower_app = s
        .registry
        .resume(&s.initial, leader_app.snapshot())
        .expect("resume same version");

    let mut leader_os = VariantOs::single(0, s.kernel.clone(), None);
    leader_os.attach_follower(LeaderConfig {
        ring: ring.clone(),
        lockstep,
    });
    let follower_os = VariantOs::follower(
        1,
        s.kernel.clone(),
        FollowerConfig {
            ring: ring.clone(),
            rules: Arc::new(dsl::RuleSet::empty()),
            builtins: Arc::new(dsl::Builtins::standard()),
            promote_to: None,
            lag: None,
        },
        None,
    );
    let leader = step_loop(leader_app, leader_os, stop.clone());
    let follower = step_loop(follower_app, follower_os, stop.clone());

    let report = drive(server, s.kernel, opts);

    stop.store(true, Ordering::Relaxed);
    ring.poison();
    let _ = leader.join();
    let _ = follower.join();
    report
}

/// Percentage overhead of `x` relative to `native` throughput.
pub fn overhead_pct(native: f64, x: f64) -> f64 {
    if native <= 0.0 {
        return 0.0;
    }
    (1.0 - x / native) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert_eq!(overhead_pct(100.0, 100.0), 0.0);
        assert!((overhead_pct(100.0, 50.0) - 50.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 10.0), 0.0);
    }

    #[test]
    fn opts_parse() {
        let args: Vec<String> = ["--secs", "0.5", "--clients", "3", "--large-mb", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = BenchOpts::from_args(&args);
        assert_eq!(opts.secs, 0.5);
        assert_eq!(opts.clients, 3);
        assert_eq!(opts.large_file_len, 1024 * 1024);
    }

    /// A smoke run of every mode on the fastest column.
    #[test]
    fn all_modes_produce_throughput() {
        let opts = BenchOpts {
            secs: 0.3,
            clients: 1,
            large_file_len: 64 * 1024,
            ring_capacity: 256,
        };
        for mode in Mode::ALL {
            let report = run_cell(Server::Redis, mode, &opts);
            assert!(report.ops > 10, "{}: {}", mode.name(), report.summary());
        }
    }
}
