//! The traced run's rebuilt stages.
//!
//! The controller hides each variant's `Os`, so this run rebuilds the
//! same stages from public parts, as `bench_support::run_pair` does:
//! `boot`, `snapshot`, `transform`, `resume`, then `VariantOs::single`
//! and `VariantOs::follower` with the package's parsed rules. Every
//! `Os` is wrapped in the timing adapter, and one application object
//! moves between them at update points:
//!
//! 1. native window: `DirectOs` (the `vos` numbers);
//! 2. single window: `VariantOs::single` (Mvedsua-1's interception);
//! 3. pair windows, untraced then traced: leader and updated follower
//!    over a 256-slot ring (Mvedsua-2);
//! 4. two drains: the leader logs a fixed number of operations into a
//!    large ring with no follower running, then a follower replays the
//!    backlog alone — once the updated version with the package's
//!    rules, once the same version without rules.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsl::RuleSet;
use dsu::{DsuApp, StepOutcome};
use mve::{EventRing, FollowerConfig, LeaderConfig, RetireReason, RetiredSignal, VariantOs};
use vos::{DirectOs, Os, VirtualKernel};

use crate::lifecycle::totals;
use crate::load::{Inflight, Load, PAUSE, PHASES};
use crate::model::{install_inputs, Spec, Workload};
use crate::trace::{self, ratio, Call, CallStats, ClientOp, ConnMap, Layer, Span, Timed};

const NATIVE: u8 = 0;
const SINGLE: u8 = 1;
const PAIR_PLAIN: u8 = 2;
const PAIR_TRACED: u8 = 3;
const FILL: u8 = 4;
const WARMUP: u8 = 5;

/// The session's default ring size, as in the monitored stage.
const PAIR_RING: usize = 256;
/// Large enough that the leader never stalls while it fills a backlog.
const DRAIN_RING: usize = 1 << 17;
/// Spans written out per thread at exit.
const DUMP_LIMIT: usize = 20_000;

/// What the rebuilt stages measured.
#[derive(Debug, Default)]
pub struct LayerResult {
    pub native_ops: u64,
    pub native: CallStats,
    pub single: CallStats,
    pub leader: CallStats,
    /// The updated follower replaying its backlog.
    pub follower: CallStats,
    pub pair_records: u64,
    pub pair_ops: u64,
    /// Client throughput of the pair windows without and with tracing.
    pub pair_plain_tput: f64,
    pub pair_traced_tput: f64,
    /// Follower nanoseconds per replayed record: updated version with
    /// the package's rules, and same version without rules.
    pub rules_ns_per_record: f64,
    pub plain_ns_per_record: f64,
    pub unattributed_ns: u64,
    pub traced_latency_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans_dropped: u64,
}

/// What a stopped runner hands back: the application, unless it died,
/// and its `Os`.
type Stopped<O> = (Option<Box<dyn DsuApp>>, Timed<O>);

/// A thread stepping one application through one timed `Os`.
struct Runner<O> {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Stopped<O>>,
}

fn spawn<O: Os + 'static>(name: &str, mut app: Box<dyn DsuApp>, mut os: Timed<O>) -> Runner<O> {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let handle = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                os.begin_step();
                match catch_unwind(AssertUnwindSafe(|| app.step(&mut os))) {
                    Ok(outcome) => {
                        os.end_step(outcome == StepOutcome::Idle);
                        if outcome == StepOutcome::Shutdown {
                            break;
                        }
                    }
                    Err(payload) => {
                        // A retired follower unwinds out of its last,
                        // blocked step; that step is not recorded.
                        match RetiredSignal::from_payload(&*payload) {
                            Some(RetiredSignal(RetireReason::Terminated)) => {}
                            Some(RetiredSignal(RetireReason::Diverged(d))) => {
                                eprintln!("variant diverged: {d}")
                            }
                            None => eprintln!("variant crashed: {}", dsu::panic_message(&*payload)),
                        }
                        return (None, os);
                    }
                }
            }
            (Some(app), os)
        })
        .expect("spawn runner thread");
    Runner { stop, handle }
}

impl<O> Runner<O> {
    fn stop(self) -> Stopped<O> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("runner thread panicked")
    }
}

/// Everything the stages share.
struct Bench {
    spec: Spec,
    kernel: Arc<VirtualKernel>,
    conns: Arc<ConnMap>,
    inflight: Inflight,
    load: Load,
    /// Top-level step intervals of the serving thread in traced windows.
    steps: Vec<(u64, u64)>,
    dumps: Vec<(String, Layer, Vec<Span>)>,
    spans_dropped: u64,
}

impl Bench {
    fn timed<O: Os>(&self, os: O, layer: Layer, on: bool) -> Timed<O> {
        let mut t = Timed::new(os, layer, self.conns.clone(), self.inflight.clone());
        t.set_on(on);
        t
    }

    /// Keeps a traced thread's spans: its steps for the unattributed
    /// arithmetic, a prefix for the dump.
    fn keep<O: Os>(&mut self, thread: &str, os: &mut Timed<O>, serving: bool) -> CallStats {
        let (spans, stats, dropped) = os.harvest();
        self.spans_dropped += dropped;
        let mut own = [0u64; Call::COUNT];
        for (span, ns) in spans.iter().zip(trace::self_times(&spans)) {
            own[span.call as usize] += ns;
        }
        let total = own.iter().sum::<u64>().max(1) as f64;
        eprintln!(
            "{thread}: self time share step {:.1}% read {:.1}% write {:.1}% epoll_wait {:.1}% \
             epoll_idle {:.1}% other {:.1}%",
            100.0 * own[0] as f64 / total,
            100.0 * own[1] as f64 / total,
            100.0 * own[2] as f64 / total,
            100.0 * own[3] as f64 / total,
            100.0 * own[4] as f64 / total,
            100.0 * own[5] as f64 / total,
        );
        if serving {
            self.steps.extend(
                spans
                    .iter()
                    .filter(|s| s.call == Call::Step)
                    .map(|s| (s.start, s.end)),
            );
        }
        let layer = os.layer();
        let prefix: Vec<Span> = spans.into_iter().take(DUMP_LIMIT).collect();
        self.dumps.push((thread.to_string(), layer, prefix));
        stats
    }

    /// Runs the clients in `phase` for `dur`, then parks them.
    fn window(&self, phase: u8, dur: Duration, traced: bool) -> f64 {
        self.load.set_traced(traced);
        let t = Instant::now();
        self.load.set_phase(phase);
        std::thread::sleep(dur);
        self.load.pause();
        self.load.set_traced(false);
        t.elapsed().as_secs_f64()
    }

    fn follower_config(&self, ring: &EventRing, rules: Arc<RuleSet>) -> FollowerConfig {
        FollowerConfig {
            ring: ring.clone(),
            rules,
            builtins: self.spec.package.builtins.clone(),
            promote_to: None,
            lag: None,
        }
    }

    /// A leader over `ring`, freshly in single mode.
    fn leader(&self, ring: &EventRing, on: bool) -> Timed<VariantOs> {
        let mut os = VariantOs::single(0, self.kernel.clone(), None);
        os.attach_follower(LeaderConfig {
            ring: ring.clone(),
            lockstep: None,
        });
        self.timed(os, Layer::Leader, on)
    }

    /// Forks `app` at an update point: the follower application, either
    /// the updated version or the same version.
    fn fork(&self, app: &mut Box<dyn DsuApp>, updated: bool) -> Result<Box<dyn DsuApp>, String> {
        // Reset the leader's dispatch memory before the snapshot: a
        // same-version follower resumes without migrating its event
        // loop, so it must start from the same, reset memory.
        if !self.spec.package.skip_ephemeral_reset {
            app.reset_ephemeral();
        }
        let snapshot = app.snapshot();
        let registry = &self.spec.registry;
        if updated {
            let spec = registry
                .update_spec(&self.spec.from, &self.spec.to)
                .map_err(|e| e.to_string())?;
            let state = spec
                .transformer
                .transform(snapshot)
                .map_err(|e| e.to_string())?;
            registry
                .resume(&self.spec.to, state)
                .map_err(|e| e.to_string())
        } else {
            registry
                .resume(&self.spec.from, snapshot)
                .map_err(|e| e.to_string())
        }
    }

    /// Fills a large ring from the leader with `ops` operations per
    /// client, then lets a follower replay the backlog alone. Returns
    /// the follower's nanoseconds per record and its call counters.
    fn drain(
        &mut self,
        mut app: Box<dyn DsuApp>,
        updated: bool,
        ops: i64,
    ) -> Result<(Box<dyn DsuApp>, f64, CallStats), String> {
        let follower_app = self.fork(&mut app, updated)?;
        let rules = if updated {
            Arc::new(parse_rules(&self.spec.package.fwd_rules)?)
        } else {
            Arc::new(RuleSet::empty())
        };
        let ring: EventRing = Arc::new(ring::Ring::with_capacity(DRAIN_RING));
        let leader = spawn("lb-leader", app, self.leader(&ring, false));
        self.load.run_quota(FILL, ops);
        let (app, _) = leader.stop();
        let app = app.ok_or("the leader died while filling the ring")?;
        let records = ring.stats().pushed;
        let config = self.follower_config(&ring, rules);
        let os = self.timed(
            VariantOs::follower(1, self.kernel.clone(), config, None),
            Layer::Follower,
            true,
        );
        let follower = spawn("lb-follower", follower_app, os);
        let deadline = Instant::now() + Duration::from_secs(60);
        while ring.stats().popped < records && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(50));
        }
        // The follower now blocks on the empty ring; retire it.
        std::thread::sleep(Duration::from_millis(5));
        ring.poison();
        let (_, mut os) = follower.stop();
        if ring.stats().popped < records {
            return Err("the follower did not drain its backlog".to_string());
        }
        let steps: Vec<(u64, u64)> = os
            .spans()
            .iter()
            .filter(|s| s.call == Call::Step)
            .map(|s| (s.start, s.end))
            .collect();
        let busy = match (steps.first(), steps.last()) {
            (Some(first), Some(last)) => last.1.saturating_sub(first.0),
            _ => 0,
        };
        let name = if updated {
            "follower-rules"
        } else {
            "follower-plain"
        };
        let stats = self.keep(name, &mut os, false);
        Ok((app, ratio(busy as f64, records as f64), stats))
    }
}

fn parse_rules(src: &str) -> Result<RuleSet, String> {
    if src.trim().is_empty() {
        Ok(RuleSet::empty())
    } else {
        RuleSet::parse(src).map_err(|e| format!("rules: {e}"))
    }
}

/// Per-client operations for each drain's backlog.
fn fill_ops(workload: Workload) -> i64 {
    match workload {
        Workload::FtpLarge => 6,
        _ => 3000,
    }
}

/// Runs the rebuilt stages; `window` is the length of each timed window.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    retr: &Arc<Vec<u8>>,
    dump: &std::path::Path,
) -> Result<LayerResult, String> {
    let spec = Spec::of(workload);
    let kernel = VirtualKernel::new();
    install_inputs(workload, &kernel, seed)?;
    let conns = Arc::new(ConnMap::default());
    let inflight = Inflight::default();
    let app = spec.registry.boot(&spec.from).map_err(|e| e.to_string())?;
    let native_os = Timed::new(
        DirectOs::new(kernel.clone()),
        Layer::Vos,
        conns.clone(),
        inflight.clone(),
    );
    let runner = spawn("lb-native", app, native_os);
    // Connect one at a time so accept order is connection order.
    let sessions = crate::open_sessions(workload, seed, &kernel, spec.port, retr, |c| {
        while conns.count() <= c {
            std::thread::sleep(Duration::from_micros(100));
        }
    })?;
    let load = Load::start(&kernel, spec.port, sessions, PAUSE, inflight.clone());
    load.run_quota(WARMUP, workload.warmup_ops());
    let (app, _) = runner.stop();
    let mut app = app.ok_or("the server died during set-up")?;
    let mut b = Bench {
        spec,
        kernel,
        conns,
        inflight,
        load,
        steps: Vec::new(),
        dumps: Vec::new(),
        spans_dropped: 0,
    };
    let mut out = LayerResult::default();

    // 1. native: the kernel with no interposition.
    let runner = spawn(
        "lb-native",
        app,
        b.timed(DirectOs::new(b.kernel.clone()), Layer::Vos, true),
    );
    b.window(NATIVE, window, true);
    let (a, mut os) = runner.stop();
    app = a.ok_or("the native server died")?;
    out.native = b.keep("native", &mut os, true);

    // 2. single-leader interception.
    let single = VariantOs::single(0, b.kernel.clone(), None);
    let runner = spawn("lb-single", app, b.timed(single, Layer::Single, true));
    b.window(SINGLE, window, true);
    let (a, mut os) = runner.stop();
    app = a.ok_or("the single leader died")?;
    out.single = b.keep("single", &mut os, true);

    // 3. leader + updated follower over the session's ring size.
    let mut follower_app = b.fork(&mut app, true)?;
    let ring: EventRing = Arc::new(ring::Ring::with_capacity(PAIR_RING));
    let rules = Arc::new(parse_rules(&b.spec.package.fwd_rules)?);
    let mut leader_os = b.leader(&ring, false);
    let mut follower_os = b.timed(
        VariantOs::follower(1, b.kernel.clone(), b.follower_config(&ring, rules), None),
        Layer::Follower,
        false,
    );
    let mut secs = [0.0; PHASES];
    for (phase, traced) in [(PAIR_PLAIN, false), (PAIR_TRACED, true)] {
        leader_os.set_on(traced);
        follower_os.set_on(traced);
        let pushed = ring.stats().pushed;
        let leader = spawn("lb-leader", app, leader_os);
        let follower = spawn("lb-follower", follower_app, follower_os);
        secs[phase as usize] = b.window(phase, window, traced);
        // The follower finishes its step on the leader's next idle
        // record; stop it first, while the leader still runs.
        let (f, fos) = follower.stop();
        let (a, los) = leader.stop();
        follower_app = f.ok_or("the follower died in the pair window")?;
        app = a.ok_or("the leader died in the pair window")?;
        (leader_os, follower_os) = (los, fos);
        if traced {
            out.pair_records = ring.stats().pushed - pushed;
            out.leader = b.keep("leader", &mut leader_os, true);
            b.keep("follower", &mut follower_os, false);
        }
    }
    ring.poison();
    drop((follower_app, leader_os, follower_os));

    // 4. backlog replay with and without the package's rules.
    let ops = fill_ops(workload);
    let (a, rules_ns, follower) = b.drain(app, true, ops)?;
    let (_app, plain_ns, _) = b.drain(a, false, ops)?;
    out.follower = follower;
    out.rules_ns_per_record = rules_ns;
    out.plain_ns_per_record = plain_ns;

    let recs = b.load.stop();
    let ops = |phase: u8| -> u64 { recs.iter().map(|r| r.ok[phase as usize]).sum() };
    out.native_ops = ops(NATIVE);
    out.pair_ops = ops(PAIR_TRACED);
    out.pair_plain_tput = ratio(ops(PAIR_PLAIN) as f64, secs[PAIR_PLAIN as usize]);
    out.pair_traced_tput = ratio(ops(PAIR_TRACED) as f64, secs[PAIR_TRACED as usize]);
    let (attempted, failed) = totals(&recs);
    out.attempted = attempted;
    out.failed = failed;
    b.steps.sort_unstable();
    for op in recs.iter().flat_map(|r| r.ops.iter()) {
        let op = ClientOp {
            start: op.start,
            wait_start: op.wait_start,
            wait_end: op.wait_end,
            end: op.end,
        };
        out.unattributed_ns += trace::unattributed(&op, &b.steps);
        out.traced_latency_ns += op.end - op.start;
    }
    out.spans_dropped = b.spans_dropped;
    if let Err(e) = trace::dump(dump, &b.dumps, DUMP_LIMIT) {
        eprintln!("could not write spans to {}: {e}", dump.display());
    }
    Ok(out)
}
