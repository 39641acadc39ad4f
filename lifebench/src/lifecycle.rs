//! The end-to-end run: one MVEDSUA session taken through its update
//! lifecycle under checked client load.
//!
//! set-up (boot, preload, warm-up) -> `CYCLES` cycles of: a slice of the
//! single window (Mvedsua-1); `request_update` and wait for the
//! transformed follower to catch up (repeated, with rollbacks, for more
//! pause samples); a slice of the monitored window (Mvedsua-2); rollback
//! -> in the last cycle `promote`, `finalize` and shutdown instead.
//!
//! Interleaving spreads every metric's samples over the whole run, so a
//! slow stretch of a shared machine moves each of them a little instead
//! of moving one of them a lot; each metric is the median over its
//! slices or updates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEntry, TimelineEvent};
use obs::{FlightRecorder, Obs, TimeSource};
use ring::RingStats;
use vos::VirtualKernel;

use crate::load::{ClientRec, Inflight, Load, PAUSE};
use crate::model::{install_inputs, Spec, Workload, CONNS};
use crate::rss;
use crate::stats::{median, Latency};

/// Cycles per run; each window is cut into this many slices.
pub const CYCLES: usize = 10;

/// Client phases are numbered in time order: the warm-up, then per
/// cycle a single slice, an update phase and a gap per update (a
/// rollback gap, or for the last update the settling time), the
/// monitored slice, and a closing gap.
pub const WARMUP: u8 = 0;

/// Phases one cycle spans with `updates` updates.
fn cycle_stride(updates: usize) -> usize {
    2 * updates + 3
}

/// Traffic kept running on the new version after `finalize`, so a
/// state transformation that lost or altered data fails the check.
const TAIL_TIME: Duration = Duration::from_millis(200);
/// Pause after a rolled-back follower exited, so the leader sees the
/// poisoned ring and reverts to single mode before the next request.
const GAP_TIME: Duration = Duration::from_millis(20);
/// Time between catch-up and the monitored slice of a cycle.
const SETTLE_TIME: Duration = Duration::from_millis(300);
/// Ring lag (records) at which the follower counts as caught up.
const CAUGHT_UP: u64 = 32;
/// Bound on every wait for the session.
const WAIT: Duration = Duration::from_secs(60);
/// Flight-recorder capacity per class and lane in the observed run.
const RECORDER_CAPACITY: usize = 1 << 14;

/// How to run the lifecycle.
#[derive(Clone, Debug)]
pub struct LifeOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of each of the two measured windows.
    pub window: Duration,
    /// Launch with a flight recorder and sample the ring lag.
    pub observed: bool,
    /// Set-ups to time; all but the last are torn down again.
    pub setups: usize,
}

/// A measured window: medians over its slices, with the total counts
/// they rest on.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub tput: f64,
    /// Latency samples over all slices.
    pub n: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Process CPU time per verified operation, in microseconds.
    pub cpu_us: f64,
}

/// One update, from `request_update` to catch-up; times in ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateSample {
    /// Largest latency of an operation in flight during the update.
    pub pause_ms: f64,
    /// `request_update` to the `Forked` entry, minus the snapshot.
    pub request_to_fork_ms: f64,
    pub snapshot_ms: f64,
    pub xform_ms: f64,
    /// `UpdateCompleted` to the ring lag falling to `CAUGHT_UP`.
    pub catchup_ms: f64,
    /// Time the leader spent blocked on the full ring.
    pub stall_ms: f64,
}

/// Everything the end-to-end run measured.
#[derive(Debug)]
pub struct LifeResult {
    /// Process CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall-clock seconds of each set-up.
    pub setup_wall_s: Vec<f64>,
    /// Typical peak resident set of the run's most memory-hungry
    /// section kind, in MiB (see `rss`).
    pub rss_mb: f64,
    pub single: Window,
    pub monitored: Window,
    pub updates: Vec<UpdateSample>,
    /// Operations started while an update was in flight.
    pub pause_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub promote_ms: f64,
    pub finalize_ms: f64,
    pub shutdown_ms: f64,
    /// Ring counters of the last update over the last monitored slice,
    /// and the operations of that slice.
    pub ring_last_slice: (RingStats, RingStats),
    pub last_monitored_ops: u64,
    /// Ring lag (`pushed - popped`) sampled through the monitored window.
    pub lag_samples: Vec<u64>,
    pub rule_matches: u64,
    pub events_recorded: u64,
    pub events_evicted: u64,
}

struct Booted {
    kernel: Arc<VirtualKernel>,
    session: Mvedsua,
    load: Load,
}

fn boot(opts: &LifeOpts, spec: &Spec, retr: &Arc<Vec<u8>>) -> Result<Booted, String> {
    let kernel = VirtualKernel::new();
    install_inputs(opts.workload, &kernel, opts.seed)?;
    let obs = if opts.observed {
        Obs::enabled(FlightRecorder::new(
            RECORDER_CAPACITY,
            kernel.clone() as Arc<dyn TimeSource>,
        ))
    } else {
        Obs::disabled()
    };
    let session = Mvedsua::launch_observed(
        kernel.clone(),
        spec.registry.clone(),
        spec.from.clone(),
        MvedsuaConfig::default(),
        obs,
    )
    .map_err(|e| format!("launch: {e}"))?;
    let sessions =
        crate::open_sessions(opts.workload, opts.seed, &kernel, spec.port, retr, |_| {})?;
    let load = Load::start(&kernel, spec.port, sessions, PAUSE, Inflight::default());
    load.run_quota(WARMUP, opts.workload.warmup_ops());
    Ok(Booted {
        kernel,
        session,
        load,
    })
}

fn event_at(entries: &[TimelineEntry], pred: impl Fn(&TimelineEvent) -> bool) -> Option<u64> {
    entries.iter().find(|e| pred(&e.event)).map(|e| e.at_nanos)
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Runs the whole lifecycle once.
pub fn run(opts: &LifeOpts, started: Instant, retr: &Arc<Vec<u8>>) -> Result<LifeResult, String> {
    let spec = Spec::of(opts.workload);
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut setup_peaks = Vec::new();
    let mut booted = None;
    for rep in 0..opts.setups.max(1) {
        // The first set-up counts from process start, on both clocks.
        let (t0, cpu0) = if rep == 0 {
            (started, 0)
        } else {
            (Instant::now(), rss::cpu_ns())
        };
        rss::reset_peak();
        let b = boot(opts, &spec, retr)?;
        setup_s.push((rss::cpu_ns() - cpu0) as f64 / 1e9);
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        setup_peaks.push(rss::peak_mb()?);
        if rep + 1 < opts.setups {
            b.load.stop();
            b.session.shutdown();
        } else {
            booted = Some(b);
        }
    }
    let Booted {
        kernel,
        session,
        load,
    } = booted.expect("at least one set-up");
    let timeline = session.timeline();

    // The observed run only needs the controller-level medians; on
    // `ftp-large` the recorder makes each update slow.
    let per_cycle = if opts.observed {
        1
    } else {
        opts.workload.updates_per_cycle()
    };
    let stride = cycle_stride(per_cycle);
    let slice = opts.window / CYCLES as u32;
    let (mut single, mut monitored) = (Vec::new(), Vec::new());
    let (mut single_peaks, mut monitored_peaks) = (Vec::new(), Vec::new());
    let mut updates = Vec::new();
    let mut update_peaks = Vec::new();
    let mut lag_samples = Vec::new();
    let mut ring_last_slice = (RingStats::default(), RingStats::default());
    for c in 0..CYCLES {
        let base = (1 + c * stride) as u8;
        let (secs, peak, cpu) = run_slice(&load, base, slice, std::thread::sleep);
        single.push((base, secs, cpu));
        single_peaks.push(peak);
        let mut threads = 0;
        for j in 0..per_cycle {
            let phase = base + 1 + 2 * j as u8;
            threads = rss::threads()?;
            load.set_phase(phase);
            rss::reset_peak();
            updates.push((phase, update(&session, &kernel, &spec)?));
            update_peaks.push(rss::peak_mb()?);
            if j + 1 < per_cycle {
                load.set_phase(phase + 1);
                roll_back(&session, threads)?;
            }
        }
        // The first moments after catch-up are a transient (ring stalls
        // while the follower warms up); measure the stage after it.
        load.set_phase(base + 2 * per_cycle as u8);
        std::thread::sleep(SETTLE_TIME);
        let phase = base + 2 * per_cycle as u8 + 1;
        let last = c + 1 == CYCLES;
        let ring_start = if last {
            session.update_ring_stats().unwrap_or_default()
        } else {
            RingStats::default()
        };
        let (secs, peak, cpu) = run_slice(&load, phase, slice, |left| {
            if opts.observed {
                if let Some(s) = session.update_ring_stats() {
                    lag_samples.push(s.pushed.saturating_sub(s.popped));
                }
                std::thread::sleep(left.min(Duration::from_millis(1)));
            } else {
                std::thread::sleep(left);
            }
        });
        monitored.push((phase, secs, cpu));
        monitored_peaks.push(peak);
        load.set_phase(phase + 1);
        if session.stage() != Stage::OutdatedLeader {
            return Err(format!("update left monitoring early: {}", session.stage()));
        }
        if !last {
            roll_back(&session, threads)?;
        } else {
            let ring_end = session.update_ring_stats().ok_or("update ended early")?;
            ring_last_slice = (ring_start, ring_end);
        }
    }

    // --- promote, finalize, shutdown ----------------------------------
    let base = timeline.len();
    let promote_at = kernel.now_nanos();
    session.promote().map_err(|e| format!("promote: {e}"))?;
    if !timeline.wait_for_stage(Stage::UpdatedLeader, WAIT) {
        return Err("promotion did not complete".to_string());
    }
    let promoted_at = event_at(&timeline.entries()[base..], |e| {
        matches!(e, TimelineEvent::Promoted { .. })
    })
    .ok_or("no Promoted entry")?;
    let finalize_at = kernel.now_nanos();
    session.finalize().map_err(|e| format!("finalize: {e}"))?;
    if !timeline.wait_for_stage(Stage::SingleLeader, WAIT) {
        return Err("finalize did not return to a single leader".to_string());
    }
    let finalized_at = kernel.now_nanos();
    if session.active_version() != spec.to {
        return Err(format!(
            "{} leads after the update",
            session.active_version()
        ));
    }
    std::thread::sleep(TAIL_TIME);
    let recs = load.stop();
    let metrics = session.metrics();
    let t = Instant::now();
    session.shutdown();
    let shutdown_ms = t.elapsed().as_secs_f64() * 1e3;

    let pause_ops = updates
        .iter()
        .map(|(p, _)| recs.iter().map(|r| r.ok[*p as usize]).sum::<u64>())
        .sum();
    let updates: Vec<UpdateSample> = updates
        .into_iter()
        .map(|(p, mut u)| {
            let max = recs.iter().map(|r| r.overlap_max_ns[p as usize]).max();
            u.pause_ms = max.unwrap_or(0) as f64 / 1e6;
            u
        })
        .collect();
    let last_monitored = monitored.last().map_or(0, |(p, ..)| *p as usize);
    let last_monitored_ops = recs.iter().map(|r| r.ok[last_monitored]).sum();
    let (attempted, failed) = totals(&recs);
    eprintln!(
        "rss section medians (MiB): set-up {:.2}, single {:.2}, update {:.2}, monitored {:.2}",
        median(&setup_peaks),
        median(&single_peaks),
        median(&update_peaks),
        median(&monitored_peaks)
    );
    Ok(LifeResult {
        rss_mb: rss::typical_peak(&[&setup_peaks, &single_peaks, &update_peaks, &monitored_peaks]),
        setup_s,
        setup_wall_s,
        single: window(&recs, &single),
        monitored: window(&recs, &monitored),
        last_monitored_ops,
        pause_ops,
        updates,
        attempted,
        failed,
        promote_ms: ms(promoted_at.saturating_sub(promote_at)),
        finalize_ms: ms(finalized_at.saturating_sub(finalize_at)),
        shutdown_ms,
        ring_last_slice,
        lag_samples,
        rule_matches: metrics.counter("obs.rule_matches"),
        events_recorded: metrics.counter("obs.events_recorded"),
        events_evicted: metrics.counter("obs.events_evicted"),
    })
}

/// Requests one update and waits until its follower has transformed
/// the state and drained the ring.
fn update(session: &Mvedsua, kernel: &VirtualKernel, spec: &Spec) -> Result<UpdateSample, String> {
    let timeline = session.timeline();
    let base = timeline.len();
    let requested = kernel.now_nanos();
    session
        .request_update(spec.package.clone())
        .map_err(|e| format!("request_update: {e}"))?;
    timeline.wait_for(WAIT, |es| {
        es[base..].iter().any(|e| {
            matches!(
                e.event,
                TimelineEvent::UpdateCompleted { .. }
                    | TimelineEvent::UpdateFailed { .. }
                    | TimelineEvent::UpdateAbandoned
                    | TimelineEvent::RolledBack
            )
        })
    });
    let entries = timeline.entries();
    let (snapshot_nanos, forked_at) = entries[base..]
        .iter()
        .find_map(|e| match e.event {
            TimelineEvent::Forked { snapshot_nanos } => Some((snapshot_nanos, e.at_nanos)),
            _ => None,
        })
        .ok_or("the update never forked")?;
    let (xform_nanos, completed_at) = entries[base..]
        .iter()
        .find_map(|e| match e.event {
            TimelineEvent::UpdateCompleted { xform_nanos } => Some((xform_nanos, e.at_nanos)),
            _ => None,
        })
        .ok_or("the follower never completed the update")?;
    let deadline = Instant::now() + WAIT;
    let ring = loop {
        let stats = session.update_ring_stats().ok_or("no update in flight")?;
        if stats.pushed.saturating_sub(stats.popped) <= CAUGHT_UP {
            break stats;
        }
        if Instant::now() > deadline || session.stage() != Stage::OutdatedLeader {
            return Err("the follower never caught up".to_string());
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    let caught_up = kernel.now_nanos();
    Ok(UpdateSample {
        pause_ms: 0.0,
        request_to_fork_ms: ms(forked_at
            .saturating_sub(requested)
            .saturating_sub(snapshot_nanos)),
        snapshot_ms: ms(snapshot_nanos),
        xform_ms: ms(xform_nanos),
        catchup_ms: ms(caught_up.saturating_sub(completed_at)),
        stall_ms: ms(ring.producer_stall_nanos),
    })
}

/// The median of one field over all updates.
pub fn median_of(updates: &[UpdateSample], field: impl Fn(&UpdateSample) -> f64) -> f64 {
    crate::stats::median(&updates.iter().map(field).collect::<Vec<_>>())
}

/// Operations attempted and failed by all clients after set-up.
pub fn totals(recs: &[ClientRec]) -> (u64, u64) {
    let ok: u64 = recs.iter().flat_map(|r| r.ok.iter()).sum();
    let failed: u64 = recs.iter().flat_map(|r| r.failed.iter()).sum();
    (ok + failed, failed)
}

/// Runs the clients in `phase` for `slice`, calling `wait(time left)`
/// until it is over; returns its length in seconds, its peak resident
/// set in MiB and the CPU time the process ran in it, in ns.
fn run_slice(
    load: &Load,
    phase: u8,
    slice: Duration,
    mut wait: impl FnMut(Duration),
) -> (f64, f64, u64) {
    load.set_phase(phase);
    rss::reset_peak();
    let t = Instant::now();
    let cpu0 = rss::cpu_ns();
    while t.elapsed() < slice {
        wait(slice.saturating_sub(t.elapsed()));
    }
    let cpu = rss::cpu_ns() - cpu0;
    (t.elapsed().as_secs_f64(), rss::peak_mb().unwrap_or(0.0), cpu)
}

/// Rolls the monitored update back and waits until its follower's
/// thread is gone: it drops its copy of the state on that thread, and
/// the next update should neither compete with that work nor hold two
/// copies at once. `threads` is the thread count before the update.
fn roll_back(session: &Mvedsua, threads: u64) -> Result<(), String> {
    session.rollback().map_err(|e| format!("rollback: {e}"))?;
    let deadline = Instant::now() + WAIT;
    while rss::threads()? > threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(GAP_TIME);
    Ok(())
}

/// Merges the clients' records of a window's slices, given as
/// (phase, seconds, CPU ns) triples, into one window.
pub fn window(recs: &[ClientRec], slices: &[(u8, f64, u64)]) -> Window {
    debug_assert!(recs.len() <= CONNS);
    let mut out = Window::default();
    let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_op = Vec::new();
    for &(phase, secs, cpu) in slices {
        let p = phase as usize;
        let mut lat: Vec<u32> = recs.iter().flat_map(|r| r.lat[p].iter().copied()).collect();
        let ops: u64 = recs.iter().map(|r| r.ok[p]).sum();
        let l = Latency::of(&mut lat);
        out.ops += ops;
        out.n += l.n as u64;
        tput.push(ops as f64 / secs);
        p50.push(l.p50_us);
        p99.push(l.p99_us);
        cpu_op.push(cpu as f64 / ops.max(1) as f64 / 1e3);
    }
    out.cpu_us = median(&cpu_op);
    out.tput = median(&tput);
    out.p50_us = median(&p50);
    out.p99_us = median(&p99);
    out
}
