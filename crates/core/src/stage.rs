use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use dsu::Version;
use obs::{Obs, ObsKind, SESSION_LANE};
use parking_lot::{Condvar, Mutex};
use vos::VirtualKernel;

/// The MVEDSUA lifecycle stage (paper Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// One variant, no monitoring (t0–t1 and after t6).
    SingleLeader,
    /// Old version leads, new version updates/catches up/is monitored
    /// (t1–t4).
    OutdatedLeader,
    /// Demotion marker pushed, waiting for the follower to drain up to
    /// it (t4–t5: "two followers and no leader").
    Switching,
    /// New version leads, old version is the monitored follower (t5–t6).
    UpdatedLeader,
}

impl Stage {
    /// Lowercase human name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SingleLeader => "single-leader",
            Stage::OutdatedLeader => "outdated-leader",
            Stage::Switching => "switching",
            Stage::UpdatedLeader => "updated-leader",
        }
    }

    /// The stages this one may legally move to (paper Figure 2):
    ///
    /// * `SingleLeader → OutdatedLeader` — fork at a quiescent point (t1);
    /// * `OutdatedLeader → SingleLeader` — rollback or abandonment;
    /// * `OutdatedLeader → Switching` — demotion marker appended (t4);
    /// * `Switching → UpdatedLeader` — follower consumed the marker and
    ///   took over with the old version monitored (t5);
    /// * `Switching → SingleLeader` — ditto, but the updated-leader stage
    ///   is bypassed (§3.2) or the other variant died mid-switch;
    /// * `UpdatedLeader → SingleLeader` — finalize (t6) or rollback.
    pub fn legal_next(self) -> &'static [Stage] {
        match self {
            Stage::SingleLeader => &[Stage::OutdatedLeader],
            Stage::OutdatedLeader => &[Stage::SingleLeader, Stage::Switching],
            Stage::Switching => &[Stage::SingleLeader, Stage::UpdatedLeader],
            Stage::UpdatedLeader => &[Stage::SingleLeader],
        }
    }

    /// Whether moving from `self` to `next` is a legal lifecycle
    /// transition. Staying put is legal (and unrecorded by
    /// [`Timeline::set_stage`]).
    pub fn can_transition_to(self, next: Stage) -> bool {
        self == next || self.legal_next().contains(&next)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything notable that happens during a session, for the benchmarks
/// and the fault-tolerance experiments.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TimelineEvent {
    /// Session booted with this version serving.
    Launched { version: Version },
    /// An update was queued.
    UpdateRequested { to: Version },
    /// The update package was rejected by `rulecheck` at prepare time —
    /// before any fork — with this many error-severity diagnostics.
    UpdateRejected { errors: usize },
    /// The leader forked at a quiescent update point; the snapshot cost
    /// is the only service pause MVEDSUA incurs.
    Forked { snapshot_nanos: u64 },
    /// The update could not find a quiescent point in budget — a timing
    /// error; the request was abandoned (retryable).
    UpdateAbandoned,
    /// State transformation + resume failed on the follower; the update
    /// was rolled back before the new version ever ran.
    UpdateFailed { reason: String },
    /// The follower finished transforming and is consuming the backlog
    /// (t2 in Figure 2).
    UpdateCompleted { xform_nanos: u64 },
    /// An unexpected divergence; the follower was terminated.
    Diverged { variant: u32, description: String },
    /// A variant's application code crashed.
    Crashed { variant: u32, message: String },
    /// A follower was terminated and its leader reverted to single mode.
    RolledBack,
    /// Operator requested promotion.
    PromoteRequested,
    /// The old leader appended the demotion marker and stepped down.
    Demoted { variant: u32 },
    /// A follower consumed the marker and took over as leader.
    Promoted { variant: u32 },
    /// A variant exited after being retired by the coordinator.
    Retired { variant: u32 },
    /// A variant reverted to (or took over in) single-leader mode.
    BecameSingle { variant: u32 },
    /// An application asked to shut down.
    AppShutdown { variant: u32 },
    /// The stage machine moved.
    StageChanged { stage: Stage },
    /// The session was shut down by the operator.
    SessionShutdown,
}

/// A timestamped [`TimelineEvent`] (nanoseconds since kernel boot).
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEntry {
    pub at_nanos: u64,
    pub event: TimelineEvent,
}

/// Shared, waitable event log. Also owns the stage machine, so stage
/// changes and their causes stay ordered consistently.
#[derive(Debug)]
pub struct Timeline {
    kernel: Arc<VirtualKernel>,
    inner: Mutex<Inner>,
    changed: Condvar,
    /// Mirror of timeline activity into the flight recorder's session
    /// lane (auxiliary class — lifecycle notes and stage transitions).
    obs: Obs,
}

#[derive(Debug)]
struct Inner {
    entries: Vec<TimelineEntry>,
    stage: Stage,
}

impl Timeline {
    /// A fresh timeline in the single-leader stage, mirrored into `obs`'s
    /// session lane ([`Obs::disabled`] for none).
    pub fn new(kernel: Arc<VirtualKernel>, obs: Obs) -> Self {
        Timeline {
            kernel,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                stage: Stage::SingleLeader,
            }),
            changed: Condvar::new(),
            obs,
        }
    }

    /// Appends an event, stamped with the kernel clock.
    pub fn record(&self, event: TimelineEvent) {
        let at_nanos = self.kernel.now_nanos();
        self.obs.emit(SESSION_LANE, || ObsKind::Note {
            text: format!("{event:?}"),
        });
        let mut inner = self.inner.lock();
        inner.entries.push(TimelineEntry { at_nanos, event });
        self.changed.notify_all();
    }

    /// Moves the stage machine, recording the transition.
    pub fn set_stage(&self, stage: Stage) {
        let at_nanos = self.kernel.now_nanos();
        let mut inner = self.inner.lock();
        if inner.stage == stage {
            return;
        }
        self.obs.emit(SESSION_LANE, || ObsKind::Stage {
            stage: stage.name().to_string(),
        });
        inner.stage = stage;
        inner.entries.push(TimelineEntry {
            at_nanos,
            event: TimelineEvent::StageChanged { stage },
        });
        self.changed.notify_all();
    }

    /// Current stage.
    pub fn stage(&self) -> Stage {
        self.inner.lock().stage
    }

    /// Snapshot of all entries so far.
    pub fn entries(&self) -> Vec<TimelineEntry> {
        self.inner.lock().entries.clone()
    }

    /// Number of entries so far (cheap cursor for incremental scans).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until `pred` holds over the entry list (checked after each
    /// append) or `timeout` elapses. Returns whether the predicate held.
    ///
    /// The deadline is measured on the **kernel clock**: under a
    /// virtual-only clock ([`vos::Clock::new_virtual`]) time passes only
    /// when the driver advances it, so the timeout is deterministic. The
    /// condvar is still re-armed on short real-time slices so clock
    /// advances made by other threads are observed promptly, and a
    /// generous real-time failsafe prevents a stalled driver from
    /// hanging the test suite forever.
    pub fn wait_for(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&[TimelineEntry]) -> bool,
    ) -> bool {
        self.wait_on_kernel_clock(timeout, |inner| pred(&inner.entries))
    }

    /// Blocks until the stage equals `stage`, or `timeout` elapses (on
    /// the kernel clock; see [`Timeline::wait_for`]).
    pub fn wait_for_stage(&self, stage: Stage, timeout: Duration) -> bool {
        self.wait_on_kernel_clock(timeout, |inner| inner.stage == stage)
    }

    fn wait_on_kernel_clock(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&Inner) -> bool,
    ) -> bool {
        const SLICE: Duration = Duration::from_millis(20);
        let deadline_nanos = self
            .kernel
            .now_nanos()
            .saturating_add(timeout.as_nanos().min(u64::MAX as u128) as u64);
        let failsafe = std::time::Instant::now() + timeout.max(Duration::from_secs(5)) * 4;
        let mut inner = self.inner.lock();
        loop {
            if pred(&inner) {
                return true;
            }
            if self.kernel.now_nanos() >= deadline_nanos || std::time::Instant::now() >= failsafe {
                return false;
            }
            let _ = self.changed.wait_for(&mut inner, SLICE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsu::v;
    use std::thread;

    #[test]
    fn records_are_ordered_and_stamped() {
        let k = VirtualKernel::new();
        let t = Timeline::new(k, Obs::disabled());
        t.record(TimelineEvent::Launched { version: v("1.0") });
        t.record(TimelineEvent::UpdateRequested { to: v("2.0") });
        let entries = t.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].at_nanos <= entries[1].at_nanos);
        assert!(matches!(entries[0].event, TimelineEvent::Launched { .. }));
    }

    #[test]
    fn stage_changes_are_recorded_once() {
        let t = Timeline::new(VirtualKernel::new(), Obs::disabled());
        assert_eq!(t.stage(), Stage::SingleLeader);
        t.set_stage(Stage::OutdatedLeader);
        t.set_stage(Stage::OutdatedLeader); // no duplicate entry
        assert_eq!(t.stage(), Stage::OutdatedLeader);
        assert_eq!(t.entries().len(), 1);
    }

    #[test]
    fn wait_for_unblocks_on_matching_event() {
        let t = Arc::new(Timeline::new(VirtualKernel::new(), Obs::disabled()));
        let t2 = t.clone();
        let waiter = thread::spawn(move || {
            t2.wait_for(Duration::from_secs(2), |entries| {
                entries
                    .iter()
                    .any(|e| matches!(e.event, TimelineEvent::RolledBack))
            })
        });
        thread::sleep(Duration::from_millis(20));
        t.record(TimelineEvent::RolledBack);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wait_for_times_out() {
        let t = Timeline::new(VirtualKernel::new(), Obs::disabled());
        assert!(!t.wait_for(Duration::from_millis(20), |e| !e.is_empty()));
        assert!(!t.wait_for_stage(Stage::UpdatedLeader, Duration::from_millis(20)));
    }

    #[test]
    fn wait_for_stage_unblocks() {
        let t = Arc::new(Timeline::new(VirtualKernel::new(), Obs::disabled()));
        let t2 = t.clone();
        let waiter =
            thread::spawn(move || t2.wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(2)));
        thread::sleep(Duration::from_millis(20));
        t.set_stage(Stage::UpdatedLeader);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn transition_legality_matches_figure_2() {
        assert!(Stage::SingleLeader.can_transition_to(Stage::OutdatedLeader));
        assert!(!Stage::SingleLeader.can_transition_to(Stage::Switching));
        assert!(!Stage::SingleLeader.can_transition_to(Stage::UpdatedLeader));
        assert!(Stage::OutdatedLeader.can_transition_to(Stage::Switching));
        assert!(Stage::OutdatedLeader.can_transition_to(Stage::SingleLeader));
        assert!(!Stage::OutdatedLeader.can_transition_to(Stage::UpdatedLeader));
        assert!(Stage::Switching.can_transition_to(Stage::UpdatedLeader));
        assert!(Stage::Switching.can_transition_to(Stage::SingleLeader));
        assert!(!Stage::Switching.can_transition_to(Stage::OutdatedLeader));
        assert!(Stage::UpdatedLeader.can_transition_to(Stage::SingleLeader));
        assert!(!Stage::UpdatedLeader.can_transition_to(Stage::OutdatedLeader));
        // Self-loops are always legal (and unrecorded).
        for s in [
            Stage::SingleLeader,
            Stage::OutdatedLeader,
            Stage::Switching,
            Stage::UpdatedLeader,
        ] {
            assert!(s.can_transition_to(s));
        }
    }

    #[test]
    fn stage_names() {
        assert_eq!(Stage::SingleLeader.to_string(), "single-leader");
        assert_eq!(Stage::Switching.name(), "switching");
    }
}
