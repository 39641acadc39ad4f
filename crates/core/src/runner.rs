use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dsl::RuleSet;
use dsu::{panic_message, DsuApp, StepOutcome, Version, VersionRegistry};
use mve::{
    EventRing, FollowerConfig, LeaderConfig, Notice, NoticeHook, NoticeKind, RetireReason,
    RetiredSignal, Role, SyscallStats, VariantId, VariantOs,
};
use obs::{Obs, ObsKind};
use parking_lot::Mutex;
use vos::VirtualKernel;

use crate::controller::MvedsuaConfig;
use crate::package::UpdatePackage;
use crate::stage::{Stage, Timeline, TimelineEvent};

/// A queued fork-and-update job, picked up by whichever runner holds the
/// single-leader role at its next quiescent update point.
pub(crate) struct ForkJob {
    pub package: UpdatePackage,
    pub fwd_rules: Arc<RuleSet>,
    pub rev_rules: Arc<RuleSet>,
    pub attempts: u32,
}

/// What `promote()` executes: install the demotion config into the old
/// leader's slot.
pub(crate) struct PromoteAction {
    pub slot: Arc<Mutex<Option<FollowerConfig>>>,
    pub config: FollowerConfig,
}

/// The update currently being monitored. Ending the era (`*active =
/// None`) drops its promote action with it.
pub(crate) struct ActiveUpdate {
    pub ring_a: EventRing,
    pub ring_b: Option<EventRing>,
    pub follower_id: VariantId,
    /// Taken by `promote()`; `None` once promotion was requested.
    pub promote: Option<PromoteAction>,
}

impl ActiveUpdate {
    /// Rolls the era back: the follower loses its ring, and a leader
    /// that already demoted, and so follows ring B, which no one will
    /// lead now, finds it closed and takes over alone again.
    pub fn roll_back(self) {
        self.ring_a.poison();
        if let Some(ring_b) = self.ring_b {
            ring_b.close();
        }
    }
}

/// State shared between the controller and the variant runner threads.
/// Stage changes happen on the variant that makes them, under the lock
/// order `active_update` → `versions`/`leader_version` → timeline.
pub(crate) struct Shared {
    pub kernel: Arc<VirtualKernel>,
    pub registry: Arc<VersionRegistry>,
    pub timeline: Arc<Timeline>,
    pub config: MvedsuaConfig,
    pub stop: AtomicBool,
    pub fork_slot: Mutex<Option<ForkJob>>,
    pub threads: Mutex<Vec<JoinHandle<()>>>,
    pub rings: Mutex<Vec<EventRing>>,
    pub active_update: Mutex<Option<ActiveUpdate>>,
    pub versions: Mutex<HashMap<VariantId, Version>>,
    pub leader_version: Mutex<Version>,
    pub next_variant: AtomicU32,
    /// Flight-recorder handle threaded into every variant; disabled (a
    /// single-branch no-op) unless the session was launched observed.
    pub obs: Obs,
    /// Per-variant syscall accounting, collected at spawn time so
    /// [`crate::Mvedsua::metrics`] can aggregate after variants die.
    pub variant_stats: Mutex<Vec<(VariantId, Arc<SyscallStats>)>>,
}

impl Shared {
    fn register_ring(&self, ring: &EventRing) {
        self.rings.lock().push(ring.clone());
    }

    /// Poison every ring so no thread stays blocked (shutdown path).
    pub fn poison_all_rings(&self) {
        for ring in self.rings.lock().iter() {
            ring.poison();
        }
    }
}

/// The universal variant loop: step the application, honor fork requests
/// when in single-leader mode, and translate panics into the recovery
/// protocol (rollback for followers, promotion for leaders).
pub(crate) fn run_variant(shared: Arc<Shared>, mut app: Box<dyn DsuApp>, mut os: VariantOs) {
    let id = os.id();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            os.teardown_on_crash();
            break;
        }
        // Update point: forks and demotions only happen here — between
        // steps, where no multi-syscall operation is in flight.
        match os.role() {
            Role::Single => maybe_fork(&shared, &mut app, &mut os),
            Role::Leader => {
                if let Some(config) = os.take_demote_request() {
                    if app.quiescent() {
                        os.demote_now(config);
                    } else {
                        // Not a safe point yet; retry at the next one.
                        *os.demote_slot().lock() = Some(config);
                    }
                }
            }
            Role::Follower => {}
        }
        match catch_unwind(AssertUnwindSafe(|| app.step(&mut os))) {
            Ok(StepOutcome::Progress) | Ok(StepOutcome::Idle) => {}
            Ok(StepOutcome::Shutdown) => {
                shared
                    .timeline
                    .record(TimelineEvent::AppShutdown { variant: id });
                os.teardown_on_crash();
                break;
            }
            Err(payload) => {
                if let Some(signal) = RetiredSignal::from_payload(&*payload) {
                    match &signal.0 {
                        RetireReason::Terminated => {
                            shared
                                .timeline
                                .record(TimelineEvent::Retired { variant: id });
                        }
                        RetireReason::Diverged(d) => {
                            shared.timeline.record(TimelineEvent::Diverged {
                                variant: id,
                                description: d.to_string(),
                            });
                            os.teardown_on_crash();
                            finish_failed_follower(&shared, id);
                        }
                    }
                } else {
                    let message = panic_message(&*payload);
                    shared.obs.emit(id, || ObsKind::Crashed {
                        message: message.clone(),
                    });
                    shared.timeline.record(TimelineEvent::Crashed {
                        variant: id,
                        message,
                    });
                    let role = os.role();
                    os.teardown_on_crash();
                    match role {
                        // A crashed follower rolls the update back; the
                        // leader recovers on its next push.
                        Role::Follower => finish_failed_follower(&shared, id),
                        // A crashed leader's ring is now closed: the
                        // follower drains and takes over (stage changes
                        // arrive via its BecameSingle notice).
                        Role::Leader => {}
                        Role::Single => {
                            shared.timeline.set_stage(Stage::SingleLeader);
                        }
                    }
                }
                break;
            }
        }
    }
}

/// Bookkeeping after the new version died during monitoring: the update
/// is rolled back (if this variant was the monitored follower).
fn finish_failed_follower(shared: &Shared, id: VariantId) {
    let mut active = shared.active_update.lock();
    match active.as_ref() {
        Some(a) if a.follower_id == id => {
            active.take().expect("matched above").roll_back();
            // Era (promote action included), then stage and RolledBack
            // in one timeline step, all under the era lock: a waiter
            // woken by either observes both, and may fork the next
            // update at once.
            shared.timeline.roll_back();
        }
        None => shared.timeline.set_stage(Stage::SingleLeader),
        // A *different* update is already being monitored (the
        // operator rolled this one back and moved on); its stage is
        // not ours to touch.
        Some(_) => {}
    }
}

/// Takes a pending fork job if the application is quiescent; otherwise
/// counts the refusal (and abandons the job once its budget is spent —
/// the paper's *timing error*).
fn maybe_fork(shared: &Arc<Shared>, app: &mut Box<dyn DsuApp>, os: &mut VariantOs) {
    let job = {
        let mut slot = shared.fork_slot.lock();
        let Some(mut job) = slot.take() else { return };
        if !app.quiescent() {
            job.attempts += 1;
            if job.attempts >= job.package.max_quiesce_attempts {
                drop(slot);
                shared.timeline.record(TimelineEvent::UpdateAbandoned);
            } else {
                *slot = Some(job);
            }
            return;
        }
        job
    };

    // --- the fork (t1): the only service pause MVEDSUA incurs --------
    let begin = Instant::now();
    let snapshot = app.snapshot();
    if !job.package.skip_ephemeral_reset {
        // §4's aborted-update callback: the leader resets library state
        // (LibEvent dispatch memory) so both variants order events alike.
        app.reset_ephemeral();
    }
    let snapshot_nanos = begin.elapsed().as_nanos() as u64;

    let from_version = app.version().clone();
    let ring_a: EventRing = Arc::new(ring::Ring::with_capacity(shared.config.ring_capacity));
    shared.register_ring(&ring_a);
    let ring_b: Option<EventRing> = if shared.config.monitor_after_promote {
        let rb: EventRing = Arc::new(ring::Ring::with_capacity(shared.config.ring_capacity));
        shared.register_ring(&rb);
        Some(rb)
    } else {
        None
    };

    let follower_id = shared.next_variant.fetch_add(1, Ordering::SeqCst);
    let follower_config = FollowerConfig {
        ring: ring_a.clone(),
        rules: job.fwd_rules.clone(),
        builtins: job.package.builtins.clone(),
        promote_to: ring_b.as_ref().map(|rb| LeaderConfig {
            ring: rb.clone(),
            lockstep: shared.config.lockstep,
        }),
        lag: shared.config.follower_lag.clone(),
    };
    let mut follower_os = VariantOs::follower(
        follower_id,
        shared.kernel.clone(),
        follower_config,
        Some(notice_hook(shared)),
    );
    follower_os.set_obs(shared.obs.clone());
    shared
        .variant_stats
        .lock()
        .push((follower_id, follower_os.stats()));

    // What the old leader becomes at promotion time: a follower on ring
    // B (monitored), or — when the updated-leader stage is bypassed — a
    // follower on a pre-poisoned ring, i.e. immediate retirement.
    let old_leader_becomes = match &ring_b {
        Some(rb) => FollowerConfig {
            ring: rb.clone(),
            rules: job.rev_rules.clone(),
            builtins: job.package.builtins.clone(),
            promote_to: None,
            lag: shared.config.follower_lag.clone(),
        },
        None => {
            let dead: EventRing = Arc::new(ring::Ring::with_capacity(1));
            dead.poison();
            FollowerConfig {
                ring: dead,
                rules: Arc::new(RuleSet::empty()),
                builtins: job.package.builtins.clone(),
                promote_to: None,
                lag: None,
            }
        }
    };
    let promote = PromoteAction {
        slot: os.demote_slot(),
        config: old_leader_becomes,
    };
    os.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: shared.config.lockstep,
    });
    {
        // Install the new update era and its stage atomically: stage
        // writers (here, `on_notice`, the rollback bookkeeping) all
        // decide under this lock, so no variant of another era can
        // clobber the fresh OutdatedLeader stage.
        let mut active = shared.active_update.lock();
        *active = Some(ActiveUpdate {
            ring_a: ring_a.clone(),
            ring_b,
            follower_id,
            promote: Some(promote),
        });
        // Stage first, event second: waiters key on the Forked event
        // and must observe the new stage when they wake.
        shared.timeline.set_stage(Stage::OutdatedLeader);
        shared
            .timeline
            .record(TimelineEvent::Forked { snapshot_nanos });
    }

    let shared2 = shared.clone();
    let package = job.package;
    let handle = std::thread::Builder::new()
        .name(format!("mvedsua-follower-{follower_id}"))
        .spawn(move || {
            follower_boot(
                shared2,
                package,
                from_version,
                snapshot,
                follower_os,
                ring_a,
            )
        })
        .expect("spawn follower thread");
    shared.threads.lock().push(handle);
}

/// The hook every variant reports its role changes through: it applies
/// each one on the variant's own thread, before the variant's next call.
pub(crate) fn notice_hook(shared: &Arc<Shared>) -> NoticeHook {
    let shared = shared.clone();
    Arc::new(move |notice| on_notice(&shared, notice))
}

/// Translates a variant's role transition into stage changes and
/// leader-version tracking.
fn on_notice(shared: &Shared, notice: Notice) {
    let set_leader = |variant: VariantId| {
        if let Some(version) = shared.versions.lock().get(&variant) {
            *shared.leader_version.lock() = version.clone();
        }
    };
    match notice.kind {
        NoticeKind::Demoted => {
            shared.timeline.record(TimelineEvent::Demoted {
                variant: notice.variant,
            });
            // A leader that demotes into an era already rolled back finds
            // ring B closed and reports BecameSingle next: the session
            // never switches.
            let active = shared.active_update.lock();
            if active.is_some() {
                shared.timeline.set_stage(Stage::Switching);
            }
        }
        NoticeKind::BecameLeader => {
            shared.timeline.record(TimelineEvent::Promoted {
                variant: notice.variant,
            });
            set_leader(notice.variant);
            shared.timeline.set_stage(Stage::UpdatedLeader);
        }
        NoticeKind::BecameSingle => {
            shared.timeline.record(TimelineEvent::BecameSingle {
                variant: notice.variant,
            });
            // Only a session with no update era, or the era's own
            // follower taking over (leader-crash promotion, bypassed
            // promotion), moves the stage; any other variant reporting
            // in must not clobber the stage of the era being monitored.
            let mut active = shared.active_update.lock();
            match active.as_ref() {
                None => {
                    set_leader(notice.variant);
                    shared.timeline.set_stage(Stage::SingleLeader);
                }
                Some(a) if a.follower_id == notice.variant => {
                    // Ends the era, promote action included, before the
                    // stage change lets the next update fork.
                    *active = None;
                    set_leader(notice.variant);
                    shared.timeline.set_stage(Stage::SingleLeader);
                }
                Some(_) => {}
            }
        }
    }
}

/// Runs on the follower thread: perform the dynamic update (state
/// transformation + resume as the new version) *off the service path*,
/// then enter the universal variant loop to replay the backlog.
fn follower_boot(
    shared: Arc<Shared>,
    package: UpdatePackage,
    from: Version,
    snapshot: dsu::AppState,
    os: VariantOs,
    ring_a: EventRing,
) {
    let id = os.id();
    let transformer = match &package.transformer_override {
        Some(t) => Ok(t.clone()),
        None => shared
            .registry
            .update_spec(&from, &package.to)
            .map(|spec| spec.transformer.clone()),
    };
    let begin = Instant::now();
    let built = transformer.and_then(|t| {
        // The run, with its kernel-clock duration, lands on the
        // follower's lane.
        let start = shared.kernel.now_nanos();
        let transformed = t.transform(snapshot);
        shared.obs.emit(id, || ObsKind::Transform {
            description: t.describe().to_string(),
            ok: transformed.is_ok(),
            nanos: shared.kernel.now_nanos().saturating_sub(start),
        });
        shared.registry.resume(&package.to, transformed?)
    });
    match built {
        Ok(app) => {
            shared.timeline.record(TimelineEvent::UpdateCompleted {
                xform_nanos: begin.elapsed().as_nanos() as u64,
            });
            shared.versions.lock().insert(id, package.to.clone());
            run_variant(shared, app, os);
        }
        Err(e) => {
            // In-update error: roll back before the new version ever
            // served a request. Poisoning ring A reverts the leader.
            shared.timeline.record(TimelineEvent::UpdateFailed {
                reason: e.to_string(),
            });
            ring_a.poison();
            finish_failed_follower(&shared, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Arc<Shared> {
        let kernel = VirtualKernel::new();
        Arc::new(Shared {
            kernel: kernel.clone(),
            registry: Arc::new(VersionRegistry::new()),
            timeline: Arc::new(Timeline::new(kernel)),
            config: MvedsuaConfig::default(),
            stop: AtomicBool::new(false),
            fork_slot: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
            rings: Mutex::new(Vec::new()),
            active_update: Mutex::new(None),
            versions: Mutex::new(HashMap::new()),
            leader_version: Mutex::new(dsu::v("1.0")),
            next_variant: AtomicU32::new(1),
            obs: Obs::disabled(),
            variant_stats: Mutex::new(Vec::new()),
        })
    }

    fn rolled_back(shared: &Shared) -> bool {
        shared
            .timeline
            .entries()
            .iter()
            .any(|e| matches!(e.event, TimelineEvent::RolledBack))
    }

    /// A waiter that sees `RolledBack` may fork the next update at once,
    /// so the failed era, promote action included, must already be gone:
    /// a leftover would hand the next era's `promote` a stale action.
    #[test]
    fn failed_follower_clears_promote_action_before_reporting_rollback() {
        let shared = shared();
        let ring: EventRing = Arc::new(ring::Ring::with_capacity(1));
        *shared.active_update.lock() = Some(ActiveUpdate {
            ring_a: ring.clone(),
            ring_b: None,
            follower_id: 7,
            promote: Some(PromoteAction {
                slot: Arc::new(Mutex::new(None)),
                config: FollowerConfig {
                    ring,
                    rules: Arc::new(RuleSet::empty()),
                    builtins: Arc::new(dsl::Builtins::standard()),
                    promote_to: None,
                    lag: None,
                },
            }),
        });
        // Holding the era lock parks the failing follower wherever it
        // ends the era; RolledBack must not be visible by then. The
        // pause only gives a wrong order time to show; the right order
        // passes however long it lasts.
        let held = shared.active_update.lock();
        let failing = {
            let shared = shared.clone();
            std::thread::spawn(move || finish_failed_follower(&shared, 7))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !rolled_back(&shared),
            "RolledBack was reported before the era and its promote action were gone"
        );
        assert!(held.as_ref().is_some_and(|a| a.promote.is_some()));
        drop(held);
        failing.join().unwrap();
        assert!(rolled_back(&shared));
        assert!(shared.active_update.lock().is_none());
        assert_eq!(shared.timeline.stage(), Stage::SingleLeader);
    }

    /// A leader that takes its demotion request after its era rolled
    /// back demotes into ring B: the rollback closed it, so the leader
    /// takes over alone, and the session never switches.
    #[test]
    fn a_demotion_after_rollback_finds_ring_b_closed_and_keeps_the_stage() {
        let shared = shared();
        let ring_b: EventRing = Arc::new(ring::Ring::with_capacity(1));
        *shared.active_update.lock() = Some(ActiveUpdate {
            ring_a: Arc::new(ring::Ring::with_capacity(1)),
            ring_b: Some(ring_b.clone()),
            follower_id: 7,
            promote: None,
        });
        finish_failed_follower(&shared, 7);
        on_notice(
            &shared,
            Notice {
                variant: 0,
                kind: NoticeKind::Demoted,
            },
        );
        assert_eq!(shared.timeline.stage(), Stage::SingleLeader);
        assert_eq!(ring_b.pop_batch(1).unwrap_err(), ring::RingError::Closed);
    }
}
