use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use dsl::RuleSet;
use dsu::{panic_message, DsuApp, StateTransformer, StepOutcome, Version, VersionRegistry};
use mve::{
    EventRing, FollowerConfig, LeaderConfig, Notice, RetireReason, RetiredSignal, Role,
    SyscallStats, VariantId, VariantOs,
};
use obs::{Obs, ObsKind, TimeSource};
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

/// The update currently being monitored.
pub(crate) struct ActiveUpdate {
    pub ring_a: EventRing,
    pub ring_b: Option<EventRing>,
    pub follower_id: VariantId,
}

/// State shared between the controller, the variant runner threads, and
/// the notice monitor.
pub(crate) struct Shared {
    pub kernel: Arc<VirtualKernel>,
    pub registry: Arc<VersionRegistry>,
    pub timeline: Arc<Timeline>,
    pub config: MvedsuaConfig,
    pub stop: AtomicBool,
    pub fork_slot: Mutex<Option<ForkJob>>,
    pub threads: Mutex<Vec<JoinHandle<()>>>,
    pub rings: Mutex<Vec<EventRing>>,
    pub promote_action: Mutex<Option<PromoteAction>>,
    pub active_update: Mutex<Option<ActiveUpdate>>,
    pub versions: Mutex<HashMap<VariantId, Version>>,
    pub leader_version: Mutex<Version>,
    pub next_variant: AtomicU32,
    pub notices: Mutex<Option<Sender<Notice>>>,
    /// Flight-recorder handle threaded into every variant; disabled (a
    /// single-branch no-op) unless the session was launched observed.
    pub obs: Obs,
    /// Per-variant syscall accounting, collected at spawn time so
    /// [`crate::Mvedsua::metrics`] can aggregate after variants die.
    pub variant_stats: Mutex<Vec<(VariantId, Arc<SyscallStats>)>>,
}

impl Shared {
    pub fn notices_sender(&self) -> Option<Sender<Notice>> {
        self.notices.lock().clone()
    }

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
                            shared.obs.emit(id, || ObsKind::Retired {
                                reason: "terminated".to_string(),
                            });
                            shared
                                .timeline
                                .record(TimelineEvent::Retired { variant: id });
                        }
                        RetireReason::Diverged(d) => {
                            shared.obs.emit(id, || ObsKind::Retired {
                                reason: d.to_string(),
                            });
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
            *active = None;
            // Promote action, stage, then RolledBack, all under the era
            // lock: a waiter woken by RolledBack must observe the
            // restored stage, and may fork the next update at once, so a
            // late clear would drop that update's action.
            *shared.promote_action.lock() = None;
            shared.timeline.set_stage(Stage::SingleLeader);
            shared.timeline.record(TimelineEvent::RolledBack);
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
    if let Some((every, nanos)) = shared.config.ring_pop_stall {
        ring_a.set_pop_stall(every, Duration::from_nanos(nanos));
    }
    // Stall timing on the kernel clock: under a virtual-only clock the
    // producer-stall metric is replay-stable instead of wall-dependent.
    ring_a.set_stall_time_source(shared.kernel.clone() as Arc<dyn TimeSource>);
    shared.register_ring(&ring_a);
    let ring_b: Option<EventRing> = if shared.config.monitor_after_promote {
        let rb: EventRing = Arc::new(ring::Ring::with_capacity(shared.config.ring_capacity));
        if let Some((every, nanos)) = shared.config.ring_pop_stall {
            rb.set_pop_stall(every, Duration::from_nanos(nanos));
        }
        rb.set_stall_time_source(shared.kernel.clone() as Arc<dyn TimeSource>);
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
        lag: shared.config.follower_lag,
    };
    let mut follower_os = VariantOs::follower(
        follower_id,
        shared.kernel.clone(),
        follower_config,
        shared.notices_sender(),
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
            lag: shared.config.follower_lag,
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
    *shared.promote_action.lock() = Some(PromoteAction {
        slot: os.demote_slot(),
        config: old_leader_becomes,
    });
    os.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: shared.config.lockstep,
    });
    {
        // Install the new update era and its stage atomically: stage
        // writers (here, the notice monitor, the rollback bookkeeping)
        // all decide under this lock, so a stale notice from the
        // previous era can never clobber the fresh OutdatedLeader stage.
        let mut active = shared.active_update.lock();
        *active = Some(ActiveUpdate {
            ring_a: ring_a.clone(),
            ring_b,
            follower_id,
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
    }
    .map(|t| {
        if shared.obs.is_enabled() {
            // Record the run (and its kernel-clock duration) on the
            // follower's lane.
            Arc::new(dsu::ObservedTransformer::new(
                t,
                shared.obs.clone(),
                id,
                shared.kernel.clone() as Arc<dyn TimeSource>,
            )) as Arc<dyn StateTransformer>
        } else {
            t
        }
    });
    let begin = Instant::now();
    let built = transformer.and_then(|t| {
        let transformed = t.transform(snapshot)?;
        shared.registry.resume(&package.to, transformed)
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
            promote_action: Mutex::new(None),
            active_update: Mutex::new(None),
            versions: Mutex::new(HashMap::new()),
            leader_version: Mutex::new(dsu::v("1.0")),
            next_variant: AtomicU32::new(1),
            notices: Mutex::new(None),
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
    /// so the failed era's promote action must already be gone: a later
    /// clear would drop the next era's action and fail its `promote`.
    #[test]
    fn failed_follower_clears_promote_action_before_reporting_rollback() {
        let shared = shared();
        let ring: EventRing = Arc::new(ring::Ring::with_capacity(1));
        *shared.active_update.lock() = Some(ActiveUpdate {
            ring_a: ring.clone(),
            ring_b: None,
            follower_id: 7,
        });
        *shared.promote_action.lock() = Some(PromoteAction {
            slot: Arc::new(Mutex::new(None)),
            config: FollowerConfig {
                ring,
                rules: Arc::new(RuleSet::empty()),
                builtins: Arc::new(dsl::Builtins::standard()),
                promote_to: None,
                lag: None,
            },
        });
        // Holding the action's lock parks the failing follower wherever
        // it clears the action; RolledBack must not be visible by then.
        // The pause only gives a wrong order time to show; the right
        // order passes however long it lasts.
        let held = shared.promote_action.lock();
        let failing = {
            let shared = shared.clone();
            std::thread::spawn(move || finish_failed_follower(&shared, 7))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !rolled_back(&shared),
            "RolledBack was reported before the promote action was cleared"
        );
        drop(held);
        failing.join().unwrap();
        assert!(rolled_back(&shared));
        assert!(shared.promote_action.lock().is_none());
        assert_eq!(shared.timeline.stage(), Stage::SingleLeader);
    }
}
