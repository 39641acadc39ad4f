use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsl::RuleSet;
use dsu::{Version, VersionRegistry};
use mve::{LockstepMode, VariantOs};
use obs::{MetricsRegistry, Obs};
use parking_lot::Mutex;
use vos::VirtualKernel;

use crate::error::MvedsuaError;
use crate::package::UpdatePackage;
use crate::runner::{notice_hook, run_variant, ForkJob, Shared};
use crate::stage::{Stage, Timeline, TimelineEntry, TimelineEvent};

/// Tunables of an MVEDSUA session.
#[derive(Clone, Copy, Debug)]
pub struct MvedsuaConfig {
    /// Ring-buffer capacity in records (the paper's default is 256; its
    /// Figure 7 sweeps 2^10, 2^20, 2^24).
    pub ring_capacity: usize,
    /// Run the updated-leader stage (t5–t6) with reverse rules. `false`
    /// bypasses it: promotion immediately retires the old version, as
    /// the paper permits when reverse mappings are impractical (§3.2)
    /// and as its update-time experiment configures (§6.1).
    pub monitor_after_promote: bool,
    /// Leader/follower synchronization; `Some` models the MUC and Mx
    /// baselines instead of Varan's decoupled design.
    pub lockstep: Option<LockstepMode>,
    /// Chaos-harness perturbation: deterministic follower lag applied to
    /// the new-version follower while it drains the leader's ring.
    pub follower_lag: Option<mve::LagPlan>,
    /// Chaos-harness perturbation: stall every Nth ring pop for the given
    /// number of nanoseconds (`(every, nanos)`); `None` disables it.
    pub ring_pop_stall: Option<(u64, u64)>,
}

impl Default for MvedsuaConfig {
    fn default() -> Self {
        MvedsuaConfig {
            ring_capacity: 256,
            monitor_after_promote: true,
            lockstep: None,
            follower_lag: None,
            ring_pop_stall: None,
        }
    }
}

/// Final report of a session: the full timeline and closing stage.
#[derive(Clone, Debug)]
pub struct SessionReport {
    pub entries: Vec<TimelineEntry>,
    pub final_stage: Stage,
}

impl SessionReport {
    /// Renders the timeline as human-readable text (milliseconds since
    /// kernel boot).
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for entry in &self.entries {
            let ms = entry.at_nanos as f64 / 1e6;
            let _ = writeln!(out, "[{ms:10.3} ms] {:?}", entry.event);
        }
        let _ = writeln!(out, "final stage: {}", self.final_stage);
        out
    }

    /// Convenience: does the timeline contain an event matching `pred`?
    pub fn contains(&self, mut pred: impl FnMut(&TimelineEvent) -> bool) -> bool {
        self.entries.iter().any(|e| pred(&e.event))
    }
}

/// A running MVEDSUA session: one application, one virtual kernel, and
/// the update lifecycle of the paper's Figure 2. See the crate docs.
pub struct Mvedsua {
    shared: Arc<Shared>,
}

impl Mvedsua {
    /// Boots `initial` in single-leader mode and starts serving, with a
    /// flight-recorder handle threaded into every variant: syscall
    /// interposition, ring crossings and transformer runs. Pass
    /// [`Obs::disabled`] to run without a recorder, at no cost.
    ///
    /// # Errors
    /// [`MvedsuaError::Dsu`] if the version is not in the registry.
    pub fn launch_observed(
        kernel: Arc<VirtualKernel>,
        registry: Arc<VersionRegistry>,
        initial: Version,
        config: MvedsuaConfig,
        obs: Obs,
    ) -> Result<Mvedsua, MvedsuaError> {
        install_quiet_panic_hook();
        let app = registry.boot(&initial)?;
        let timeline = Arc::new(Timeline::new(kernel.clone()));
        let shared = Arc::new(Shared {
            kernel: kernel.clone(),
            registry,
            timeline: timeline.clone(),
            config,
            stop: AtomicBool::new(false),
            fork_slot: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
            rings: Mutex::new(Vec::new()),
            active_update: Mutex::new(None),
            versions: Mutex::new(HashMap::from([(0, initial.clone())])),
            leader_version: Mutex::new(initial.clone()),
            next_variant: AtomicU32::new(1),
            obs: obs.clone(),
            variant_stats: Mutex::new(Vec::new()),
        });
        timeline.record(TimelineEvent::Launched {
            version: initial.clone(),
        });
        let mut os = VariantOs::single(0, kernel, Some(notice_hook(&shared)));
        os.set_obs(obs);
        shared.variant_stats.lock().push((0, os.stats()));

        let runner_shared = shared.clone();
        let runner = std::thread::Builder::new()
            .name("mvedsua-variant-0".to_string())
            .spawn(move || run_variant(runner_shared, app, os))
            .expect("spawn variant runner");
        shared.threads.lock().push(runner);
        Ok(Mvedsua { shared })
    }

    /// The kernel clients connect through.
    pub fn kernel(&self) -> Arc<VirtualKernel> {
        self.shared.kernel.clone()
    }

    /// The shared, waitable event log.
    pub fn timeline(&self) -> Arc<Timeline> {
        self.shared.timeline.clone()
    }

    /// Current lifecycle stage.
    pub fn stage(&self) -> Stage {
        self.shared.timeline.stage()
    }

    /// The version currently *leading* (serving clients).
    pub fn active_version(&self) -> Version {
        self.shared.leader_version.lock().clone()
    }

    /// Ring-buffer statistics of the in-flight update, if any (occupancy
    /// high-water mark and leader stall time — Figure 7's quantities).
    pub fn update_ring_stats(&self) -> Option<ring::RingStats> {
        self.shared
            .active_update
            .lock()
            .as_ref()
            .map(|a| a.ring_a.stats())
    }

    /// The session's flight-recorder handle (the one passed to
    /// [`Mvedsua::launch_observed`]).
    pub fn obs(&self) -> Obs {
        self.shared.obs.clone()
    }

    /// Aggregates every layer's ad-hoc counters into one registry:
    /// per-variant syscall accounting ([`mve::SyscallStats`]), per-ring
    /// occupancy and stall statistics, lifecycle counts and pause
    /// histograms derived from the timeline, and the recorder's own
    /// bookkeeping. Cheap enough to call repeatedly; each call builds a
    /// fresh snapshot.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        for (id, stats) in self.shared.variant_stats.lock().iter() {
            stats.merge_into(&reg, &format!("variant.{id}.syscalls"));
            stats.merge_into(&reg, "syscalls");
        }
        for (i, ring) in self.shared.rings.lock().iter().enumerate() {
            ring.stats().merge_into(&reg, &format!("ring.{i}"));
            ring.stats().merge_into(&reg, "ring");
        }
        for entry in &self.shared.timeline.entries() {
            match &entry.event {
                TimelineEvent::Forked { snapshot_nanos } => {
                    reg.counter_add("updates.forked", 1);
                    reg.observe("updates.snapshot_pause_nanos", *snapshot_nanos);
                }
                TimelineEvent::UpdateCompleted { xform_nanos } => {
                    reg.counter_add("updates.completed", 1);
                    reg.observe("updates.xform_nanos", *xform_nanos);
                }
                TimelineEvent::UpdateFailed { .. } => reg.counter_add("updates.failed", 1),
                TimelineEvent::UpdateAbandoned => reg.counter_add("updates.abandoned", 1),
                TimelineEvent::RolledBack => reg.counter_add("updates.rolled_back", 1),
                TimelineEvent::Promoted { .. } => reg.counter_add("updates.promoted", 1),
                TimelineEvent::Diverged { .. } => reg.counter_add("variants.diverged", 1),
                TimelineEvent::Crashed { .. } => reg.counter_add("variants.crashed", 1),
                TimelineEvent::Retired { .. } => reg.counter_add("variants.retired", 1),
                _ => {}
            }
        }
        reg.gauge_set(
            "session.timeline_entries",
            self.shared.timeline.len() as u64,
        );
        match self.shared.obs.recorder() {
            Some(rec) => {
                reg.gauge_set("obs.enabled", 1);
                reg.counter_add("obs.events_recorded", rec.recorded());
                reg.counter_add("obs.events_evicted", rec.evicted());
                reg.counter_add("obs.rule_matches", rec.rule_matches());
            }
            None => reg.gauge_set("obs.enabled", 0),
        }
        reg
    }

    /// Queues a dynamic update (paper t1): at the leader's next quiescent
    /// update point it forks, applies the update to the forked follower,
    /// and starts monitoring. Returns as soon as the request is queued.
    ///
    /// # Errors
    /// `WrongStage` unless in single-leader stage; `BadRules` if the DSL
    /// sources do not parse; `Dsu` if no update path exists.
    pub fn request_update(&self, package: UpdatePackage) -> Result<(), MvedsuaError> {
        let stage = self.stage();
        if stage != Stage::SingleLeader {
            return Err(MvedsuaError::WrongStage {
                operation: "request an update",
                stage: stage.to_string(),
            });
        }
        let fwd_rules = parse_rules(&package.fwd_rules)?;
        let rev_rules = parse_rules(&package.rev_rules)?;
        if package.transformer_override.is_none() {
            let from = self.active_version();
            self.shared.registry.update_spec(&from, &package.to)?;
        }
        self.lint_package(&package, &fwd_rules, &rev_rules)?;
        self.shared.timeline.record(TimelineEvent::UpdateRequested {
            to: package.to.clone(),
        });
        let mut slot = self.shared.fork_slot.lock();
        if slot.is_some() {
            return Err(MvedsuaError::Dsu(dsu::UpdateError::UpdateInProgress));
        }
        *slot = Some(ForkJob {
            package,
            fwd_rules: Arc::new(fwd_rules),
            rev_rules: Arc::new(rev_rules),
            attempts: 0,
        });
        Ok(())
    }

    /// The `rulecheck` deployment gate: static analysis of the package at
    /// prepare time, strictly before the fork. Lints both rule programs
    /// against the syscall event vocabulary and the package's builtins,
    /// then checks the registry's version-graph coverage, the stage
    /// plan's legality, and the rules' match-window requirements against
    /// the ring capacity. Error-severity findings reject the update — the
    /// follower is never created, so there is nothing to roll back.
    fn lint_package(
        &self,
        package: &UpdatePackage,
        fwd_rules: &RuleSet,
        rev_rules: &RuleSet,
    ) -> Result<(), MvedsuaError> {
        let events = mve::event_signatures();
        let ctx = dsl::AnalysisContext::new()
            .with_events(&events)
            .with_builtins(&package.builtins);
        let mut diags = dsl::Diagnostics::new();
        for src in [&package.fwd_rules, &package.rev_rules] {
            if !src.trim().is_empty() {
                diags.extend(dsl::check_source(src, &ctx));
            }
        }
        if package.transformer_override.is_none() {
            for issue in self.shared.registry.coverage_issues() {
                let code = match &issue {
                    dsu::CoverageIssue::MissingChain { .. } => "RC0601",
                    dsu::CoverageIssue::DanglingEndpoint { .. } => "RC0602",
                    dsu::CoverageIssue::DuplicateSpec { .. } => "RC0603",
                };
                diags.push(if issue.is_error() {
                    dsl::Diagnostic::error(code, issue.to_string())
                } else {
                    dsl::Diagnostic::warning(code, issue.to_string())
                });
            }
        }
        let mut plan = vec![Stage::SingleLeader, Stage::OutdatedLeader, Stage::Switching];
        if self.shared.config.monitor_after_promote {
            plan.push(Stage::UpdatedLeader);
        }
        plan.push(Stage::SingleLeader);
        for pair in plan.windows(2) {
            if !pair[0].can_transition_to(pair[1]) {
                diags.push(dsl::Diagnostic::error(
                    "RC0604",
                    format!(
                        "update plan contains an illegal stage transition {} -> {}",
                        pair[0], pair[1]
                    ),
                ));
            }
        }
        for (which, rules) in [("forward", fwd_rules), ("reverse", rev_rules)] {
            let window = rules.max_window();
            if window > self.shared.config.ring_capacity {
                diags.push(dsl::Diagnostic::error(
                    "RC0605",
                    format!(
                        "{which} rules need a match window of {window} events \
                         but the ring holds only {} records",
                        self.shared.config.ring_capacity
                    ),
                ));
            }
        }
        if diags.has_errors() {
            self.shared.timeline.record(TimelineEvent::UpdateRejected {
                errors: diags.error_count(),
            });
            return Err(MvedsuaError::BadRules(diags));
        }
        Ok(())
    }

    /// Requests an update and monitors it for `warmup`: returns `Ok`
    /// only if the update forked, completed on the follower, and
    /// survived the window without a rollback.
    ///
    /// # Errors
    /// `UpdateDidNotStart` for timing errors (retryable — the paper §6.2
    /// retried after 500 ms until success), `RolledBack` with the
    /// recorded reason when monitoring killed the update.
    pub fn update_monitored(
        &self,
        package: UpdatePackage,
        warmup: Duration,
    ) -> Result<(), MvedsuaError> {
        let timeline = self.timeline();
        let base = timeline.len();
        self.request_update(package)?;
        let started = timeline.wait_for(Duration::from_secs(30), |entries| {
            entries[base..].iter().any(|e| {
                matches!(
                    e.event,
                    TimelineEvent::Forked { .. } | TimelineEvent::UpdateAbandoned
                )
            })
        });
        let aborted = |entries: &[TimelineEntry]| {
            entries[base..]
                .iter()
                .any(|e| matches!(e.event, TimelineEvent::UpdateAbandoned))
        };
        if !started || aborted(&timeline.entries()) {
            // Make sure no half-queued job lingers.
            self.shared.fork_slot.lock().take();
            return Err(MvedsuaError::UpdateDidNotStart);
        }
        let rolled_back = timeline.wait_for(warmup, |entries| {
            entries[base..]
                .iter()
                .any(|e| matches!(e.event, TimelineEvent::RolledBack))
        });
        if rolled_back {
            let reason = timeline.entries()[base..]
                .iter()
                .filter_map(|e| match &e.event {
                    TimelineEvent::Diverged { description, .. } => Some(description.clone()),
                    TimelineEvent::Crashed { message, .. } => Some(format!("crash: {message}")),
                    TimelineEvent::UpdateFailed { reason } => Some(reason.clone()),
                    _ => None,
                })
                .next_back()
                .unwrap_or_else(|| "unknown".to_string());
            return Err(MvedsuaError::RolledBack(reason));
        }
        Ok(())
    }

    /// Promotes the updated version (paper t4): the current leader
    /// appends a demotion marker and becomes the follower (or retires,
    /// when the updated-leader stage is bypassed); the updated version
    /// takes over as leader once it drains the backlog (t5).
    ///
    /// # Errors
    /// `WrongStage` unless an update is being monitored.
    pub fn promote(&self) -> Result<(), MvedsuaError> {
        let stage = self.stage();
        if stage != Stage::OutdatedLeader {
            return Err(MvedsuaError::WrongStage {
                operation: "promote",
                stage: stage.to_string(),
            });
        }
        let action = self
            .shared
            .active_update
            .lock()
            .as_mut()
            .and_then(|active| active.promote.take())
            .ok_or(MvedsuaError::WrongStage {
                operation: "promote",
                stage: stage.to_string(),
            })?;
        self.shared.timeline.record(TimelineEvent::PromoteRequested);
        *action.slot.lock() = Some(action.config);
        Ok(())
    }

    /// Commits the update (paper t6): terminates the outdated follower
    /// and returns to single-leader mode.
    ///
    /// # Errors
    /// `WrongStage` while the old version still leads — promote (or roll
    /// back) first.
    pub fn finalize(&self) -> Result<(), MvedsuaError> {
        let stage = self.stage();
        if matches!(stage, Stage::OutdatedLeader) {
            return Err(MvedsuaError::WrongStage {
                operation: "finalize",
                stage: stage.to_string(),
            });
        }
        let Some(active) = self.shared.active_update.lock().take() else {
            return Err(MvedsuaError::WrongStage {
                operation: "finalize",
                stage: stage.to_string(),
            });
        };
        if let Some(ring_b) = active.ring_b {
            ring_b.poison();
        }
        Ok(())
    }

    /// Aborts a monitored update (operator-initiated rollback): the
    /// follower is terminated, the leader reverts to single mode, and —
    /// since the leader processed every request natively — no state is
    /// lost.
    ///
    /// # Errors
    /// `WrongStage` unless in the outdated-leader stage.
    pub fn rollback(&self) -> Result<(), MvedsuaError> {
        let stage = self.stage();
        if stage != Stage::OutdatedLeader {
            return Err(MvedsuaError::WrongStage {
                operation: "roll back",
                stage: stage.to_string(),
            });
        }
        let Some(active) = self.shared.active_update.lock().take() else {
            return Err(MvedsuaError::WrongStage {
                operation: "roll back",
                stage: stage.to_string(),
            });
        };
        active.ring_a.poison();
        self.shared.timeline.set_stage(Stage::SingleLeader);
        self.shared.timeline.record(TimelineEvent::RolledBack);
        Ok(())
    }

    /// Stops everything and returns the session report. Idempotent with
    /// respect to already-dead variants. [`Mvedsua::metrics`] still reads
    /// the stopped session.
    pub fn shutdown(&self) -> SessionReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.fork_slot.lock().take();
        self.shared.timeline.record(TimelineEvent::SessionShutdown);
        self.shared.poison_all_rings();
        loop {
            let handle = self.shared.threads.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        SessionReport {
            entries: self.shared.timeline.entries(),
            final_stage: self.shared.timeline.stage(),
        }
    }
}

impl fmt::Debug for Mvedsua {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mvedsua")
            .field("stage", &self.stage())
            .field("active_version", &self.active_version().to_string())
            .finish()
    }
}

/// Variant retirement and divergence travel as typed panics
/// ([`mve::RetiredSignal`]); they are protocol, not bugs, so the default
/// hook's backtrace spam is suppressed for them (once, process-wide).
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if mve::RetiredSignal::from_payload(info.payload()).is_none() {
                previous(info);
            }
        }));
    });
}

fn parse_rules(src: &str) -> Result<RuleSet, MvedsuaError> {
    if src.trim().is_empty() {
        Ok(RuleSet::empty())
    } else {
        RuleSet::parse(src).map_err(|e| {
            let mut diags = dsl::Diagnostics::new();
            diags.push(dsl::parse_diagnostic(&e));
            MvedsuaError::BadRules(diags)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsu::{
        AppState, DsuApp, IdentityTransformer, StepOutcome, UpdateError, UpdateSpec, VersionEntry,
    };
    use std::sync::Arc;
    use vos::Os;

    /// A minimal DSU app whose only syscall traffic is `now()`; enough
    /// to drive the whole lifecycle without network plumbing (the full
    /// server lifecycles are exercised in the workspace-level
    /// integration tests).
    struct Ticker {
        version: Version,
        ticks: u64,
        crash_at: Option<u64>,
    }

    impl DsuApp for Ticker {
        fn version(&self) -> &Version {
            &self.version
        }

        fn step(&mut self, os: &mut dyn Os) -> StepOutcome {
            let _ = os.now();
            self.ticks += 1;
            if Some(self.ticks) == self.crash_at {
                panic!("ticker crashed at {}", self.ticks);
            }
            // Pace the loop so tests don't spin a core flat out.
            std::thread::sleep(Duration::from_micros(200));
            StepOutcome::Progress
        }

        fn snapshot(&self) -> AppState {
            AppState::new(self.ticks)
        }

        fn into_state(self: Box<Self>) -> AppState {
            AppState::new(self.ticks)
        }
    }

    fn registry(crash_v2_at: Option<u64>) -> Arc<VersionRegistry> {
        let mut r = VersionRegistry::new();
        r.register_version(VersionEntry::new(
            dsu::v("1.0"),
            || {
                Box::new(Ticker {
                    version: dsu::v("1.0"),
                    ticks: 0,
                    crash_at: None,
                })
            },
            |state| {
                Ok(Box::new(Ticker {
                    version: dsu::v("1.0"),
                    ticks: state
                        .downcast()
                        .map_err(|_| UpdateError::StateTypeMismatch)?,
                    crash_at: None,
                }))
            },
        ));
        r.register_version(VersionEntry::new(
            dsu::v("2.0"),
            move || {
                Box::new(Ticker {
                    version: dsu::v("2.0"),
                    ticks: 0,
                    crash_at: crash_v2_at,
                })
            },
            move |state| {
                Ok(Box::new(Ticker {
                    version: dsu::v("2.0"),
                    ticks: state
                        .downcast()
                        .map_err(|_| UpdateError::StateTypeMismatch)?,
                    crash_at: crash_v2_at,
                }))
            },
        ));
        r.register_update(UpdateSpec::new("1.0", "2.0", Arc::new(IdentityTransformer)));
        Arc::new(r)
    }

    /// Launches version 1.0 of `registry` on a fresh kernel, with no
    /// recorder.
    fn boot(registry: Arc<VersionRegistry>, config: MvedsuaConfig) -> Mvedsua {
        Mvedsua::launch_observed(
            VirtualKernel::new(),
            registry,
            dsu::v("1.0"),
            config,
            Obs::disabled(),
        )
        .unwrap()
    }

    /// Launches version 1.0 of `registry(None)` with a flight recorder
    /// on the kernel clock.
    fn boot_observed() -> (Mvedsua, Arc<obs::FlightRecorder>) {
        let kernel = VirtualKernel::new();
        let recorder = obs::FlightRecorder::new(256, kernel.clone() as Arc<dyn obs::TimeSource>);
        let session = Mvedsua::launch_observed(
            kernel,
            registry(None),
            dsu::v("1.0"),
            MvedsuaConfig::default(),
            Obs::enabled(recorder.clone()),
        )
        .unwrap();
        (session, recorder)
    }

    #[test]
    fn full_lifecycle_update_promote_finalize() {
        let session = boot(registry(None), MvedsuaConfig::default());
        assert_eq!(session.stage(), Stage::SingleLeader);
        assert_eq!(session.active_version(), dsu::v("1.0"));

        session
            .update_monitored(
                UpdatePackage::new(dsu::v("2.0")),
                Duration::from_millis(100),
            )
            .unwrap();
        assert_eq!(session.stage(), Stage::OutdatedLeader);
        assert_eq!(session.active_version(), dsu::v("1.0"), "old version leads");

        session.promote().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
        assert_eq!(session.active_version(), dsu::v("2.0"));

        session.finalize().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
        assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
            es.iter()
                .any(|e| matches!(e.event, TimelineEvent::Retired { .. }))
        }));

        let report = session.shutdown();
        assert!(report.contains(|e| matches!(e, TimelineEvent::Forked { .. })));
        assert!(report.contains(|e| matches!(e, TimelineEvent::UpdateCompleted { .. })));
        assert!(report.contains(|e| matches!(e, TimelineEvent::Promoted { .. })));
        assert!(report.contains(|e| matches!(e, TimelineEvent::Retired { .. })));
        assert!(!report.contains(|e| matches!(e, TimelineEvent::RolledBack)));
        let text = report.render();
        assert!(text.contains("final stage"), "{text}");
    }

    #[test]
    fn observed_lifecycle_records_events_and_metrics() {
        let (session, recorder) = boot_observed();
        session
            .update_monitored(
                UpdatePackage::new(dsu::v("2.0")),
                Duration::from_millis(100),
            )
            .unwrap();
        session.promote().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
        session.finalize().unwrap();
        assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
            es.iter()
                .any(|e| matches!(e.event, TimelineEvent::Retired { .. }))
        }));

        // The timeline, the session's one log, has the stage changes.
        assert!(
            session.timeline().entries().iter().any(|e| matches!(
                e.event,
                TimelineEvent::StageChanged {
                    stage: Stage::Switching
                }
            )),
            "stage change missing: {:?}",
            session.timeline().entries()
        );
        // The transformer run landed on the follower's lane (variant 1).
        assert!(
            recorder
                .lane_canonical(1)
                .iter()
                .any(|e| matches!(&e.kind, obs::ObsKind::Transform { ok: true, .. })),
            "transform event missing"
        );
        assert!(recorder.recorded() > 0);

        let metrics = session.metrics();
        assert_eq!(metrics.counter("updates.forked"), 1);
        assert_eq!(metrics.counter("updates.completed"), 1);
        assert_eq!(metrics.counter("updates.rolled_back"), 0);
        assert_eq!(metrics.counter("obs.enabled"), 1);
        assert!(metrics.counter("syscalls.total") > 0, "syscalls aggregated");
        assert!(
            metrics.counter("ring.pushed") > 0,
            "ring stats aggregated:\n{}",
            metrics.render_text()
        );
        session.shutdown();
    }

    #[test]
    fn unobserved_metrics_report_recorder_disabled() {
        let session = boot(registry(None), MvedsuaConfig::default());
        let metrics = session.metrics();
        assert_eq!(metrics.counter("obs.enabled"), 0);
        assert_eq!(metrics.counter("updates.forked"), 0);
        session.shutdown();
    }

    #[test]
    fn operator_rollback_reverts_to_old_version() {
        let session = boot(registry(None), MvedsuaConfig::default());
        session
            .update_monitored(UpdatePackage::new(dsu::v("2.0")), Duration::from_millis(50))
            .unwrap();
        session.rollback().unwrap();
        assert_eq!(session.stage(), Stage::SingleLeader);
        assert_eq!(session.active_version(), dsu::v("1.0"));
        // The terminated follower notices the poisoned ring and retires.
        assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
            es.iter()
                .any(|e| matches!(e.event, TimelineEvent::Retired { .. }))
        }));
        let report = session.shutdown();
        assert!(report.contains(|e| matches!(e, TimelineEvent::RolledBack)));
    }

    #[test]
    fn follower_crash_rolls_back_automatically() {
        // v2 crashes shortly after it starts replaying.
        let session = boot(registry(Some(20)), MvedsuaConfig::default());
        let err = session
            .update_monitored(UpdatePackage::new(dsu::v("2.0")), Duration::from_secs(5))
            .unwrap_err();
        match err {
            MvedsuaError::RolledBack(reason) => {
                assert!(reason.contains("crash"), "{reason}")
            }
            other => panic!("expected rollback, got {other}"),
        }
        // Old version still serving.
        assert!(session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
        assert_eq!(session.active_version(), dsu::v("1.0"));
        session.shutdown();
    }

    #[test]
    fn failed_transformer_rolls_back_before_new_version_runs() {
        let (session, recorder) = boot_observed();
        let package =
            UpdatePackage::new(dsu::v("2.0"))
                .with_transformer(Arc::new(dsu::FnTransformer::new("always fails", |_| {
                    Err(UpdateError::XformFailed("injected xform bug".into()))
                })));
        let err = session
            .update_monitored(package, Duration::from_secs(5))
            .unwrap_err();
        match err {
            MvedsuaError::RolledBack(reason) => assert!(reason.contains("injected"), "{reason}"),
            other => panic!("expected rollback, got {other}"),
        }
        assert_eq!(session.active_version(), dsu::v("1.0"));
        let report = session.shutdown();

        // The failed run is a canonical event on the follower's lane...
        let follower = recorder.lane_canonical(1);
        assert!(
            follower.iter().any(|e| matches!(
                &e.kind,
                obs::ObsKind::Transform { description, ok: false, .. } if description == "always fails"
            )),
            "failed transform missing: {follower:?}"
        );
        // ...and the timeline has the failure, then the rollback.
        let position =
            |pred: fn(&TimelineEvent) -> bool| report.entries.iter().position(|e| pred(&e.event));
        let failed = position(|e| matches!(e, TimelineEvent::UpdateFailed { .. }));
        let rolled_back = position(|e| matches!(e, TimelineEvent::RolledBack));
        assert!(
            failed.is_some() && failed < rolled_back,
            "{}",
            report.render()
        );
    }

    #[test]
    fn wrong_stage_operations_are_rejected() {
        let session = boot(registry(None), MvedsuaConfig::default());
        assert!(matches!(
            session.promote().unwrap_err(),
            MvedsuaError::WrongStage { .. }
        ));
        assert!(matches!(
            session.rollback().unwrap_err(),
            MvedsuaError::WrongStage { .. }
        ));
        assert!(matches!(
            session.finalize().unwrap_err(),
            MvedsuaError::WrongStage { .. }
        ));
        // Updating to an unknown path is caught up front.
        assert!(matches!(
            session.request_update(UpdatePackage::new(dsu::v("9.9"))),
            Err(MvedsuaError::Dsu(UpdateError::NoUpdatePath { .. }))
        ));
        // Malformed rules are caught up front.
        assert!(matches!(
            session.request_update(UpdatePackage::new(dsu::v("2.0")).with_fwd_rules("rule {")),
            Err(MvedsuaError::BadRules(_))
        ));
        session.shutdown();
    }

    #[test]
    fn rulecheck_gate_rejects_bad_rules_before_the_fork() {
        let session = boot(registry(None), MvedsuaConfig::default());
        // `frobnicate` is not in the syscall vocabulary and `undefined`
        // is not bound by any pattern — two error-severity findings in a
        // program that parses fine.
        let bad = "rule planted { on frobnicate(x) => write(x, undefined, 1) }";
        let err = session
            .request_update(UpdatePackage::new(dsu::v("2.0")).with_fwd_rules(bad))
            .unwrap_err();
        let diags = match err {
            MvedsuaError::BadRules(diags) => diags,
            other => panic!("expected BadRules, got {other}"),
        };
        assert!(diags.iter().any(|d| d.code == "RC0201"), "{diags}");
        assert!(diags.iter().any(|d| d.code == "RC0101"), "{diags}");
        // Rejected at prepare time: no request recorded, no fork, no
        // rollback — the leader never noticed.
        assert_eq!(session.stage(), Stage::SingleLeader);
        assert_eq!(session.active_version(), dsu::v("1.0"));
        let report = session.shutdown();
        assert!(report.contains(|e| matches!(e, TimelineEvent::UpdateRejected { errors: 2 })));
        assert!(!report.contains(|e| matches!(e, TimelineEvent::UpdateRequested { .. })));
        assert!(!report.contains(|e| matches!(e, TimelineEvent::Forked { .. })));
        assert!(!report.contains(|e| matches!(e, TimelineEvent::RolledBack)));
    }

    #[test]
    fn rulecheck_gate_rejects_windows_wider_than_the_ring() {
        let session = boot(
            registry(None),
            MvedsuaConfig {
                ring_capacity: 2,
                ..MvedsuaConfig::default()
            },
        );
        // Three-event window against a two-record ring: the matcher
        // could never hold a candidate match.
        let wide = "rule wide { on read(a, b, c), read(d, e, f2), read(g, h, i) => nothing }";
        let err = session
            .request_update(UpdatePackage::new(dsu::v("2.0")).with_rev_rules(wide))
            .unwrap_err();
        match err {
            MvedsuaError::BadRules(diags) => {
                assert!(diags.iter().any(|d| d.code == "RC0605"), "{diags}");
            }
            other => panic!("expected BadRules, got {other}"),
        }
        session.shutdown();
    }

    #[test]
    fn rulecheck_gate_reports_missing_chains_and_duplicate_specs() {
        let mut r = (*registry(None)).clone();
        // 3.0 is registered but nothing chains 2.0 -> 3.0 (RC0601), and
        // a duplicated 1.0 -> 2.0 spec is dead weight (RC0603 warning,
        // surfaced alongside the error).
        r.register_version(VersionEntry::new(
            dsu::v("3.0"),
            || {
                Box::new(Ticker {
                    version: dsu::v("3.0"),
                    ticks: 0,
                    crash_at: None,
                })
            },
            |_| Err(UpdateError::StateTypeMismatch),
        ));
        r.register_update(UpdateSpec::new("1.0", "2.0", Arc::new(IdentityTransformer)));
        let session = boot(Arc::new(r), MvedsuaConfig::default());
        let err = session
            .request_update(UpdatePackage::new(dsu::v("2.0")))
            .unwrap_err();
        match err {
            MvedsuaError::BadRules(diags) => {
                assert!(diags.iter().any(|d| d.code == "RC0601"), "{diags}");
                assert!(diags.iter().any(|d| d.code == "RC0603"), "{diags}");
            }
            other => panic!("expected BadRules, got {other}"),
        }
        session.shutdown();
    }

    #[test]
    fn rulecheck_gate_rejects_registry_coverage_holes() {
        // A spec pointing at a version nobody registered poisons the
        // whole version graph; deployment is refused until it is fixed.
        let mut r = (*registry(None)).clone();
        r.register_update(UpdateSpec::new("2.0", "9.9", Arc::new(IdentityTransformer)));
        let session = boot(Arc::new(r), MvedsuaConfig::default());
        let err = session
            .request_update(UpdatePackage::new(dsu::v("2.0")))
            .unwrap_err();
        match err {
            MvedsuaError::BadRules(diags) => {
                assert!(diags.iter().any(|d| d.code == "RC0602"), "{diags}");
            }
            other => panic!("expected BadRules, got {other}"),
        }
        session.shutdown();
    }

    #[test]
    fn second_update_while_monitoring_is_rejected() {
        let session = boot(registry(None), MvedsuaConfig::default());
        session
            .update_monitored(UpdatePackage::new(dsu::v("2.0")), Duration::from_millis(50))
            .unwrap();
        assert!(matches!(
            session.request_update(UpdatePackage::new(dsu::v("2.0"))),
            Err(MvedsuaError::WrongStage { .. })
        ));
        session.shutdown();
    }

    #[test]
    fn never_quiescent_app_abandons_the_update() {
        // The paper's timing error at the controller level: an app that
        // never reaches a safe point exhausts the quiescence budget and
        // the update is abandoned, retryable.
        struct Busy {
            version: Version,
        }
        impl dsu::DsuApp for Busy {
            fn version(&self) -> &Version {
                &self.version
            }
            fn step(&mut self, os: &mut dyn vos::Os) -> dsu::StepOutcome {
                let _ = os.now();
                std::thread::sleep(Duration::from_micros(100));
                dsu::StepOutcome::Progress
            }
            fn snapshot(&self) -> AppState {
                AppState::new(())
            }
            fn into_state(self: Box<Self>) -> AppState {
                AppState::new(())
            }
            fn quiescent(&self) -> bool {
                false // e.g. a lock held across every update point
            }
        }
        let mut r = VersionRegistry::new();
        r.register_version(VersionEntry::new(
            dsu::v("1.0"),
            || {
                Box::new(Busy {
                    version: dsu::v("1.0"),
                })
            },
            |_| {
                Ok(Box::new(Busy {
                    version: dsu::v("1.0"),
                }))
            },
        ));
        r.register_update(UpdateSpec::new("1.0", "1.0", Arc::new(IdentityTransformer)));
        let session = boot(Arc::new(r), MvedsuaConfig::default());
        let package = UpdatePackage::new(dsu::v("1.0")).with_max_quiesce_attempts(5);
        let err = session
            .update_monitored(package, Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, MvedsuaError::UpdateDidNotStart), "{err}");
        // The session is healthy and a new request is accepted.
        assert_eq!(session.stage(), Stage::SingleLeader);
        session
            .request_update(UpdatePackage::new(dsu::v("1.0")))
            .unwrap();
        session.shutdown();
    }

    #[test]
    fn bypassing_updated_leader_stage_retires_old_version_at_promote() {
        let config = MvedsuaConfig {
            monitor_after_promote: false,
            ..MvedsuaConfig::default()
        };
        let session = boot(registry(None), config);
        session
            .update_monitored(UpdatePackage::new(dsu::v("2.0")), Duration::from_millis(50))
            .unwrap();
        session.promote().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
        assert_eq!(session.active_version(), dsu::v("2.0"));
        assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
            es.iter()
                .any(|e| matches!(e.event, TimelineEvent::Retired { variant: 0 }))
        }));
        let report = session.shutdown();
        assert!(report.contains(|e| matches!(e, TimelineEvent::Demoted { .. })));
    }
}
