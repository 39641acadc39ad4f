//! The scenario driver: boots a real MVEDSUA session, executes a
//! [`ScenarioPlan`] step by step, and checks every lifecycle invariant
//! along the way. All waits are event-driven (no timing-sensitive
//! sleeps), so the canonical trace of a run is a pure function of the
//! plan — and therefore of the seed.

use std::sync::Arc;
use std::time::Duration;

use dsu::{FaultPlan, Version, XformFault};
use mvedsua::{Mvedsua, MvedsuaConfig, MvedsuaError, Stage, TimelineEvent, UpdatePackage};
use obs::json::{self, JsonObject};
use obs::{FlightRecorder, Obs, TimeSource};
use servers::{kvstore, memcached, redis, vsftpd};
use vos::VirtualKernel;
use workload::LineClient;

use crate::model::{CanonReply, Model, MOTD};
use crate::plan::{
    Backend, ClientOp, ScenarioPlan, Special, Step, UpdateDecision, UpdateStep, SENTINEL_KEY,
    SENTINEL_VALUE,
};

/// Every scenario serves this port — each run owns a private kernel, so
/// there are no cross-run collisions.
const PORT: u16 = 9000;
/// Monitoring window passed to `update_monitored`. Short: all decisive
/// waits are event-driven, the window only needs to cover the fork.
const WARMUP: Duration = Duration::from_millis(25);
/// Ceiling for event-driven waits. Generous on purpose: it only fires
/// when something is genuinely broken.
const EVENT_WAIT: Duration = Duration::from_secs(30);
/// Flight-recorder depth per variant lane (per event class).
const OBS_CAPACITY: usize = 4096;
/// How many trailing events each lane contributes to a forensics dump.
const OBS_LAST_N: usize = 32;

/// Tunables of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Corrupt the *model's* read predictions (see [`Model::planted_bug`])
    /// to prove the failure-reporting path works end to end.
    pub planted_model_bug: bool,
    /// Execute only the first `limit` steps (the minimizer's knob).
    pub limit: Option<usize>,
    /// Attach a flight recorder to the session and produce forensics
    /// output (`obs_json`/`obs_text`/`metrics_text` on the report).
    pub obs: bool,
}

/// Outcome of a run: the canonical trace plus any invariant violations.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub seed: u64,
    pub backend: Backend,
    /// Canonical trace: header, then one line per executed step. Two
    /// runs of the same seed must produce byte-identical traces.
    pub trace: Vec<String>,
    /// Invariant violations (empty = run passed). The engine stops at
    /// the first violation, which keeps prefix minimization sound.
    pub violations: Vec<String>,
    /// Steps in the (possibly truncated) schedule.
    pub steps_total: usize,
    /// Steps actually executed before stopping.
    pub steps_run: usize,
    /// Canonical forensics dump (replay-stable JSON: seed, backend,
    /// violations, per-variant last-N semantic events aligned by ring
    /// stream position). `Some` only with [`RunOptions::obs`].
    pub obs_json: Option<String>,
    /// Human-readable dump: the session timeline, then every variant
    /// lane with both event classes. Not replay-stable (timestamps, raw
    /// sequence numbers, idle traffic).
    pub obs_text: Option<String>,
    /// Aggregated metrics (`name value` lines, sorted). Not
    /// replay-stable (wall-derived durations).
    pub metrics_text: Option<String>,
}

impl RunReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The full trace as one string (the byte-identity unit).
    pub fn render_trace(&self) -> String {
        let mut out = self.trace.join("\n");
        out.push('\n');
        out
    }
}

/// Runs the scenario sampled from `seed`.
pub fn run_seed(seed: u64) -> RunReport {
    run_plan(&ScenarioPlan::from_seed(seed), &RunOptions::default())
}

/// Runs an explicit plan (sampled, scripted, or truncated).
pub fn run_plan(plan: &ScenarioPlan, options: &RunOptions) -> RunReport {
    let mut run = Run::start(plan, options);
    let limit = options.limit.unwrap_or(plan.steps.len());
    for step in plan.steps.iter().take(limit) {
        run.steps_run += 1;
        let ok = match step {
            Step::Client(op) => run.client_step(op),
            Step::Update(update) => run.update_step(update),
        };
        if !ok {
            break;
        }
    }
    run.finish(limit)
}

struct Run<'a> {
    plan: &'a ScenarioPlan,
    session: Option<Mvedsua>,
    client: LineClient,
    model: Model,
    trace: Vec<String>,
    violations: Vec<String>,
    steps_run: usize,
}

impl<'a> Run<'a> {
    fn start(plan: &'a ScenarioPlan, options: &RunOptions) -> Run<'a> {
        let kernel = VirtualKernel::new();
        if let Some((every, nanos)) = plan.perturb.epoll_delay {
            kernel.set_epoll_delay(every, Duration::from_nanos(nanos));
        }
        if plan.backend == Backend::Vsftpd {
            kernel
                .fs()
                .write_file("/motd.txt", MOTD)
                .expect("seed motd");
        }
        // Both sampled consumer stalls slow the follower as it replays.
        let stalls: Vec<(u64, u64)> = [plan.perturb.ring_pop_stall, plan.perturb.follower_lag]
            .into_iter()
            .flatten()
            .collect();
        let config = MvedsuaConfig {
            ring_capacity: plan.perturb.ring_capacity,
            follower_lag: (!stalls.is_empty()).then_some(mve::LagPlan { stalls }),
            ..MvedsuaConfig::default()
        };
        let initial = plan.backend.chain()[0].clone();
        // The recorder is timestamped by the kernel clock so text dumps
        // line up with timeline nanos; canonical JSON never includes
        // timestamps, so replay stability does not depend on it.
        let obs = if options.obs {
            Obs::enabled(FlightRecorder::new(
                OBS_CAPACITY,
                kernel.clone() as Arc<dyn TimeSource>,
            ))
        } else {
            Obs::disabled()
        };
        let session = Mvedsua::launch_observed(kernel, build_registry(plan), initial, config, obs)
            .expect("launch scenario session");
        let client =
            LineClient::connect_retry(session.kernel(), PORT, EVENT_WAIT).expect("connect");

        let mut run = Run {
            plan,
            session: Some(session),
            client,
            model: Model::new(),
            trace: Vec::new(),
            violations: Vec::new(),
            steps_run: 0,
        };
        run.model.planted_bug = options.planted_model_bug;
        run.trace.push(format!("seed {:#018x}", plan.seed));
        run.trace.push(format!("backend {}", plan.backend.name()));
        run.trace.push(format!("perturb {}", plan.perturb.render()));

        if plan.backend == Backend::Vsftpd {
            let _banner = run.client.recv_line().expect("ftp banner");
            run.client.send_line("USER test").expect("USER");
            run.client.recv_line().expect("USER reply");
            run.client.send_line("PASS test").expect("PASS");
            let login = run.client.recv_line().expect("PASS reply");
            assert_eq!(login, "230 Login successful.", "ftp login");
        } else {
            // Plant the sentinel every fault probe reads. It predates
            // every fork, so state-transformation faults always have a
            // migrated entry to corrupt or drop.
            let reply = run.exchange(&ClientOp::Put {
                key: SENTINEL_KEY.into(),
                value: SENTINEL_VALUE.into(),
            });
            run.model.insert(SENTINEL_KEY, SENTINEL_VALUE);
            match reply {
                Ok(CanonReply::Stored) => {}
                other => panic!("sentinel write failed: {other:?}"),
            }
        }
        run
    }

    fn session(&self) -> &Mvedsua {
        self.session.as_ref().expect("session alive")
    }

    fn violate(&mut self, message: String) {
        self.trace.push(format!("VIOLATION {message}"));
        self.violations.push(message);
    }

    /// Executes one client op; returns false to stop the run.
    fn client_step(&mut self, op: &ClientOp) -> bool {
        let expected = self.model.expect(self.plan.backend, op);
        let label = render_op(op);
        match self.exchange(op) {
            Ok(got) if got == expected => {
                self.trace.push(format!("op {label} -> {}", got.render()));
                true
            }
            Ok(got) => {
                self.violate(format!(
                    "reply mismatch on {label}: got {:?}, oracle says {:?}",
                    got.render(),
                    expected.render()
                ));
                false
            }
            Err(wire) => {
                self.violate(format!("wire error on {label}: {wire}"));
                false
            }
        }
    }

    /// Executes one update step; returns false to stop the run.
    fn update_step(&mut self, update: &UpdateStep) -> bool {
        let timeline = self.session().timeline();
        let base = timeline.len();
        let label = format!(
            "update {}->{} fault={}",
            update.from,
            update.to,
            update.fault.encode()
        );
        if self.session().active_version() != update.from {
            self.violate(format!(
                "{label}: expected to start from {}, active is {}",
                update.from,
                self.session().active_version()
            ));
            return false;
        }
        let result = self.monitored_with_retry(update);
        match update.decision {
            UpdateDecision::PromoteFinalize => {
                if let Err(e) = result {
                    self.violate(format!("{label}: clean update failed: {e}"));
                    return false;
                }
                let session = self.session();
                if session.promote().is_err()
                    || !session
                        .timeline()
                        .wait_for_stage(Stage::UpdatedLeader, EVENT_WAIT)
                    || session.finalize().is_err()
                    || !session
                        .timeline()
                        .wait_for_stage(Stage::SingleLeader, EVENT_WAIT)
                {
                    self.violate(format!("{label}: promote/finalize did not complete"));
                    return false;
                }
                if self.session().active_version() != update.to {
                    self.violate(format!(
                        "{label}: promoted but active version is {}",
                        self.session().active_version()
                    ));
                    return false;
                }
                self.trace.push(format!("{label} -> promoted"));
                true
            }
            UpdateDecision::OperatorRollback => {
                if let Err(e) = result {
                    self.violate(format!("{label}: clean update failed: {e}"));
                    return false;
                }
                if self.session().rollback().is_err() {
                    self.violate(format!("{label}: rollback rejected"));
                    return false;
                }
                self.check_rolled_back(&label, &update.from, "operator")
            }
            UpdateDecision::FaultAwait => {
                // The update may already have died (clean transformer
                // failures, early poison) — or the fault is still latent
                // and needs a probing read to trigger the divergence.
                if result.is_ok()
                    && fault_needs_probe(&update.fault)
                    && !self.send_probe(&update.fault)
                {
                    return false;
                }
                let rolled_back = self
                    .session()
                    .timeline()
                    .wait_for(EVENT_WAIT, move |entries| {
                        entries[base..]
                            .iter()
                            .any(|e| matches!(e.event, TimelineEvent::RolledBack))
                    });
                if !rolled_back {
                    self.violate(format!("{label}: fault never rolled back"));
                    return false;
                }
                self.check_rolled_back(&label, &update.from, "fault")
            }
            UpdateDecision::LeaderCrashPromote => {
                if let Err(e) = result {
                    self.violate(format!("{label}: monitored update failed: {e}"));
                    return false;
                }
                // The probe crashes the *buggy old leader*; the updated
                // follower drains the ring (including this request),
                // takes over, and answers it.
                if !self.send_probe(&FaultPlan {
                    buggy_new_code: true,
                    ..FaultPlan::none()
                }) {
                    return false;
                }
                let crashed = self
                    .session()
                    .timeline()
                    .wait_for(EVENT_WAIT, move |entries| {
                        entries[base..]
                            .iter()
                            .any(|e| matches!(e.event, TimelineEvent::Crashed { variant: 0, .. }))
                    });
                let single = self
                    .session()
                    .timeline()
                    .wait_for_stage(Stage::SingleLeader, EVENT_WAIT);
                if !crashed || !single {
                    self.violate(format!("{label}: leader crash did not promote"));
                    return false;
                }
                if self.session().active_version() != update.to {
                    self.violate(format!(
                        "{label}: crash promotion left active version {}",
                        self.session().active_version()
                    ));
                    return false;
                }
                self.trace
                    .push(format!("{label} -> leader crashed, follower promoted"));
                true
            }
        }
    }

    /// Sends the read that makes a latent fault manifest. Its reply is
    /// still served by the (healthy) leader, so it is also checked
    /// against the oracle.
    fn send_probe(&mut self, fault: &FaultPlan) -> bool {
        if fault.buggy_new_code {
            // The §6.2 Redis case: HMGET on a string key. The correct
            // reply is -WRONGTYPE; the buggy variant segfaults instead.
            if let Err(e) = self.client.send_line(&format!("HMGET {SENTINEL_KEY} f")) {
                self.violate(format!("probe send failed: {e:?}"));
                return false;
            }
            match self.client.recv_line() {
                Ok(line) if line.starts_with("-WRONGTYPE") => {
                    self.trace.push("probe hmget -> wrongtype".into());
                    true
                }
                Ok(line) => {
                    self.violate(format!("probe hmget: unexpected reply {line:?}"));
                    false
                }
                Err(e) => {
                    self.violate(format!("probe hmget: recv failed: {e:?}"));
                    false
                }
            }
        } else {
            // State-transformation faults manifest when migrated state
            // is read: the leader still has the sentinel, the follower
            // dropped or corrupted it.
            self.client_step(&ClientOp::Get {
                key: SENTINEL_KEY.into(),
            })
        }
    }

    /// After any rollback: the stage must return to single-leader and
    /// the active version must be exactly what it was before the update
    /// (the paper's "rollback is invisible" guarantee).
    fn check_rolled_back(&mut self, label: &str, from: &Version, kind: &str) -> bool {
        if !self
            .session()
            .timeline()
            .wait_for_stage(Stage::SingleLeader, EVENT_WAIT)
        {
            self.violate(format!("{label}: rollback did not restore single-leader"));
            return false;
        }
        if &self.session().active_version() != from {
            self.violate(format!(
                "{label}: rollback changed the active version to {}",
                self.session().active_version()
            ));
            return false;
        }
        self.trace.push(format!("{label} -> rolled-back ({kind})"));
        true
    }

    /// `update_monitored`, retrying timing-error aborts the way the
    /// paper's operators did (§6.2 retried until the fork landed).
    fn monitored_with_retry(&mut self, update: &UpdateStep) -> Result<(), MvedsuaError> {
        for _ in 0..400 {
            match self
                .session()
                .update_monitored(build_package(self.plan.backend, update), WARMUP)
            {
                Err(MvedsuaError::UpdateDidNotStart) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => return other,
            }
        }
        Err(MvedsuaError::UpdateDidNotStart)
    }

    /// One wire exchange, normalized to the canonical reply space.
    fn exchange(&mut self, op: &ClientOp) -> Result<CanonReply, String> {
        let c = &mut self.client;
        let line = |c: &mut LineClient| c.recv_line().map_err(|e| format!("recv: {e:?}"));
        match (self.plan.backend, op) {
            (Backend::Kvstore, ClientOp::Put { key, value }) => {
                send(c, &format!("PUT {key} {value}"))?;
                match line(c)?.as_str() {
                    "OK" => Ok(CanonReply::Stored),
                    other => Err(format!("kv put: {other:?}")),
                }
            }
            (Backend::Kvstore, ClientOp::Get { key }) => {
                send(c, &format!("GET {key}"))?;
                let reply = line(c)?;
                if let Some(v) = reply.strip_prefix("VAL ") {
                    Ok(CanonReply::Hit(v.to_string()))
                } else if reply == "ERR not-found" {
                    Ok(CanonReply::Miss)
                } else {
                    Err(format!("kv get: {reply:?}"))
                }
            }
            (Backend::Redis, ClientOp::Put { key, value }) => {
                send(c, &format!("SET {key} {value}"))?;
                match line(c)?.as_str() {
                    "+OK" => Ok(CanonReply::Stored),
                    other => Err(format!("redis set: {other:?}")),
                }
            }
            (Backend::Redis, ClientOp::Get { key }) => {
                send(c, &format!("GET {key}"))?;
                let header = line(c)?;
                if header == "$-1" {
                    Ok(CanonReply::Miss)
                } else if header.starts_with('$') {
                    Ok(CanonReply::Hit(line(c)?))
                } else {
                    Err(format!("redis get: {header:?}"))
                }
            }
            (Backend::Redis, ClientOp::Del { key }) => {
                send(c, &format!("DEL {key}"))?;
                match line(c)?.as_str() {
                    ":1" => Ok(CanonReply::Deleted),
                    ":0" => Ok(CanonReply::Absent),
                    other => Err(format!("redis del: {other:?}")),
                }
            }
            (Backend::Memcached, ClientOp::Put { key, value }) => {
                // The command line and its data block go in one write.
                // As two, the server's read would take one or both
                // depending on timing, and the forensics dump records
                // the length of every read.
                send(c, &format!("set {key} 0 0 {}\r\n{value}", value.len()))?;
                match line(c)?.as_str() {
                    "STORED" => Ok(CanonReply::Stored),
                    other => Err(format!("mc set: {other:?}")),
                }
            }
            (Backend::Memcached, ClientOp::Get { key }) => {
                send(c, &format!("get {key}"))?;
                let header = line(c)?;
                if header == "END" {
                    return Ok(CanonReply::Miss);
                }
                if !header.starts_with("VALUE ") {
                    return Err(format!("mc get: {header:?}"));
                }
                let value = line(c)?;
                match line(c)?.as_str() {
                    "END" => Ok(CanonReply::Hit(value)),
                    other => Err(format!("mc get trailer: {other:?}")),
                }
            }
            (Backend::Memcached, ClientOp::Del { key }) => {
                send(c, &format!("delete {key}"))?;
                match line(c)?.as_str() {
                    "DELETED" => Ok(CanonReply::Deleted),
                    "NOT_FOUND" => Ok(CanonReply::Absent),
                    other => Err(format!("mc delete: {other:?}")),
                }
            }
            (Backend::Vsftpd, ClientOp::Size) => {
                send(c, "SIZE motd.txt")?;
                let reply = line(c)?;
                match reply.strip_prefix("213 ").and_then(|n| n.parse().ok()) {
                    Some(n) => Ok(CanonReply::Size(n)),
                    None => Err(format!("ftp size: {reply:?}")),
                }
            }
            (Backend::Vsftpd, ClientOp::Retr) => {
                send(c, "RETR motd.txt")?;
                let blob = c
                    .recv_until(b"226 Transfer complete.\r\n")
                    .map_err(|e| format!("ftp retr: {e:?}"))?;
                if blob.windows(MOTD.len()).any(|w| w == MOTD) {
                    Ok(CanonReply::RetrOk)
                } else {
                    Err(format!(
                        "ftp retr: content missing: {:?}",
                        String::from_utf8_lossy(&blob)
                    ))
                }
            }
            (backend, op) => Err(format!("op {op:?} unsupported on {}", backend.name())),
        }
    }

    /// Shuts the session down and verifies the whole-timeline invariants
    /// (stage-machine legality per `Stage::can_transition_to`).
    fn finish(mut self, limit: usize) -> RunReport {
        let session = self.session.take().expect("session alive");
        let obs = session.obs();
        // Shutdown joins every variant thread, so by the time metrics and
        // forensics are collected below, all events that will ever be
        // emitted have been recorded.
        let report = session.shutdown();
        let metrics_text = obs.is_enabled().then(|| session.metrics().render_text());
        let mut stage = Stage::SingleLeader;
        for entry in &report.entries {
            if let TimelineEvent::StageChanged { stage: next } = entry.event {
                if !stage.can_transition_to(next) {
                    self.violations
                        .push(format!("illegal stage transition {stage} -> {next}"));
                }
                stage = next;
            }
        }
        if self.violations.is_empty() && report.final_stage != Stage::SingleLeader {
            self.violations.push(format!(
                "scenario ended in stage {} instead of single-leader",
                report.final_stage
            ));
        }
        self.trace.push(format!(
            "done steps={}/{} violations={}",
            self.steps_run,
            limit,
            self.violations.len()
        ));
        let (obs_json, obs_text) = match obs.recorder() {
            Some(rec) => {
                let mut dump = JsonObject::new();
                dump.field_str("seed", &format!("{:#018x}", self.plan.seed))
                    .field_str("backend", self.plan.backend.name())
                    .field_raw(
                        "violations",
                        &json::array(self.violations.iter().map(|v| json::string(v))),
                    )
                    .field_raw("forensics", &rec.forensics(OBS_LAST_N).to_json());
                // The session's own log first, then each variant's lane.
                let text = report.render() + &rec.render_text(OBS_LAST_N);
                (Some(dump.finish()), Some(text))
            }
            None => (None, None),
        };
        RunReport {
            seed: self.plan.seed,
            backend: self.plan.backend,
            trace: self.trace,
            violations: self.violations,
            steps_total: limit,
            steps_run: self.steps_run,
            obs_json,
            obs_text,
            metrics_text,
        }
    }
}

fn send(c: &mut LineClient, line: &str) -> Result<(), String> {
    c.send_line(line).map_err(|e| format!("send: {e:?}"))
}

/// Whether the fault stays latent until a read observes the damaged
/// state (versus failing during the transformation itself).
fn fault_needs_probe(fault: &FaultPlan) -> bool {
    fault.buggy_new_code
        || matches!(
            fault.xform,
            Some(XformFault::DropState) | Some(XformFault::CorruptField)
        )
}

fn render_op(op: &ClientOp) -> String {
    match op {
        ClientOp::Put { key, value } => format!("put {key}={value}"),
        ClientOp::Get { key } => format!("get {key}"),
        ClientOp::Del { key } => format!("del {key}"),
        ClientOp::Size => "size".into(),
        ClientOp::Retr => "retr".into(),
    }
}

fn build_package(backend: Backend, update: &UpdateStep) -> UpdatePackage {
    match backend {
        Backend::Kvstore => kvstore::update_package(update.fault),
        Backend::Redis => redis::update_package(&update.from, &update.to),
        Backend::Memcached => memcached::update_package(&update.to, update.fault),
        Backend::Vsftpd => vsftpd::update_package(&update.from, &update.to),
    }
}

fn build_registry(plan: &ScenarioPlan) -> Arc<dsu::VersionRegistry> {
    match (plan.backend, plan.special) {
        (Backend::Kvstore, _) => kvstore::registry(PORT),
        (Backend::Memcached, _) => memcached::registry(PORT, 4),
        (Backend::Vsftpd, _) => vsftpd::registry(PORT),
        (Backend::Redis, Some(Special::RedisBuggyLeader)) => {
            // §6.2 leader-crash staging: 2.0.0 carries the HMGET bug,
            // 2.0.1 is rebuilt clean (the update *fixes* the crash).
            let buggy = redis::RedisOptions::new(PORT).with_hmget_bug_from(dsu::v("2.0.0"));
            let mut r = (*redis::registry(&buggy)).clone();
            let clean = redis::RedisOptions::new(PORT);
            r.register_version(dsu::VersionEntry::new(
                dsu::v("2.0.1"),
                {
                    let clean = clean.clone();
                    move || Box::new(redis::RedisApp::new(dsu::v("2.0.1"), &clean))
                },
                {
                    let clean = clean.clone();
                    move |state| {
                        Ok(Box::new(redis::RedisApp::from_state(
                            dsu::v("2.0.1"),
                            &clean,
                            state
                                .downcast()
                                .map_err(|_| dsu::UpdateError::StateTypeMismatch)?,
                        )))
                    }
                },
            ));
            Arc::new(r)
        }
        (Backend::Redis, None) => {
            let mut options = redis::RedisOptions::new(PORT);
            // A sampled new-code fault bakes the bug into the registry
            // from the faulty target upward (the plan never updates past
            // it).
            for step in &plan.steps {
                if let Step::Update(u) = step {
                    if u.fault.buggy_new_code {
                        options = options.with_hmget_bug_from(u.to.clone());
                        break;
                    }
                }
            }
            redis::registry(&options)
        }
    }
}
