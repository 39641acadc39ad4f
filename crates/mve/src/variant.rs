use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use dsl::{Builtins, Emit, Event, EventWindow, RuleSet};
use obs::{Obs, ObsKind};
use parking_lot::Mutex;
use ring::RingError;
use vos::{
    CtlOp, Errno, Fd, FileStat, OpenMode, Os, OsResult, SysRet, Syscall, SyscallKind, VirtualKernel,
};

use crate::divergence::{Divergence, RetireReason, RetiredSignal};
use crate::event::{ControlRecord, EventRecord, EventRing, SyscallRecord};
use crate::lockstep::{LagPlan, LockstepMode};
use crate::project::{
    event_arity, reconstruct_result, record_matches, request_matches, syscall_event,
};
use crate::stats::SyscallStats;
use vos::Buf;

/// Identifies a variant in notices and logs (0 = the original leader,
/// 1 = first forked follower, ...).
pub type VariantId = u32;

/// How many records a follower takes from the ring per refill. It is
/// also the ring's wake mark, capped at half the ring: a follower that
/// keeps up sleeps until this many records are buffered, or until the
/// leader kicks the ring because it is about to wait on something else.
pub const FOLLOWER_BATCH: usize = 128;

/// Leader-side configuration: the outgoing ring and the synchronization
/// discipline.
#[derive(Clone)]
pub struct LeaderConfig {
    pub ring: EventRing,
    /// `None` is Varan's decoupled design; `Some` models MUC/Mx.
    pub lockstep: Option<LockstepMode>,
}

/// Follower-side configuration: the incoming ring, the rewrite rules
/// reconciling version differences, and what to become when the leader
/// demotes itself.
#[derive(Clone)]
pub struct FollowerConfig {
    pub ring: EventRing,
    pub rules: Arc<RuleSet>,
    pub builtins: Arc<Builtins>,
    /// Role to assume upon consuming [`ControlRecord::Demote`]:
    /// `Some` → leader on that ring (the updated-leader stage);
    /// `None` → sole leader immediately (the stage is bypassed, which the
    /// paper permits when reverse mappings are too hard, §3.2).
    pub promote_to: Option<LeaderConfig>,
    /// Chaos-harness perturbation: deterministic consumer lag applied
    /// while draining the ring. `None` runs at full speed.
    pub lag: Option<LagPlan>,
}

/// Coarse role, for status reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Single,
    Leader,
    Follower,
}

/// Role-transition notifications emitted toward the coordinator.
#[derive(Clone, Debug)]
pub struct Notice {
    pub variant: VariantId,
    pub kind: NoticeKind,
}

/// What happened.
#[derive(Clone, Debug, PartialEq)]
pub enum NoticeKind {
    /// Leader appended `Demote` and became a follower on the reverse
    /// ring (t4 in Figure 2).
    Demoted,
    /// Follower consumed `Demote` and became the leader (t5).
    BecameLeader,
    /// The variant became the sole leader: its ring was poisoned
    /// (rollback/retirement of the peer) or closed (peer crashed).
    BecameSingle,
}

/// Receives a variant's [`Notice`]s. It runs on the variant's own thread,
/// inside the call that makes the transition and before the variant's
/// next call in its new role, while the variant holds no lock.
pub type NoticeHook = Arc<dyn Fn(Notice) + Send + Sync>;

struct LeaderState {
    ring: EventRing,
    lockstep: Option<LockstepMode>,
    seq: u64,
}

/// One queued expectation on the follower side.
enum Expected {
    /// A leader record replayed as logged: a record no rule rewrote, or
    /// one a rule template copies verbatim. The comparison runs
    /// record-to-record ([`record_matches`]) and the replayed result is
    /// the logged `SysRet` itself, errno included — a refcount bump on
    /// any shared payload, with the DSL event projected only if a
    /// divergence must be reported.
    Record(SyscallRecord),
    /// An event a rule template computed.
    Event(Event),
    /// A rule fired on the window whose expectations follow. Queued only
    /// while a recorder is attached, and emitted as a `RuleMatch` when
    /// replay reaches it: the point at which refilling one window at a
    /// time would have emitted it.
    Matched {
        rule: String,
        consumed: usize,
        emitted: usize,
    },
    /// Rule evaluation failed on the window: replay diverges on reaching
    /// it, during the call that would have refilled that window.
    Failed { event: Event, detail: String },
}

/// A record taken from the ring whose rule window is not decided yet,
/// with its DSL event built on first use, if a rule needs it.
struct Carried {
    seq: u64,
    record: SyscallRecord,
    event: OnceCell<Event>,
}

/// Carried records as the rule engine reads them: names and arities
/// come from the call; events are projected at most once, on demand.
struct Window<'a>(&'a [Carried]);

impl EventWindow for Window<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn name(&self, index: usize) -> &str {
        self.0[index].record.call.kind().name()
    }

    fn arity(&self, index: usize) -> usize {
        event_arity(&self.0[index].record.call)
    }

    fn event(&self, index: usize) -> &Event {
        let carried = &self.0[index];
        carried
            .event
            .get_or_init(|| syscall_event(&carried.record.call, &carried.record.ret))
    }
}

struct FollowerState {
    ring: EventRing,
    rules: Arc<RuleSet>,
    builtins: Arc<Builtins>,
    /// Expected records/events with the leader seq each one is
    /// attributed to (the last record of the rule window that emitted
    /// it), so divergence reports stay identical whatever the refill
    /// batch size.
    expected: VecDeque<(u64, Expected)>,
    /// Records taken from the ring whose window a rule could still
    /// extend. Only the stream settles them: the next record, `Demote`,
    /// or the ring closing.
    carried: Vec<Carried>,
    /// A `Demote` marker was consumed; promote once `expected` drains.
    promote_pending: bool,
    promote_to: Option<LeaderConfig>,
    lag: Option<LagPlan>,
    /// Records consumed so far (1-based), for the lag schedule.
    consumed: u64,
}

impl FollowerState {
    fn new(config: FollowerConfig) -> Self {
        FollowerState {
            ring: config.ring,
            rules: config.rules,
            builtins: config.builtins,
            expected: VecDeque::new(),
            carried: Vec::new(),
            promote_pending: false,
            promote_to: config.promote_to,
            lag: config.lag,
            consumed: 0,
        }
    }
}

enum RoleState {
    Single,
    Leader(LeaderState),
    Follower(FollowerState),
}

enum FollowerVerdict {
    Ret {
        ret: SysRet,
        /// Raw ring sequence of the replayed record (for forensics).
        seq: u64,
    },
    Promote,
    Single,
}

/// Whether a call/result pair is part of the *semantic* request stream
/// — a pure function of the scenario driving the application — as
/// opposed to timing/poll noise whose count varies run-to-run (idle
/// `epoll_wait` rounds, empty poll reads, would-block probes). The
/// flight recorder keeps the two classes apart so canonical forensics
/// dumps replay byte-identically; see the `obs` crate docs.
fn is_semantic(call: &Syscall, ret: &SysRet) -> bool {
    if matches!(
        call.kind(),
        SyscallKind::EpollWait | SyscallKind::Now | SyscallKind::Pid
    ) {
        return false;
    }
    match ret {
        SysRet::Err(Errno::WouldBlock) | SysRet::Err(Errno::TimedOut) => false,
        SysRet::Data(d) => !d.is_empty(),
        _ => true,
    }
}

/// Whether `call` can block with no timeout: an untimed read. The leader
/// kicks its ring before one, so the follower does not sleep on records
/// it could replay while the leader waits.
fn may_block_untimed(call: &Syscall) -> bool {
    matches!(call, Syscall::Read { .. })
}

/// Whether a call came back idle: an empty poll, a would-block probe or
/// a timed-out read. The leader kicks its ring after one, so an idle
/// leader leaves its follower at most one poll timeout behind.
fn came_back_idle(ret: &SysRet) -> bool {
    match ret {
        SysRet::Fds(fds) => fds.is_empty(),
        SysRet::Err(e) => matches!(e, Errno::WouldBlock | Errno::TimedOut),
        _ => false,
    }
}

/// Compact, deterministic rendering of a syscall result for the flight
/// recorder (payloads reduced to lengths).
fn render_ret(ret: &SysRet) -> String {
    match ret {
        SysRet::Unit => "Unit".to_string(),
        SysRet::Fd(fd) => format!("Fd({fd})"),
        SysRet::Size(n) => format!("Size({n})"),
        SysRet::Data(d) => format!("Data({} bytes)", d.len()),
        SysRet::Fds(fds) => format!("Fds({})", fds.len()),
        SysRet::Stat(_) => "Stat".to_string(),
        SysRet::Names(names) => format!("Names({})", names.len()),
        SysRet::Time(_) => "Time".to_string(),
        SysRet::Pid(_) => "Pid".to_string(),
        SysRet::Err(e) => format!("Err({})", e.as_str()),
        _ => "?".to_string(),
    }
}

/// The MVE syscall interface: one per variant, implementing [`vos::Os`]
/// with a role that evolves over the MVEDSUA lifecycle (see the crate
/// docs for the full protocol).
pub struct VariantOs {
    id: VariantId,
    kernel: Arc<VirtualKernel>,
    pid: u32,
    role: RoleState,
    stats: Arc<SyscallStats>,
    notices: Option<NoticeHook>,
    demote_slot: Arc<Mutex<Option<FollowerConfig>>>,
    /// Flight-recorder handle; [`Obs::disabled`] (one branch per
    /// dispatch) unless the coordinator attaches a recorder.
    obs: Obs,
    /// Semantic stream position within the current MVE era. `None`
    /// until the first fork (plain single-leader mode has no ring
    /// stream to align against); reset to 0 whenever a new ring era
    /// starts (fork, demotion, promotion). Counts *executed or
    /// replayed semantic* records only, so the value is a pure function
    /// of the scenario and aligns leader and follower lanes — unlike
    /// raw ring sequence numbers, which idle traffic also consumes.
    sem_era: Option<u64>,
}

impl VariantOs {
    /// A variant starting in single-leader mode (how every MVEDSUA
    /// deployment begins, t0 in Figure 2).
    pub fn single(id: VariantId, kernel: Arc<VirtualKernel>, notices: Option<NoticeHook>) -> Self {
        let pid = kernel.alloc_pid();
        VariantOs {
            id,
            kernel,
            pid,
            role: RoleState::Single,
            stats: Arc::new(SyscallStats::new()),
            notices,
            demote_slot: Arc::new(Mutex::new(None)),
            obs: Obs::disabled(),
            sem_era: None,
        }
    }

    /// A variant starting as a follower (the freshly forked, updated
    /// copy).
    pub fn follower(
        id: VariantId,
        kernel: Arc<VirtualKernel>,
        config: FollowerConfig,
        notices: Option<NoticeHook>,
    ) -> Self {
        let pid = kernel.alloc_pid();
        VariantOs {
            id,
            kernel,
            pid,
            role: RoleState::Follower(FollowerState::new(config)),
            stats: Arc::new(SyscallStats::new()),
            notices,
            demote_slot: Arc::new(Mutex::new(None)),
            obs: Obs::disabled(),
            // A follower is born into a ring era at its fork point.
            sem_era: Some(0),
        }
    }

    /// Attaches a flight-recorder handle; this variant's events land on
    /// lane `id`.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Switches a single-leader variant to leader mode on `config.ring`
    /// — invoked by the coordinator at the fork point (t1).
    ///
    /// # Panics
    /// Panics if the variant is not in single mode; the coordinator owns
    /// the stage machine and never calls this otherwise.
    pub fn attach_follower(&mut self, config: LeaderConfig) {
        assert!(
            matches!(self.role, RoleState::Single),
            "attach_follower requires single-leader mode"
        );
        self.role = RoleState::Leader(LeaderState {
            ring: config.ring,
            lockstep: config.lockstep,
            seq: 0,
        });
        // A demotion requested in an era that rolled back before this
        // leader took it belongs to that era's rings.
        self.demote_slot.lock().take();
        // The fork opens a new ring era; positions restart so they
        // align with the follower's replay count.
        self.sem_era = Some(0);
    }

    /// The slot through which the coordinator requests demotion. The
    /// variant runner takes from it **at update points** (between
    /// application steps) and calls [`VariantOs::demote_now`]: stepping
    /// down mid-command would split multi-syscall sequences across the
    /// leader switch and trip the rewrite rules over half-pairs.
    pub fn demote_slot(&self) -> Arc<Mutex<Option<FollowerConfig>>> {
        self.demote_slot.clone()
    }

    /// Takes a pending demotion request, if any (runner-side helper).
    pub fn take_demote_request(&self) -> Option<FollowerConfig> {
        self.demote_slot.lock().take()
    }

    /// Steps down as leader (paper t4): appends the in-band `Demote`
    /// marker and becomes a follower per `config`. Everything logged
    /// before the marker is old-leader traffic; the peer follower
    /// becomes the new leader when it consumes the marker.
    ///
    /// Call only at an update point — between application steps, with no
    /// multi-syscall operation in flight.
    ///
    /// # Panics
    /// Panics unless the variant is currently the leader.
    pub fn demote_now(&mut self, config: FollowerConfig) {
        // Notify *before* pushing the marker: the follower's
        // BecameLeader notice can only follow its pop of the marker, so
        // the Demoted hook has returned before BecameLeader's runs.
        self.notify(NoticeKind::Demoted);
        match &mut self.role {
            RoleState::Leader(state) => {
                let seq = state.seq + 1;
                state.seq = seq;
                let _ = state.ring.push(EventRecord::Control {
                    seq,
                    record: ControlRecord::Demote,
                });
                // The old leader now waits on its own follower ring.
                state.ring.kick();
            }
            _ => panic!("demote_now requires leader mode"),
        }
        // The Demote marker sits at the end of the era's semantic
        // stream: its position equals the count of semantic records
        // pushed, which is exactly what the peer counts on its side
        // when it consumes the marker.
        let demote_pos = self.sem_era.unwrap_or(0);
        self.obs.emit(self.id, || ObsKind::Control {
            what: "demote-push",
            pos: demote_pos,
        });
        self.sem_era = Some(0);
        self.role = RoleState::Follower(FollowerState::new(config));
    }

    /// Shared interception statistics.
    pub fn stats(&self) -> Arc<SyscallStats> {
        self.stats.clone()
    }

    /// Current coarse role.
    pub fn role(&self) -> Role {
        match self.role {
            RoleState::Single => Role::Single,
            RoleState::Leader(_) => Role::Leader,
            RoleState::Follower(_) => Role::Follower,
        }
    }

    /// This variant's id.
    pub fn id(&self) -> VariantId {
        self.id
    }

    /// The kernel this variant runs against.
    pub fn kernel(&self) -> &Arc<VirtualKernel> {
        &self.kernel
    }

    /// Severs this variant's MVE links after it crashed or diverged, so
    /// the surviving peer recovers autonomously:
    ///
    /// * a dead **follower** poisons its incoming ring — the leader's
    ///   next push reverts it to single-leader mode (rollback);
    /// * a dead **leader** closes its outgoing ring — the follower
    ///   drains the buffered records and takes over (promotion);
    /// * a single variant has no links to sever.
    pub fn teardown_on_crash(&self) {
        match &self.role {
            RoleState::Single => {}
            RoleState::Leader(state) => state.ring.close(),
            RoleState::Follower(state) => state.ring.poison(),
        }
    }

    fn notify(&self, kind: NoticeKind) {
        if let Some(hook) = &self.notices {
            hook(Notice {
                variant: self.id,
                kind,
            });
        }
    }
}

/// Executes `call` against the real kernel.
fn execute_call(k: &Arc<VirtualKernel>, pid: u32, call: &Syscall) -> SysRet {
    fn wrap<T>(r: OsResult<T>, f: impl FnOnce(T) -> SysRet) -> SysRet {
        match r {
            Ok(v) => f(v),
            Err(e) => SysRet::Err(e),
        }
    }
    match call {
        Syscall::Listen { port } => wrap(k.listen(*port), SysRet::Fd),
        Syscall::Accept { listener } => wrap(k.accept(*listener), SysRet::Fd),
        Syscall::Read { fd, max } => wrap(k.read(*fd, *max, None), SysRet::Data),
        Syscall::ReadTimeout {
            fd,
            max,
            timeout_ms,
        } => wrap(
            k.read(*fd, *max, Some(Duration::from_millis(*timeout_ms))),
            SysRet::Data,
        ),
        // A clone of a `Buf` is a refcount bump: the payload the server
        // handed us is the very allocation the peer's inbox receives.
        Syscall::Write { fd, data } => wrap(k.write_buf(*fd, data.clone()), SysRet::Size),
        Syscall::Close { fd } => wrap(k.close(*fd), |_| SysRet::Unit),
        Syscall::EpollCreate => wrap(k.epoll_create(), SysRet::Fd),
        Syscall::EpollCtl { ep, op, fd } => wrap(k.epoll_ctl(*ep, *op, *fd), |_| SysRet::Unit),
        Syscall::EpollWait {
            ep,
            max,
            timeout_ms,
        } => wrap(
            k.epoll_wait(*ep, *max, Duration::from_millis(*timeout_ms)),
            SysRet::Fds,
        ),
        Syscall::FsOpen { path, mode } => wrap(k.fs_open(path, *mode), SysRet::Fd),
        Syscall::FsUnlink { path } => wrap(k.fs_unlink(path), |_| SysRet::Unit),
        Syscall::FsStat { path } => wrap(k.fs_stat(path), SysRet::Stat),
        Syscall::FsList { path } => wrap(k.fs_list(path), SysRet::Names),
        Syscall::FsMkdir { path } => wrap(k.fs_mkdir(path), |_| SysRet::Unit),
        Syscall::FsRename { from, to } => wrap(k.fs_rename(from, to), |_| SysRet::Unit),
        Syscall::Now => SysRet::Time(k.now_nanos()),
        Syscall::Pid => SysRet::Pid(pid),
    }
}

impl VariantOs {
    /// Classifies `call`/`ret` and advances the era's semantic stream
    /// position. Runs unconditionally (not only when recording): the
    /// position must be a pure function of the application's semantic
    /// traffic, independent of when a recorder was attached. The cost
    /// is one match and (for semantic calls) one add.
    fn tag_semantic(&mut self, call: &Syscall, ret: &SysRet) -> (bool, Option<u64>) {
        let semantic = is_semantic(call, ret);
        if !semantic {
            return (false, None);
        }
        match &mut self.sem_era {
            Some(pos) => {
                *pos += 1;
                (true, Some(*pos))
            }
            None => (true, None),
        }
    }

    /// The heart of the interposition layer: routes `call` according to
    /// the current role, performing role transitions where the protocol
    /// dictates.
    fn dispatch(&mut self, call: Syscall) -> SysRet {
        loop {
            let (ret, role, raw_pos, to_single) = match &mut self.role {
                RoleState::Single => {
                    let ret = execute_call(&self.kernel, self.pid, &call);
                    (ret, "single", None, false)
                }
                RoleState::Leader(state) => {
                    if may_block_untimed(&call) {
                        state.ring.kick();
                    }
                    let ret = execute_call(&self.kernel, self.pid, &call);
                    state.seq += 1;
                    let record = EventRecord::Syscall {
                        seq: state.seq,
                        record: SyscallRecord {
                            call: call.clone(),
                            ret: ret.clone(),
                        },
                    };
                    let to_single = match state.ring.push(record) {
                        Ok(()) => {
                            if came_back_idle(&ret) {
                                state.ring.kick();
                            }
                            let rounds = state.lockstep.map_or(0, LockstepMode::rounds);
                            (0..rounds).any(|_| state.ring.wait_empty().is_err())
                        }
                        // Rollback: the follower is gone; revert to
                        // single-leader mode and keep serving.
                        Err(RingError::Poisoned) | Err(RingError::Closed) => true,
                    };
                    (ret, "leader", Some(state.seq), to_single)
                }
                RoleState::Follower(state) => {
                    let sem_pos = self.sem_era.unwrap_or(0);
                    match Self::follower_step(self.id, state, &call, &self.obs, sem_pos) {
                        FollowerVerdict::Ret { ret, seq } => (ret, "follower", Some(seq), false),
                        FollowerVerdict::Promote => {
                            let promote_to = state.promote_to.take();
                            // Mirror of demote-push: the position is the
                            // count of semantic records replayed in the
                            // era that the Demote marker ends.
                            self.obs.emit(self.id, || ObsKind::Control {
                                what: "demote-pop",
                                pos: sem_pos,
                            });
                            self.sem_era = Some(0);
                            match promote_to {
                                Some(config) => {
                                    self.role = RoleState::Leader(LeaderState {
                                        ring: config.ring,
                                        lockstep: config.lockstep,
                                        seq: 0,
                                    });
                                    self.notify(NoticeKind::BecameLeader);
                                }
                                None => {
                                    self.role = RoleState::Single;
                                    self.notify(NoticeKind::BecameSingle);
                                }
                            }
                            continue;
                        }
                        FollowerVerdict::Single => {
                            self.role = RoleState::Single;
                            self.notify(NoticeKind::BecameSingle);
                            continue;
                        }
                    }
                }
            };
            self.stats.track(&call, &ret);
            let (semantic, pos) = self.tag_semantic(&call, &ret);
            self.obs.emit(self.id, || ObsKind::Syscall {
                role,
                call: call.to_string(),
                ret: render_ret(&ret),
                semantic,
                pos,
                raw_pos,
            });
            if to_single {
                self.role = RoleState::Single;
                self.notify(NoticeKind::BecameSingle);
            }
            return ret;
        }
    }

    /// Replays one follower syscall against the expected-event queue,
    /// refilling it from the ring through the rule engine as needed.
    ///
    /// `sem_pos` is the caller's current semantic stream position; a
    /// divergence detected here is recorded at `sem_pos + 1` — the slot
    /// the mismatching record would have occupied.
    fn follower_step(
        id: VariantId,
        state: &mut FollowerState,
        call: &Syscall,
        obs: &Obs,
        sem_pos: u64,
    ) -> FollowerVerdict {
        let diverge = |expected: Option<&Event>, detail: String, seq: u64| -> ! {
            obs.emit(id, || ObsKind::Divergence {
                pos: sem_pos + 1,
                expected: expected.map(|e| e.to_string()).unwrap_or_default(),
                attempted: call.to_string(),
                detail: detail.clone(),
            });
            RetiredSignal::raise(RetireReason::Diverged(Divergence {
                seq,
                expected: expected.cloned(),
                attempted: call.to_string(),
                detail,
            }))
        };
        loop {
            if let Some((seq, front)) = state.expected.front() {
                let seq = *seq;
                let matches = match front {
                    Expected::Record(rec) => record_matches(&rec.call, call),
                    Expected::Event(event) => request_matches(event, call),
                    Expected::Matched { .. } => true,
                    Expected::Failed { event, detail } => diverge(Some(event), detail.clone(), seq),
                };
                if !matches {
                    // Cold path: project the record into its event only
                    // now that a report must be rendered.
                    let front = match front {
                        Expected::Record(rec) => syscall_event(&rec.call, &rec.ret),
                        Expected::Event(event) => event.clone(),
                        _ => unreachable!("matched above"),
                    };
                    diverge(Some(&front), String::new(), seq);
                }
                let (seq, front) = state.expected.pop_front().expect("checked front");
                match front {
                    // The leader's logged result IS the replayed result —
                    // no reconstruction, and any payload is shared, not
                    // copied.
                    Expected::Record(rec) => return FollowerVerdict::Ret { ret: rec.ret, seq },
                    Expected::Event(event) => match reconstruct_result(&event, call) {
                        Ok(ret) => return FollowerVerdict::Ret { ret, seq },
                        Err(detail) => diverge(Some(&event), detail, seq),
                    },
                    Expected::Matched {
                        rule,
                        consumed,
                        emitted,
                    } => {
                        obs.emit(id, || ObsKind::RuleMatch {
                            rule,
                            consumed,
                            emitted,
                            pos: seq,
                        });
                        continue;
                    }
                    Expected::Failed { .. } => unreachable!("diverged above"),
                }
            }
            if state.promote_pending {
                return FollowerVerdict::Promote;
            }
            // Refill the expected queue from the leader's stream.
            match state.ring.pop_batch(FOLLOWER_BATCH) {
                Ok(batch) => Self::take_batch(state, batch, obs.is_enabled()),
                // The stream ended: it settles any open window, and the
                // follower takes over once the queue drains.
                Err(RingError::Closed) if !state.carried.is_empty() => {
                    Self::settle(state, true, obs.is_enabled())
                }
                Err(RingError::Closed) => return FollowerVerdict::Single,
                Err(RingError::Poisoned) => RetiredSignal::raise(RetireReason::Terminated),
            }
        }
    }

    /// Queues a batch taken from the ring: each record joins the carried
    /// run, and every window the stream has settled is decided.
    fn take_batch(state: &mut FollowerState, batch: Vec<EventRecord>, recording: bool) {
        for record in batch {
            match record {
                EventRecord::Control {
                    record: ControlRecord::Demote,
                    ..
                } => {
                    // The demoting leader's final record on this ring:
                    // it settles any open window, and the follower
                    // promotes once the queued prefix is replayed.
                    Self::settle(state, true, recording);
                    state.promote_pending = true;
                }
                EventRecord::Syscall { seq, record } => {
                    debug_assert!(!state.promote_pending, "leader pushed records after Demote");
                    state.consumed += 1;
                    if let Some(lag) = &state.lag {
                        lag.maybe_sleep(state.consumed);
                    }
                    state.carried.push(Carried {
                        seq,
                        record,
                        event: OnceCell::new(),
                    });
                }
            }
        }
        Self::settle(state, false, recording);
    }

    /// Cuts the carried records into rule windows and decides each one.
    /// A window grows while some longer rule could still match it; one
    /// that reaches the last carried record stays carried unless the
    /// stream has ended (`at_end`). Window boundaries are therefore a
    /// function of the record stream alone, whatever the batch sizes and
    /// however long the leader takes to send the next record.
    fn settle(state: &mut FollowerState, at_end: bool, recording: bool) {
        let mut start = 0;
        while start < state.carried.len() {
            let mut end = start + 1;
            while state
                .rules
                .could_extend(&Window(&state.carried[start..end]))
            {
                if end == state.carried.len() {
                    if !at_end {
                        state.carried.drain(..start);
                        return;
                    }
                    break;
                }
                end += 1;
            }
            Self::decide(state, start, end, recording);
            start = end;
        }
        state.carried.clear();
    }

    /// Runs the rules over the window `carried[start..end]` and queues
    /// what it emits, every entry attributed to the window's last record.
    fn decide(state: &mut FollowerState, start: usize, end: usize, recording: bool) {
        let FollowerState {
            carried,
            rules,
            builtins,
            expected,
            ..
        } = state;
        let window = &mut carried[start..end];
        let last_seq = window[end - start - 1].seq;
        // Notes go before the window's expectations; see `Matched`.
        let notes_at = expected.len();
        let mut notes = 0;
        let mut offset = 0;
        while offset < window.len() {
            let rewrite = match rules.rewrite(&Window(window), offset, builtins) {
                Ok(rewrite) => rewrite,
                Err(e) => {
                    // Only the failure stays: replay diverges on it
                    // before any of this window's expectations.
                    let event = Window(window).event(offset).clone();
                    expected.truncate(notes_at + notes);
                    expected.push_back((
                        window[0].seq,
                        Expected::Failed {
                            event,
                            detail: format!("rule evaluation failed: {e}"),
                        },
                    ));
                    return;
                }
            };
            let Some(rewrite) = rewrite else {
                // No rule fired: the record passes through as logged.
                let record = take_record(&mut window[offset]);
                expected.push_back((last_seq, Expected::Record(record)));
                offset += 1;
                continue;
            };
            if recording {
                let note = Expected::Matched {
                    rule: rewrite.rule.to_string(),
                    consumed: rewrite.consumed,
                    emitted: rewrite.emitted.len(),
                };
                expected.insert(notes_at + notes, (last_seq, note));
                notes += 1;
            }
            let (consumed, emitted) = (rewrite.consumed, rewrite.emitted);
            // A record copied twice is cloned; otherwise it moves.
            let duplicated = emitted
                .iter()
                .enumerate()
                .any(|(i, emit)| matches!(emit, Emit::Copy(_)) && emitted[..i].contains(emit));
            for emit in emitted {
                let entry = match emit {
                    Emit::Copy(index) if duplicated => {
                        Expected::Record(window[index].record.clone())
                    }
                    Emit::Copy(index) => Expected::Record(take_record(&mut window[index])),
                    Emit::Event(event) => Expected::Event(event),
                };
                expected.push_back((last_seq, entry));
            }
            offset += consumed;
        }
    }
}

/// Moves a decided record out of its carried slot, leaving a
/// placeholder the window no longer reads.
fn take_record(carried: &mut Carried) -> SyscallRecord {
    std::mem::replace(
        &mut carried.record,
        SyscallRecord {
            call: Syscall::Pid,
            ret: SysRet::Unit,
        },
    )
}

impl std::fmt::Debug for VariantOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VariantOs")
            .field("id", &self.id)
            .field("pid", &self.pid)
            .field("role", &self.role())
            .finish()
    }
}

impl Os for VariantOs {
    fn listen(&mut self, port: u16) -> OsResult<Fd> {
        self.dispatch(Syscall::Listen { port }).into_fd()
    }

    fn accept(&mut self, listener: Fd) -> OsResult<Fd> {
        self.dispatch(Syscall::Accept { listener }).into_fd()
    }

    fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf> {
        self.dispatch(Syscall::Read { fd, max }).into_data()
    }

    fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf> {
        self.dispatch(Syscall::ReadTimeout {
            fd,
            max,
            timeout_ms,
        })
        .into_data()
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        self.dispatch(Syscall::Write {
            fd,
            data: Buf::copy_from_slice(data),
        })
        .into_size()
    }

    fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
        // The buffer rides into the logged record (and across the ring)
        // by reference; no payload copy happens anywhere downstream.
        self.dispatch(Syscall::Write { fd, data }).into_size()
    }

    fn close(&mut self, fd: Fd) -> OsResult<()> {
        self.dispatch(Syscall::Close { fd }).into_unit()
    }

    fn epoll_create(&mut self) -> OsResult<Fd> {
        self.dispatch(Syscall::EpollCreate).into_fd()
    }

    fn epoll_ctl(&mut self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()> {
        self.dispatch(Syscall::EpollCtl { ep, op, fd }).into_unit()
    }

    fn epoll_wait(&mut self, ep: Fd, max: usize, timeout_ms: u64) -> OsResult<Vec<Fd>> {
        self.dispatch(Syscall::EpollWait {
            ep,
            max,
            timeout_ms,
        })
        .into_fds()
    }

    fn fs_open(&mut self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        self.dispatch(Syscall::FsOpen {
            path: path.to_string(),
            mode,
        })
        .into_fd()
    }

    fn fs_unlink(&mut self, path: &str) -> OsResult<()> {
        self.dispatch(Syscall::FsUnlink {
            path: path.to_string(),
        })
        .into_unit()
    }

    fn fs_stat(&mut self, path: &str) -> OsResult<FileStat> {
        self.dispatch(Syscall::FsStat {
            path: path.to_string(),
        })
        .into_stat()
    }

    fn fs_list(&mut self, path: &str) -> OsResult<Vec<String>> {
        self.dispatch(Syscall::FsList {
            path: path.to_string(),
        })
        .into_names()
    }

    fn fs_mkdir(&mut self, path: &str) -> OsResult<()> {
        self.dispatch(Syscall::FsMkdir {
            path: path.to_string(),
        })
        .into_unit()
    }

    fn fs_rename(&mut self, from: &str, to: &str) -> OsResult<()> {
        self.dispatch(Syscall::FsRename {
            from: from.to_string(),
            to: to.to_string(),
        })
        .into_unit()
    }

    fn now(&mut self) -> u64 {
        self.dispatch(Syscall::Now).into_time().unwrap_or(0)
    }

    fn pid(&mut self) -> u32 {
        self.dispatch(Syscall::Pid).into_pid().unwrap_or(0)
    }
}
