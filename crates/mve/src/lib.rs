//! Varan-like multi-version execution (MVE) engine.
//!
//! Varan (ASPLOS'15) runs N variants of a program over the same inputs:
//! the **leader** performs real system calls and logs `(call, result)`
//! records into a shared ring buffer; **followers** replay the log,
//! checking that they issue equivalent calls and receiving the leader's
//! results instead of touching the kernel. A mismatch is a
//! **divergence**. MVEDSUA (this reproduction's subject) drives this
//! machinery across *different versions* of a program, reconciling the
//! expected differences with the rewrite-rule DSL from `mvedsua-dsl`.
//!
//! The central type is [`VariantOs`]: an implementation of
//! [`vos::Os`] whose *role* changes over the MVEDSUA lifecycle:
//!
//! * **Single** — sole leader, no follower attached: direct kernel access
//!   plus the lightweight state tracking Varan needs to accept a
//!   follower later (§4's "single-leader mode"). The paper's
//!   `Varan-1`/`Mvedsua-1` configurations run here.
//! * **Leader** — executes and logs into the outgoing ring. Blocks when
//!   the ring fills (the Figure 7 mechanism). Optionally runs in
//!   *lockstep* ([`LockstepMode`]) to model the MUC and Mx baselines.
//! * **Follower** — replays the incoming ring through a
//!   [`dsl::RuleSet`], raising [`Divergence`] on mismatch.
//!
//! Role transitions are carried by in-band control records and ring
//! teardown, so both sides always agree on *where in the event stream*
//! the switch happened:
//!
//! * leader demotion pushes [`ControlRecord::Demote`] and the leader
//!   becomes a follower on the reverse ring; the follower becomes leader
//!   when it consumes the `Demote` record (paper Figure 2, t4–t5);
//! * **poisoning** a ring kills its follower (rollback / retirement) and
//!   reverts its leader to Single;
//! * **closing** a ring (leader crashed) lets the follower drain what
//!   remains and then take over as Single — promotion without losing a
//!   single buffered request.
//!
//! # How a follower refills
//!
//! A follower replays each call against a queue of expected records and
//! refills the queue one way only, with or without rewrite rules:
//!
//! * It takes up to 128 records from its ring with `pop_batch`. On an
//!   empty ring it sleeps until 128 records are buffered (half the ring,
//!   if that is fewer) or the leader kicks the ring, which the leader
//!   does whenever it is about to wait on something else (see
//!   `docs/ring.md`). It wakes about once per batch, not once per record.
//! * The rule engine cuts the records into windows. A window grows while
//!   some longer rule could still match it. A window that reaches the
//!   last record taken is *carried* into the next batch, undecided,
//!   until the stream settles it: the next record, `Demote`, or the ring
//!   closing. No clock decides it, so a verdict is a function of the
//!   leader's records alone, however long the leader pauses mid-window.
//! * A record whose window no rule rewrites is queued as the leader's
//!   raw record: compared record-to-record, its logged result (errno
//!   included) replayed as is. A rule template that copies one pattern
//!   verbatim queues the matched raw record too. Only a rule that tests
//!   or computes argument values makes the follower project records into
//!   DSL events, each record at most once.
//! * Everything a window emits is attributed to the window's last
//!   record, and rule matches and rule errors surface when replay
//!   reaches them, so divergence reports and flight-recorder output are
//!   the same as refilling one window at a time would give.

mod divergence;
mod event;
mod lockstep;
mod project;
mod stats;
mod variant;

pub use divergence::{Divergence, RetireReason, RetiredSignal};
pub use event::{ControlRecord, EventRecord, EventRing, SyscallRecord};
pub use lockstep::{LagPlan, LockstepMode};
pub use project::{
    event_signatures, reconstruct_result, record_matches, request_matches, syscall_event,
};
pub use stats::SyscallStats;
pub use variant::{
    FollowerConfig, LeaderConfig, Notice, NoticeHook, NoticeKind, Role, VariantId, VariantOs,
    FOLLOWER_BATCH,
};
