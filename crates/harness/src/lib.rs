//! Deterministic chaos-simulation harness for the MVEDSUA lifecycle.
//!
//! A scenario is a pure function of a `u64` seed: the seed samples a
//! [`plan::ScenarioPlan`] (backend, client workload, update schedule
//! with injected faults, environmental perturbations), the
//! [`engine`] executes it against a real in-process MVEDSUA session,
//! and every client reply is checked against a fault-free oracle
//! ([`model::Model`]) while the lifecycle is checked against the
//! paper's stage machine. On failure the harness prints the seed and a
//! minimized trace ([`trace::minimize`]); replaying the seed replays
//! the byte-identical run.
//!
//! Invariants checked on every run:
//!
//! 1. **Client transparency** — every reply equals the fault-free
//!    oracle's prediction, no matter where in the update lifecycle the
//!    request lands (the paper's core claim).
//! 2. **Rollback is invisible** — after any rollback (operator- or
//!    fault-initiated), the active version is exactly what it was
//!    before the update began.
//! 3. **Stage legality** — the recorded `StageChanged` sequence only
//!    takes transitions allowed by Figure 2
//!    (`Stage::can_transition_to`).
//! 4. **Quiescence** — scenarios end back in single-leader mode.
//!
//! Entry points: [`run_seed`] for one scenario, [`assert_seed_clean`]
//! for the cargo-test smoke tier, and the `harness` binary for longer
//! soaks and seed replay.

pub mod engine;
pub mod lint;
pub mod model;
pub mod plan;
pub mod scenarios;
pub mod trace;

pub use engine::{run_plan, run_seed, RunOptions, RunReport};
pub use model::{CanonReply, Model};
pub use plan::{Backend, ClientOp, Perturbations, ScenarioPlan, Special, Step, UpdateDecision};
pub use trace::{assert_seed_clean, failure_report, minimize};
