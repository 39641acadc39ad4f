//! **MVEDSUA**: higher-availability dynamic software updates via
//! multi-version execution — the paper's contribution, as a library.
//!
//! The controller in this crate drives the full lifecycle from Figure 2
//! of the paper:
//!
//! ```text
//!   t0 ── single leader ── t1 fork ── outdated leader ── t4 demote ──
//!   ── t5 updated leader ── t6 retire ── single leader ──
//! ```
//!
//! * [`Mvedsua::launch_observed`] boots a DSU-ready application (any
//!   [`dsu::DsuApp`]) in single-leader mode on a virtual kernel, with
//!   a flight recorder or [`obs::Obs::disabled`].
//! * [`Mvedsua::request_update`] *forks* the leader at a quiescent
//!   update point (a deep state snapshot standing in for `fork(2)`),
//!   then applies the dynamic update **on the follower** while the
//!   leader keeps serving — the update pause vanishes into the ring
//!   buffer.
//! * During the **outdated-leader** stage the follower replays the
//!   leader's syscall log through the update's rewrite rules; any
//!   unexpected divergence, crash, or failed state transformation
//!   **rolls the update back** automatically: the follower dies, the
//!   leader reverts to single mode, and — because the MVE layer kept the
//!   states in sync — no state is lost.
//! * [`Mvedsua::promote`] swaps roles through an in-band demotion
//!   marker; [`Mvedsua::finalize`] retires the old version. A leader
//!   crash at any point auto-promotes the follower.
//!
//! Everything is observable through the [`Timeline`], which the
//! benchmarks use to regenerate the paper's figures.
//!
//! # Example
//!
//! ```no_run
//! use mvedsua::{Mvedsua, MvedsuaConfig, UpdatePackage};
//! # fn registry() -> std::sync::Arc<dsu::VersionRegistry> { unimplemented!() }
//! # fn main() -> Result<(), mvedsua::MvedsuaError> {
//! let kernel = vos::VirtualKernel::new();
//! let session = Mvedsua::launch_observed(
//!     kernel,
//!     registry(),
//!     dsu::v("1.0"),
//!     MvedsuaConfig::default(),
//!     obs::Obs::disabled(),
//! )?;
//! session.request_update(UpdatePackage::new(dsu::v("2.0")))?;
//! // ... traffic flows, both versions agree ...
//! session.promote()?;
//! session.finalize()?;
//! let report = session.shutdown();
//! println!("{}", report.render());
//! # Ok(())
//! # }
//! ```

mod controller;
mod error;
mod package;
mod runner;
mod stage;

pub use controller::{Mvedsua, MvedsuaConfig, SessionReport};
pub use error::MvedsuaError;
pub use package::UpdatePackage;
pub use stage::{Stage, Timeline, TimelineEntry, TimelineEvent};
