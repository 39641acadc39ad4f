//! Kitsune-like dynamic software updating (DSU) substrate.
//!
//! Kitsune (OOPSLA'12) updates C programs in place: the program reaches a
//! programmer-chosen *update point*, quiesces, runs *state transformers*
//! over its heap, and relaunches as the new version with the migrated
//! state. This crate provides the same machinery for the reproduction's
//! virtual servers:
//!
//! * [`Version`] — release identifiers with the usual ordering;
//! * [`DsuApp`] — the updatable-program trait: an event-loop `step`
//!   (whose boundaries are the update points), a cloneable state
//!   [`snapshot`](DsuApp::snapshot) (MVEDSUA's fork), and
//!   [`into_state`](DsuApp::into_state) (Kitsune's in-place migration);
//! * [`StateTransformer`] — migrates an old-version state into the new
//!   version's representation, with injectable faults ([`XformFault`])
//!   reproducing the paper's §6.2 error study;
//! * [`VersionRegistry`] / [`UpdateSpec`] — which versions exist, how to
//!   boot or resume them, and how to get from one to the next;
//! * [`serve`] — the in-place update driver: this *is* the Kitsune
//!   baseline the paper compares against, including its update pause.
//!
//! The MVE-enhanced path (fork a follower, update it off to the side,
//! catch up through the ring buffer) lives in `mvedsua-core` and reuses
//! everything here.
//!
//! # Example: an in-place (Kitsune-style) update
//!
//! ```
//! use dsu::{AppState, DsuApp, FnTransformer, StepOutcome, UpdateError,
//!           UpdateSpec, Version, VersionEntry, VersionRegistry};
//! use std::sync::Arc;
//!
//! /// A counter whose v2 doubles on every step instead of incrementing.
//! struct Counter { version: Version, value: u64, stride: u64 }
//!
//! impl DsuApp for Counter {
//!     fn version(&self) -> &Version { &self.version }
//!     fn step(&mut self, _os: &mut dyn vos::Os) -> StepOutcome {
//!         self.value += self.stride;
//!         StepOutcome::Progress
//!     }
//!     fn snapshot(&self) -> AppState { AppState::new(self.value) }
//!     fn into_state(self: Box<Self>) -> AppState { AppState::new(self.value) }
//! }
//!
//! let mut registry = VersionRegistry::new();
//! for (ver, stride) in [("1.0", 1), ("2.0", 2)] {
//!     registry.register_version(VersionEntry::new(
//!         dsu::v(ver),
//!         move || Box::new(Counter { version: dsu::v(ver), value: 0, stride }),
//!         move |state| Ok(Box::new(Counter {
//!             version: dsu::v(ver),
//!             value: state.downcast().map_err(|_| UpdateError::StateTypeMismatch)?,
//!             stride,
//!         })),
//!     ));
//! }
//! registry.register_update(UpdateSpec::new(
//!     "1.0", "2.0",
//!     Arc::new(FnTransformer::new("keep the count", Ok)),
//! ));
//!
//! let kernel = vos::VirtualKernel::new();
//! let mut os = vos::DirectOs::new(kernel);
//! let mut app = registry.boot(&dsu::v("1.0"))?;
//! for _ in 0..3 { app.step(&mut os); }            // count = 3
//! let mut app = registry.perform_in_place(app, &dsu::v("2.0"))?;
//! app.step(&mut os);                               // count = 5: state kept,
//! assert_eq!(app.snapshot().downcast::<u64>().ok(), Some(5)); // code changed
//! # Ok::<(), dsu::UpdateError>(())
//! ```

mod app;
mod control;
mod error;
mod fault;
mod registry;
mod state;
mod version;
mod xform;

pub use app::{DsuApp, StepOutcome};
pub use control::{panic_message, serve, DsuControl, ServeExit, UpdateRequest};
pub use error::UpdateError;
pub use fault::{FaultPlan, XformFault};
pub use registry::{CoverageIssue, UpdateSpec, VersionEntry, VersionRegistry};
pub use state::AppState;
pub use version::{v, Version};
pub use xform::{FnTransformer, IdentityTransformer, StateTransformer};
