//! Flight-recorder observability layer for the MVEDSUA reproduction.
//!
//! MVEDSUA's value proposition rests on *seeing* what the leader and the
//! follower did when they disagree (paper §4–§5): which syscalls each
//! variant issued, where in the ring stream they were, and which rewrite
//! rules fired; what the stage machine did is the core session
//! timeline's record. This crate provides that layer without perturbing
//! the system under observation:
//!
//! * [`Obs`] — a cheap, cloneable handle threaded through every layer.
//!   When disabled (the default) an emit is a single branch on an
//!   `Option` and the event is never even constructed (the constructor
//!   closure is not called), so the recorder-off configuration is free.
//! * [`FlightRecorder`] — fixed-capacity per-variant rings of structured
//!   [`ObsEvent`]s, timestamped by an injectable [`TimeSource`] (the vos
//!   kernel clock in harness runs), with last-N-event [`Forensics`]
//!   dumps aligned by semantic ring stream position and rendered as
//!   canonical JSON, which leaves timestamps out and so is
//!   replay-stable.
//! * [`MetricsRegistry`] — named counters, gauges, and histograms
//!   aggregated on demand from the ad-hoc counters the substrates
//!   already keep (`mve` syscall stats, `ring` stats, the session
//!   timeline).
//!
//! The crate sits at the bottom of the dependency graph (it depends on
//! nothing but `parking_lot`), so `vos`, `ring`, `mve`, and everything
//! above them can all use it: `vos` implements [`TimeSource`] for its
//! kernel clock, `ring` reports its stats into the [`MetricsRegistry`],
//! and `mve`/`core` emit each variant's stream events.
//!
//! # Determinism contract
//!
//! Events are split into two classes per variant lane:
//!
//! * **Semantic** events are a pure function of the chaos-harness plan:
//!   application request/reply syscalls, in-band control records,
//!   transformer runs, divergences, crashes. They live in their own
//!   bounded buffer, so eviction pressure from scheduling noise can
//!   never change which semantic events survive.
//! * **Auxiliary** events depend on wall-clock interleaving (idle epoll
//!   polls, clock reads, rule windows over idle traffic). They are
//!   recorded for human forensics but excluded from canonical exports.
//!
//! [`Forensics::to_json`] renders only the semantic class, with
//! per-variant semantic stream positions instead of raw ring sequence
//! numbers — two replays of the same seed produce byte-identical dumps.

mod event;
pub mod json;
mod metrics;
mod recorder;
mod time;

pub use event::{ObsEvent, ObsKind};
pub use metrics::{HistogramSnapshot, MetricValue, MetricsRegistry};
pub use recorder::{DivergencePoint, FlightRecorder, Forensics, Obs, VariantDump};
pub use time::{ManualClock, TimeSource};
