//! The MVE event ring buffer.
//!
//! Varan's central data structure is a bounded ring buffer: the leader
//! registers each intercepted system call and its result; the follower
//! consumes the records at its own pace. Decoupling the two is what lets
//! MVEDSUA hide the dynamic-update pause — the leader keeps serving while
//! the follower is busy updating, and the buffered records are replayed
//! afterwards (paper §3.2, Figure 2).
//!
//! Two properties matter for fidelity with the paper:
//!
//! * **The producer blocks when the ring is full** ("If the buffer gets
//!   full, the leader blocks until the follower finishes the update").
//!   Figure 7's ring-size sweep exists precisely because of this.
//! * **Records are never dropped or reordered.**
//!
//! [`Ring`] is a fixed-capacity, lock-free single-producer/
//! single-consumer ring in the style of Varan's shared-memory ring; the
//! consumer moves records out rather than cloning them. One consumer is
//! all MVEDSUA needs, since the runner builds fresh rings for every
//! update. Calling either end from two threads at once panics. See
//! `docs/ring.md` for the protocol.
//!
//! # Example
//!
//! ```
//! use ring::Ring;
//! use std::sync::Arc;
//!
//! let ring: Arc<Ring<u32>> = Arc::new(Ring::with_capacity(4));
//! ring.push(1)?;
//! ring.push(2)?;
//! assert_eq!(ring.pop(None)?, 1);
//! ring.close();
//! assert_eq!(ring.pop(None)?, 2);
//! assert!(ring.pop(None).is_err()); // drained and closed
//! # Ok::<(), ring::RingError>(())
//! ```

use std::error::Error;
use std::fmt;

mod spsc;
mod wait;

pub use spsc::Ring;

/// Why a ring operation could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RingError {
    /// Producer closed the ring and all records were drained.
    Closed,
    /// Consumer side is gone; the record cannot ever be delivered.
    Poisoned,
    /// A timed wait elapsed.
    TimedOut,
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RingError::Closed => "ring closed by producer",
            RingError::Poisoned => "ring poisoned: consumer is gone",
            RingError::TimedOut => "timed out waiting on ring",
        })
    }
}

impl Error for RingError {}

/// Usage counters, all monotonic. Cheap enough to keep unconditionally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Total records ever pushed.
    pub pushed: u64,
    /// Total records ever popped (records discarded by `poison` are
    /// not counted).
    pub popped: u64,
    /// Largest occupancy observed.
    pub high_water: usize,
    /// Times a `push` had to block on a full ring.
    pub producer_stalls: u64,
    /// Cumulative nanoseconds producers spent blocked.
    pub producer_stall_nanos: u64,
}

impl RingStats {
    /// Publish these counters into a metrics registry under
    /// `<prefix>.pushed`, `<prefix>.popped`, etc. Counters accumulate
    /// across calls (so several rings can merge under one prefix);
    /// `high_water` merges as a max gauge.
    pub fn merge_into(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        registry.counter_add(&format!("{prefix}.pushed"), self.pushed);
        registry.counter_add(&format!("{prefix}.popped"), self.popped);
        registry.gauge_max(&format!("{prefix}.high_water"), self.high_water as u64);
        registry.counter_add(&format!("{prefix}.producer_stalls"), self.producer_stalls);
        registry.counter_add(
            &format!("{prefix}.producer_stall_nanos"),
            self.producer_stall_nanos,
        );
    }
}
