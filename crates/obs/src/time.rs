//! Injectable time sources for the recorder.
//!
//! Every timestamp in the observability layer flows through a
//! [`TimeSource`] trait object so the caller decides what "now" means:
//! the vos kernel clock in harness runs, or a [`ManualClock`] in tests.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond clock.
///
/// `vos::Clock` and `vos::VirtualKernel` implement this (in the `vos`
/// crate, to keep the dependency arrow pointing at `obs`), so any layer
/// holding a kernel handle can hand it to the recorder.
pub trait TimeSource: Send + Sync {
    /// Nanoseconds since this source's epoch.
    fn now_nanos(&self) -> u64;
}

/// A clock that only moves when told to. Used by tests to prove that a
/// measured duration is exactly the amount the test advanced the clock
/// by — i.e. that no wall time leaked into the measurement.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the clock forward by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.nanos.fetch_add(delta, Ordering::SeqCst);
    }

    /// Set the clock to an absolute value.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl TimeSource for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(250);
        assert_eq!(clock.now_nanos(), 250);
        clock.set(1_000);
        assert_eq!(clock.now_nanos(), 1_000);
        clock.advance(1);
        assert_eq!(clock.now_nanos(), 1_001);
    }
}
