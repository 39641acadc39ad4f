use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic kernel clock.
///
/// Reports nanoseconds since kernel boot. The clock can additionally be
/// advanced manually ([`Clock::advance`]), which tests use to
/// fast-forward timeouts and monitoring windows without sleeping.
pub struct Clock {
    boot: Instant,
    /// Nanoseconds added on top of real elapsed time.
    skew: AtomicU64,
}

impl Clock {
    /// Creates a clock whose epoch is "now" and which tracks real time.
    pub fn new() -> Self {
        Clock {
            boot: Instant::now(),
            skew: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since boot: real elapsed time plus every advance.
    pub fn now_nanos(&self) -> u64 {
        let real = self.boot.elapsed().as_nanos() as u64;
        real.saturating_add(self.skew.load(Ordering::Relaxed))
    }

    /// Advances the clock by `nanos` nanoseconds.
    pub fn advance(&self, nanos: u64) {
        self.skew.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("skew", &self.skew.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// The observability layer timestamps events through this impl, so
/// recordings line up with timeline nanoseconds.
impl obs::TimeSource for Clock {
    fn now_nanos(&self) -> u64 {
        Clock::now_nanos(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn advance_moves_time_forward() {
        let c = Clock::new();
        let a = c.now_nanos();
        c.advance(1_000_000_000);
        assert!(c.now_nanos() >= a + 1_000_000_000);
    }
}
