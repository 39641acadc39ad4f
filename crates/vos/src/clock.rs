use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic kernel clock.
///
/// Reports nanoseconds since kernel boot. The clock can additionally be
/// advanced manually ([`Clock::advance`]), which deterministic tests use
/// to exercise timeout paths without sleeping.
///
/// In **virtual mode** ([`Clock::new_virtual`]), which the chaos
/// harness uses, real elapsed time is ignored entirely and the clock
/// moves *only* via [`Clock::advance`], making timestamps a pure
/// function of the advance sequence.
pub struct Clock {
    boot: Instant,
    /// Virtual nanoseconds added on top of (real or zero) elapsed time.
    skew: AtomicU64,
    /// When true, `now_nanos` ignores real elapsed time.
    virtual_only: bool,
}

impl Clock {
    /// Creates a clock whose epoch is "now" and which tracks real time.
    pub fn new() -> Self {
        Clock {
            boot: Instant::now(),
            skew: AtomicU64::new(0),
            virtual_only: false,
        }
    }

    /// Creates a clock that moves only via [`Clock::advance`], so every
    /// timestamp is a pure function of the advance sequence.
    pub fn new_virtual() -> Self {
        Clock {
            virtual_only: true,
            ..Clock::new()
        }
    }

    /// Nanoseconds since boot (real elapsed time plus any virtual skew;
    /// skew only in virtual mode).
    pub fn now_nanos(&self) -> u64 {
        let real = if self.virtual_only {
            0
        } else {
            self.boot.elapsed().as_nanos() as u64
        };
        real.saturating_add(self.skew.load(Ordering::Relaxed))
    }

    /// Advances the clock by `nanos` virtual nanoseconds.
    pub fn advance(&self, nanos: u64) {
        self.skew.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("virtual_only", &self.virtual_only)
            .field("skew", &self.skew.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// The observability layer timestamps events and measures stalls
/// through this impl, so harness recordings use virtual time and stay
/// replay-stable.
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

    #[test]
    fn virtual_clock_only_moves_on_advance() {
        let c = Clock::new_virtual();
        assert_eq!(c.now_nanos(), 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(c.now_nanos(), 0);
        c.advance(250);
        assert_eq!(c.now_nanos(), 250);
    }
}
