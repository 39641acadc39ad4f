use std::fmt;

use dsl::Event;

/// A detected behavioural divergence between leader and follower.
///
/// Divergences are *the* signal MVEDSUA acts on: an unexpected one rolls
/// the update back (terminate the follower, keep the leader); rules in
/// the update's DSL package absorb the expected ones before they get
/// here.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Sequence number in the leader's stream where disagreement arose.
    pub seq: u64,
    /// What the (rule-transformed) leader stream said should happen next.
    pub expected: Option<Event>,
    /// What the follower actually attempted (display form).
    pub attempted: String,
    /// Extra context: rule-evaluation failures, malformed computed events.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divergence at seq {}: ", self.seq)?;
        match &self.expected {
            Some(e) => write!(f, "expected {e}, ")?,
            None => write!(f, "no expected event, ")?,
        }
        write!(f, "follower attempted {}", self.attempted)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

impl std::error::Error for Divergence {}

/// Why a variant stopped executing. Raised by [`VariantOs`] as a typed
/// panic payload and caught by the variant runner in `mvedsua-core` — the
/// thread-level analogue of Varan killing a variant process.
///
/// [`VariantOs`]: crate::VariantOs
#[derive(Clone, Debug, PartialEq)]
pub enum RetireReason {
    /// The coordinator poisoned this variant's incoming ring (rollback of
    /// an update, or retirement of the demoted old version at t6).
    Terminated,
    /// The variant observed a divergence and must stop.
    Diverged(Divergence),
}

/// Typed panic payload carrying a [`RetireReason`] out of the syscall
/// layer without threading a `Result` through every application.
#[derive(Clone, Debug)]
pub struct RetiredSignal(pub RetireReason);

impl RetiredSignal {
    /// Raises the signal as a panic; the variant runner downcasts it.
    pub fn raise(reason: RetireReason) -> ! {
        std::panic::panic_any(RetiredSignal(reason))
    }

    /// Attempts to extract a `RetiredSignal` from a caught panic payload.
    pub fn from_payload(payload: &(dyn std::any::Any + Send)) -> Option<&RetiredSignal> {
        payload.downcast_ref::<RetiredSignal>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsl::Value;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn display_is_informative() {
        let d = Divergence {
            seq: 42,
            expected: Some(Event::new("write", vec![Value::Int(5)])),
            attempted: "write(fd=5, \"+WRONG\\r\\n\")".into(),
            detail: String::new(),
        };
        let s = d.to_string();
        assert!(s.contains("seq 42"), "{s}");
        assert!(s.contains("expected write(5)"), "{s}");
    }

    #[test]
    fn signal_round_trips_through_panic() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            RetiredSignal::raise(RetireReason::Terminated);
        }));
        let payload = result.unwrap_err();
        let sig = RetiredSignal::from_payload(&*payload).expect("typed payload");
        assert_eq!(sig.0, RetireReason::Terminated);
    }

    #[test]
    fn foreign_panics_are_not_signals() {
        let result = catch_unwind(|| panic!("ordinary crash"));
        let payload = result.unwrap_err();
        assert!(RetiredSignal::from_payload(&*payload).is_none());
    }
}
