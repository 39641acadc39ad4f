/// Synchronization discipline of a leader, used to model the baseline
/// systems the paper compares against (Table 2's last rows).
///
/// Varan's decoupled ring buffer is the default (`None` at the
/// [`LeaderConfig`](crate::LeaderConfig) level); lockstep modes force the
/// leader to rendezvous with its follower and are what make MUC and Mx
/// pay 23–87% and 3–16× overheads respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockstepMode {
    /// MUC-style lockstep: after every logged syscall the leader waits
    /// for the follower to consume it before proceeding. This is also
    /// why MUC "cannot tolerate update-induced pauses" — while the
    /// follower updates, the leader is stuck at the first rendezvous.
    Muc,
    /// Mx-style double synchronization: the leader rendezvouses once to
    /// hand over the call and once more to collect the comparison
    /// verdict, modelling Mx's synchronize-at-every-syscall design.
    Mx,
}

impl LockstepMode {
    /// How many rendezvous rounds each syscall costs.
    pub fn rounds(self) -> u32 {
        match self {
            LockstepMode::Muc => 1,
            LockstepMode::Mx => 2,
        }
    }
}

/// Deterministic follower-lag perturbation for the chaos harness: the
/// follower sleeps before some of the records it consumes from the ring,
/// modelling a follower that falls behind (longer backlogs, later
/// divergence detection, fuller rings) without changing what it
/// consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LagPlan {
    /// `(every, nanos)` pairs: lag `nanos` before every `every`-th
    /// consumed record. An `every` of 0 never lags.
    pub stalls: Vec<(u64, u64)>,
}

impl LagPlan {
    /// Nanoseconds to lag before the `count`-th consumed record
    /// (1-based): the sum over the stalls whose `every` divides `count`.
    pub fn lag_nanos(&self, count: u64) -> u64 {
        self.stalls
            .iter()
            .filter(|&&(every, _)| every > 0 && count.is_multiple_of(every))
            .map(|&(_, nanos)| nanos)
            .sum()
    }

    /// Sleeps the scheduled lag for the `count`-th consumed record
    /// (1-based), if any.
    pub fn maybe_sleep(&self, count: u64) {
        let nanos = self.lag_nanos(count);
        if nanos > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(nanos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_match_the_modeled_systems() {
        assert_eq!(LockstepMode::Muc.rounds(), 1);
        assert_eq!(LockstepMode::Mx.rounds(), 2);
    }

    #[test]
    fn lag_is_the_sum_of_the_stalls_whose_period_divides_the_count() {
        let plan = LagPlan {
            stalls: vec![(4, 100), (6, 30), (0, 7)],
        };
        let lags: Vec<u64> = (1..=12).map(|n| plan.lag_nanos(n)).collect();
        assert_eq!(lags, [0, 0, 0, 100, 0, 30, 0, 100, 0, 0, 0, 130]);
        let none = LagPlan { stalls: Vec::new() };
        assert!((1..=64).all(|n| none.lag_nanos(n) == 0));
    }
}
