//! Seed → scenario sampling. A [`ScenarioPlan`] is everything a run
//! needs, fully determined before any server boots: the backend, the
//! client workload, the update schedule (which versions, which faults,
//! promote vs. rollback), and the environmental perturbations. Replaying
//! a seed replays the exact same plan.

use dsu::{FaultPlan, Version, XformFault};

use workload::SplitMix64;

/// Which paper server family the scenario drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Figure 1 running example (versions 1.0 → 2.0).
    Kvstore,
    /// §5.2's Redis chain (2.0.0 → 2.0.3).
    Redis,
    /// §5.3's Memcached chain (1.2.2 → 1.2.4).
    Memcached,
    /// §5.1's Vsftpd chain (first three pairs).
    Vsftpd,
}

impl Backend {
    /// Lowercase human name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Kvstore => "kvstore",
            Backend::Redis => "redis",
            Backend::Memcached => "memcached",
            Backend::Vsftpd => "vsftpd",
        }
    }

    /// The version chain the scenario walks (oldest first).
    pub fn chain(self) -> Vec<Version> {
        match self {
            Backend::Kvstore => vec![dsu::v("1.0"), dsu::v("2.0")],
            Backend::Redis => vec![
                dsu::v("2.0.0"),
                dsu::v("2.0.1"),
                dsu::v("2.0.2"),
                dsu::v("2.0.3"),
            ],
            Backend::Memcached => vec![dsu::v("1.2.2"), dsu::v("1.2.3"), dsu::v("1.2.4")],
            // The full chain has 13 pairs; chaos runs walk the first few
            // (the bench suite covers the rest).
            Backend::Vsftpd => vec![
                dsu::v("1.1.0"),
                dsu::v("1.1.1"),
                dsu::v("1.1.2"),
                dsu::v("1.1.3"),
            ],
        }
    }
}

/// One synchronous client request. Ops are restricted to commands whose
/// client-visible reply is identical across every version in the chain,
/// so the fault-free oracle never depends on where in the lifecycle the
/// request lands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// Store `key=value` (kvstore `PUT`, redis `SET`, memcached `set`).
    Put { key: String, value: String },
    /// Read `key` back.
    Get { key: String },
    /// Delete `key` (redis `DEL` / memcached `delete` only).
    Del { key: String },
    /// Vsftpd: `SIZE motd.txt`.
    Size,
    /// Vsftpd: `RETR motd.txt`.
    Retr,
}

/// What the scenario does with a monitored update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateDecision {
    /// Promote the new version and finalize (paper t4–t6).
    PromoteFinalize,
    /// Operator-initiated rollback after monitoring.
    OperatorRollback,
    /// The sampled fault fires; await the automatic rollback (probing
    /// with a read when the fault is read-triggered).
    FaultAwait,
    /// §6.2 leader-crash case: the probe kills the *old* leader and the
    /// updated follower is promoted. Only used by scripted scenarios.
    LeaderCrashPromote,
}

/// One update in the schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateStep {
    pub from: Version,
    pub to: Version,
    /// Injected fault (`FaultPlan::none()` for a clean update).
    pub fault: FaultPlan,
    pub decision: UpdateDecision,
}

/// One step of the scenario script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    Client(ClientOp),
    Update(UpdateStep),
}

/// Environmental perturbations, applied through the deterministic hooks
/// in `vos` (the `epoll_wait` delay) and `mve` (the follower's
/// `LagPlan`, which takes both consumer stalls). They stretch timings
/// without changing semantics — a run must produce the same canonical
/// trace with or without them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Perturbations {
    /// Delay every Nth `epoll_wait` by the given nanoseconds.
    pub epoll_delay: Option<(u64, u64)>,
    /// A short consumer stall: sleep before every Nth consumed record.
    /// Drawn apart from `follower_lag` and rendered as `pop=`, so each
    /// seed keeps its plan and header.
    pub ring_pop_stall: Option<(u64, u64)>,
    /// Follower lag: sleep before every Nth consumed record.
    pub follower_lag: Option<(u64, u64)>,
    /// Ring capacity (small values force Figure 7 backpressure).
    pub ring_capacity: usize,
}

impl Perturbations {
    /// No perturbations, paper-default ring.
    pub fn none() -> Self {
        Perturbations {
            epoll_delay: None,
            ring_pop_stall: None,
            follower_lag: None,
            ring_capacity: 256,
        }
    }

    /// Compact stable rendering for the trace header.
    pub fn render(&self) -> String {
        let knob = |v: Option<(u64, u64)>| match v {
            Some((every, nanos)) => format!("{every}/{nanos}ns"),
            None => "-".to_string(),
        };
        format!(
            "epoll={} pop={} lag={} cap={}",
            knob(self.epoll_delay),
            knob(self.ring_pop_stall),
            knob(self.follower_lag),
            self.ring_capacity
        )
    }
}

/// Scripted variations that cannot be expressed by sampling alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Special {
    /// Redis with the HMGET bug in the *old* version (2.0.0) and a fixed
    /// 2.0.1: the probe crashes the leader and promotion recovers.
    RedisBuggyLeader,
}

/// A fully sampled scenario: pure function of the seed.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    pub seed: u64,
    pub backend: Backend,
    pub steps: Vec<Step>,
    pub perturb: Perturbations,
    pub special: Option<Special>,
}

/// Key the engine plants before any update and faulty probes read. Kept
/// out of the sampled key space so workload deletes never remove it.
pub const SENTINEL_KEY: &str = "sentinel";
/// The sentinel's value.
pub const SENTINEL_VALUE: &str = "42";

impl ScenarioPlan {
    /// Samples the scenario for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let backend = match rng.below(10) {
            0..=3 => Backend::Kvstore,
            4..=6 => Backend::Redis,
            7..=8 => Backend::Memcached,
            _ => Backend::Vsftpd,
        };
        let perturb = sample_perturbations(&mut rng);
        let chain = backend.chain();
        let mut at = 0usize; // index into the chain
        let mut steps = Vec::new();
        let mut counter = 0u64; // value counter, so every PUT is distinct

        push_ops(&mut steps, &mut rng, backend, &mut counter, 2, 6);
        let cycles = rng.range(1, 4) as usize;
        for _ in 0..cycles {
            if at + 1 >= chain.len() {
                break; // chain exhausted; trailing ops below still run
            }
            let from = chain[at].clone();
            let to = chain[at + 1].clone();
            let fault = sample_fault(&mut rng, backend);
            let decision = if fault == FaultPlan::none() {
                if rng.chance(2, 3) {
                    UpdateDecision::PromoteFinalize
                } else {
                    UpdateDecision::OperatorRollback
                }
            } else {
                UpdateDecision::FaultAwait
            };
            if decision == UpdateDecision::PromoteFinalize {
                at += 1;
            }
            let buggy_new_code = fault.buggy_new_code;
            steps.push(Step::Update(UpdateStep {
                from,
                to,
                fault,
                decision,
            }));
            push_ops(&mut steps, &mut rng, backend, &mut counter, 1, 6);
            if buggy_new_code {
                // The registry's bug flag applies to every version from
                // the faulty target upward, so the chain ends here.
                break;
            }
        }

        ScenarioPlan {
            seed,
            backend,
            steps,
            perturb,
            special: None,
        }
    }

    /// Number of steps (the unit the minimizer truncates at).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

fn sample_perturbations(rng: &mut SplitMix64) -> Perturbations {
    let mut p = Perturbations::none();
    if rng.chance(1, 3) {
        p.epoll_delay = Some((rng.range(2, 8), rng.range(20_000, 200_000)));
    }
    if rng.chance(1, 3) {
        p.ring_pop_stall = Some((rng.range(4, 16), rng.range(20_000, 100_000)));
    }
    if rng.chance(1, 3) {
        p.follower_lag = Some((rng.range(4, 16), rng.range(50_000, 500_000)));
    }
    if rng.chance(1, 4) {
        p.ring_capacity = *[4usize, 16, 64].get(rng.below(3) as usize).unwrap();
    }
    p
}

/// Samples the update's fault. `skip_ephemeral_reset` is deliberately
/// never sampled: its divergence depends on a real dispatch-order race
/// (§5.3), which would break trace determinism.
fn sample_fault(rng: &mut SplitMix64, backend: Backend) -> FaultPlan {
    if !rng.chance(1, 3) {
        return FaultPlan::none();
    }
    match backend {
        Backend::Kvstore => FaultPlan::with_xform(match rng.below(3) {
            0 => XformFault::FailCleanly,
            1 => XformFault::DropState,
            _ => XformFault::CorruptField,
        }),
        Backend::Memcached => FaultPlan::with_xform(match rng.below(4) {
            0 => XformFault::FailCleanly,
            1 => XformFault::DropState,
            2 => XformFault::CorruptField,
            _ => XformFault::PoisonLater {
                after_steps: rng.range(3, 9) as u32,
            },
        }),
        Backend::Redis => FaultPlan {
            buggy_new_code: true,
            ..FaultPlan::none()
        },
        // No fault hooks in the vsftpd family.
        Backend::Vsftpd => FaultPlan::none(),
    }
}

fn push_ops(
    steps: &mut Vec<Step>,
    rng: &mut SplitMix64,
    backend: Backend,
    counter: &mut u64,
    lo: u64,
    hi: u64,
) {
    let n = rng.range(lo, hi);
    for _ in 0..n {
        steps.push(Step::Client(sample_op(rng, backend, counter)));
    }
}

fn sample_op(rng: &mut SplitMix64, backend: Backend, counter: &mut u64) -> ClientOp {
    let key = format!("k{}", rng.below(6));
    match backend {
        Backend::Vsftpd => {
            if rng.chance(1, 2) {
                ClientOp::Size
            } else {
                ClientOp::Retr
            }
        }
        Backend::Kvstore => {
            if rng.chance(1, 2) {
                *counter += 1;
                ClientOp::Put {
                    key,
                    value: format!("v{counter}"),
                }
            } else {
                ClientOp::Get { key }
            }
        }
        Backend::Redis | Backend::Memcached => match rng.below(5) {
            0 | 1 => {
                *counter += 1;
                ClientOp::Put {
                    key,
                    value: format!("v{counter}"),
                }
            }
            2 | 3 => ClientOp::Get { key },
            _ => ClientOp::Del { key },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        for seed in 0..50 {
            let a = ScenarioPlan::from_seed(seed);
            let b = ScenarioPlan::from_seed(seed);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.perturb, b.perturb);
        }
    }

    #[test]
    fn update_steps_walk_the_chain() {
        for seed in 0..200 {
            let plan = ScenarioPlan::from_seed(seed);
            let chain = plan.backend.chain();
            let mut at = 0usize;
            for step in &plan.steps {
                if let Step::Update(u) = step {
                    assert_eq!(u.from, chain[at], "seed {seed}");
                    assert_eq!(u.to, chain[at + 1], "seed {seed}");
                    if u.decision == UpdateDecision::PromoteFinalize {
                        at += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn faults_match_the_backend_hooks() {
        for seed in 0..300 {
            let plan = ScenarioPlan::from_seed(seed);
            for step in &plan.steps {
                if let Step::Update(u) = step {
                    assert!(
                        !u.fault.skip_ephemeral_reset,
                        "racy fault must never be sampled"
                    );
                    match plan.backend {
                        Backend::Redis => assert_eq!(u.fault.xform, None),
                        Backend::Vsftpd => assert_eq!(u.fault, FaultPlan::none()),
                        _ => assert!(!u.fault.buggy_new_code),
                    }
                }
            }
        }
    }
}
