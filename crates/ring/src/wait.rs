//! Spin-then-park waiting for the lock-free ring.
//!
//! The fast path of the ring never takes a lock, so blocked
//! parties (a producer facing a full ring, a consumer facing an empty
//! one) cannot sleep on a condvar guarding the shared state — there is
//! none. Instead each side escalates through an adaptive backoff
//! ([`Backoff`]: spin → yield → park) and parks on an eventcount-style
//! [`WaitSet`]. Waking is cheap for the producer: when nobody is parked,
//! a notify is one fence and one relaxed load — no lock, no syscall.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// An eventcount: parked threads register in `waiters`, sleep under the
/// `epoch` mutex, and are woken by bumping the epoch. The protocol that
/// makes lost wakeups impossible:
///
/// * **Waiter**: `waiters += 1` (SeqCst), lock `epoch`, re-check the
///   ready condition, sleep on the condvar.
/// * **Notifier**: mutate ring state, `fence(SeqCst)`, read `waiters`;
///   if non-zero, lock `epoch`, bump it, `notify_all`.
///
/// Either the notifier observes the waiter's registration (and wakes
/// it), or the waiter's re-check — sequenced after its registration —
/// observes the notifier's state change (and never sleeps).
pub(crate) struct WaitSet {
    waiters: AtomicU64,
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl WaitSet {
    pub(crate) const fn new() -> Self {
        WaitSet {
            waiters: AtomicU64::new(0),
            epoch: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Wakes every parked thread if any are registered. Callers must
    /// have already made the woken parties' ready conditions true.
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *epoch = epoch.wrapping_add(1);
        self.cv.notify_all();
    }

    /// Parks until `ready()` holds, a notify arrives, or `deadline`
    /// passes. Returns `false` only when the deadline expired; a `true`
    /// return means the caller should re-evaluate its condition (the
    /// wake may be spurious).
    pub(crate) fn park(&self, ready: impl Fn() -> bool, deadline: Option<Instant>) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let awake = self.park_registered(&ready, deadline);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        awake
    }

    fn park_registered(&self, ready: &impl Fn() -> bool, deadline: Option<Instant>) -> bool {
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        let entry = *epoch;
        loop {
            if ready() || *epoch != entry {
                return true;
            }
            match deadline {
                None => {
                    epoch = self.cv.wait(epoch).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    epoch = self
                        .cv
                        .wait_timeout(epoch, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }
}

/// Per-operation escalation: spin briefly (the common case when the
/// peer is actively producing/consuming), yield the CPU a few times,
/// then park on the [`WaitSet`]. The budget resets with every
/// operation, so a ring in steady flow never pays a park.
pub(crate) struct Backoff {
    step: u32,
}

const SPIN_STEPS: u32 = 128;
const YIELD_STEPS: u32 = 16;

impl Backoff {
    pub(crate) fn new() -> Self {
        Backoff { step: 0 }
    }

    /// One wait step. Returns `false` only when `deadline` expired.
    pub(crate) fn idle(
        &mut self,
        waitset: &WaitSet,
        ready: impl Fn() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        if self.step < SPIN_STEPS {
            self.step += 1;
            std::hint::spin_loop();
            return true;
        }
        if self.step < SPIN_STEPS + YIELD_STEPS {
            self.step += 1;
            std::thread::yield_now();
            return deadline.is_none_or(|d| Instant::now() < d);
        }
        waitset.park(ready, deadline)
    }
}
