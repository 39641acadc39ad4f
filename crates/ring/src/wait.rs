//! Spin-then-park waiting for the lock-free ring.
//!
//! The fast path of the ring never takes a lock, so blocked
//! parties (a producer facing a full ring, a consumer facing an empty
//! one) cannot sleep on a condvar guarding the shared state — there is
//! none. Instead each side parks on an eventcount-style [`WaitSet`]:
//! the producer after an adaptive backoff ([`Backoff`]: spin → yield →
//! park), the consumer at once behind its wake mark. Waking is cheap
//! for the producer: when nobody is parked, a notify is one fence and
//! one load — no lock, no syscall.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

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
/// observes the notifier's state change (and never sleeps). The re-check
/// must load with `SeqCst` for that argument to hold.
pub(crate) struct WaitSet {
    waiters: AtomicU64,
    epoch: Mutex<u64>,
    cv: Condvar,
    /// Calls to [`WaitSet::park`]; touched only on the way to sleep.
    parks: AtomicU64,
    /// Notifies that found a registered waiter.
    wakes: AtomicU64,
}

impl WaitSet {
    pub(crate) const fn new() -> Self {
        WaitSet {
            waiters: AtomicU64::new(0),
            epoch: Mutex::new(0),
            cv: Condvar::new(),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Wakes every parked thread if any are registered. Callers must
    /// have already made the woken parties' ready conditions true.
    pub(crate) fn notify(&self) {
        self.notify_if(|| true);
    }

    /// As [`WaitSet::notify`], but only when `wanted()` holds once a
    /// registered waiter is seen. A waiter publishes what it waits for
    /// before it registers, so the acquire load of `waiters` makes that
    /// visible to `wanted`.
    pub(crate) fn notify_if(&self, wanted: impl Fn() -> bool) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Acquire) == 0 || !wanted() {
            return;
        }
        self.wakes.fetch_add(1, Ordering::Relaxed);
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *epoch = epoch.wrapping_add(1);
        self.cv.notify_all();
    }

    /// `(parks, wakes)` so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (
            self.parks.load(Ordering::Relaxed),
            self.wakes.load(Ordering::Relaxed),
        )
    }

    /// Parks until `ready()` holds or a notify arrives. The caller
    /// re-evaluates its condition afterwards: the wake may be spurious.
    pub(crate) fn park(&self, ready: impl Fn() -> bool) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        let entry = *epoch;
        while !ready() && *epoch == entry {
            epoch = self.cv.wait(epoch).unwrap_or_else(|e| e.into_inner());
        }
        drop(epoch);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
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

    /// One wait step.
    pub(crate) fn idle(&mut self, waitset: &WaitSet, ready: impl Fn() -> bool) {
        if self.step < SPIN_STEPS {
            self.step += 1;
            std::hint::spin_loop();
        } else if self.step < SPIN_STEPS + YIELD_STEPS {
            self.step += 1;
            std::thread::yield_now();
        } else {
            waitset.park(ready);
        }
    }
}
