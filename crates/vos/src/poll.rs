use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fd::Fd;
use crate::stream::{Notifier, WaitSet};

/// Operation argument to `epoll_ctl`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtlOp {
    /// Register interest in a descriptor.
    Add,
    /// Remove interest in a descriptor.
    Del,
}

/// Kernel-side state of one epoll instance: the interest list in
/// registration order, plus the instance's own readiness notifier.
///
/// `epoll_wait` reports ready descriptors in registration order; any
/// round-robin fairness lives in user space (see `mvedsua-evloop`), which
/// is exactly the split that produces the paper's LibEvent timing error.
///
/// As Linux's `ep_insert` does, `add` registers the notifier with the
/// [`WaitSet`] of the added descriptor once, and `del` unregisters it:
/// activity on the descriptors in the list — and only those — wakes this
/// instance's waiters. Both hold the interest-list lock while they do it,
/// so the list and the registrations never disagree.
///
/// [`WaitSet`]: crate::stream::WaitSet
#[derive(Debug, Default)]
pub(crate) struct EpollState {
    interests: Mutex<Vec<Fd>>,
    notifier: Arc<Notifier>,
    /// Times an `epoll_wait` on this instance was woken by descriptor
    /// activity (as opposed to timing out). Diagnostic for wakeup
    /// targeting: a write to an unrelated fd must not move this.
    wakeups: AtomicU64,
}

impl EpollState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `fd` to the interest list and registers with its wait-set
    /// (`None` for a descriptor that no longer exists: the scan reports
    /// it ready anyway). False if `fd` was already in the list.
    pub fn add(&self, fd: Fd, wait: Option<&WaitSet>) -> bool {
        let mut interests = self.interests.lock();
        if interests.contains(&fd) {
            return false;
        }
        interests.push(fd);
        if let Some(wait) = wait {
            wait.register(&self.notifier);
        }
        true
    }

    /// Removes `fd` from the interest list and unregisters from its
    /// wait-set. False if `fd` was not in the list.
    pub fn del(&self, fd: Fd, wait: Option<&WaitSet>) -> bool {
        let mut interests = self.interests.lock();
        let Some(i) = interests.iter().position(|f| *f == fd) else {
            return false;
        };
        interests.remove(i);
        if let Some(wait) = wait {
            wait.unregister(&self.notifier);
        }
        true
    }

    /// Up to `max` interests for which `ready` holds, in registration
    /// order. Walks the list under its lock instead of copying it.
    pub fn ready(&self, max: usize, ready: impl FnMut(&Fd) -> bool) -> Vec<Fd> {
        self.interests
            .lock()
            .iter()
            .copied()
            .filter(ready)
            .take(max)
            .collect()
    }

    /// The notifier descriptor wait-sets bump to wake this instance.
    pub fn notifier(&self) -> &Notifier {
        &self.notifier
    }

    pub fn note_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(ep: &EpollState) -> Vec<Fd> {
        ep.ready(usize::MAX, |_| true)
    }

    #[test]
    fn add_is_idempotent_and_ordered() {
        let ep = EpollState::new();
        assert!(ep.add(Fd::from_raw(5), None));
        assert!(ep.add(Fd::from_raw(3), None));
        assert!(!ep.add(Fd::from_raw(5), None));
        assert_eq!(all(&ep), &[Fd::from_raw(5), Fd::from_raw(3)]);
    }

    #[test]
    fn del_removes_only_present() {
        let ep = EpollState::new();
        ep.add(Fd::from_raw(1), None);
        assert!(ep.del(Fd::from_raw(1), None));
        assert!(!ep.del(Fd::from_raw(1), None));
        assert!(all(&ep).is_empty());
    }

    #[test]
    fn ready_keeps_registration_order_and_max() {
        let ep = EpollState::new();
        for fd in [9, 2, 6, 4] {
            ep.add(Fd::from_raw(fd), None);
        }
        let even = ep.ready(2, |fd| fd.as_raw() % 2 == 0);
        assert_eq!(even, &[Fd::from_raw(2), Fd::from_raw(6)]);
    }

    #[test]
    fn wakeup_counter_accumulates() {
        let ep = EpollState::new();
        assert_eq!(ep.wakeups(), 0);
        ep.note_wakeup();
        ep.note_wakeup();
        assert_eq!(ep.wakeups(), 2);
    }
}
