//! A LibEvent-like event loop.
//!
//! Memcached is built around LibEvent (paper §5.3): the application
//! registers descriptors it cares about, and the library's internal loop
//! dispatches callbacks when they become ready — **in round-robin
//! fashion, remembering where it left off between invocations**. That
//! memory is user-space state. A dynamically updated program rebuilds its
//! event-loop structures from the migrated descriptors, so the fresh
//! instance starts its round-robin from zero while the leader continues
//! from wherever it was. With two or more connections ready at once, the
//! two variants then service them in different orders, their writes
//! interleave differently, and MVE reports a divergence. The paper's fix
//! (and ours) is a reset callback on the leader at fork time
//! ([`EventLoop::reset_memory`], wired through
//! `DsuApp::reset_ephemeral`).
//!
//! Instead of storing callbacks (which would make state snapshots
//! impossible to clone), registrations carry a caller-chosen `Clone`
//! token; [`EventLoop::poll`] returns `(fd, token)` pairs in dispatch
//! order and the application matches on the token.
//!
//! # Example
//!
//! ```
//! use evloop::EventLoop;
//! use vos::{DirectOs, Os, VirtualKernel};
//!
//! #[derive(Clone, PartialEq, Debug)]
//! enum Tok { Listener }
//!
//! # fn main() -> Result<(), vos::Errno> {
//! let kernel = VirtualKernel::new();
//! let mut os = DirectOs::new(kernel.clone());
//! let listener = os.listen(7070)?;
//!
//! let mut ev = EventLoop::new();
//! ev.register(&mut os, listener, Tok::Listener)?;
//!
//! let _client = kernel.connect(7070)?;          // makes the listener ready
//! let ready = ev.poll(&mut os, 8, 100)?;
//! assert_eq!(ready, vec![(listener, Tok::Listener)]);
//! # Ok(())
//! # }
//! ```

use vos::{CtlOp, Errno, Fd, Os, OsResult};

/// A LibEvent-style dispatcher over one epoll instance.
///
/// `T` is the per-registration token (e.g. an enum distinguishing the
/// listening socket from client connections).
#[derive(Clone, Debug)]
pub struct EventLoop<T> {
    ep: Option<Fd>,
    entries: Vec<(Fd, T)>,
    /// Round-robin memory: index into `entries` where the next dispatch
    /// scan starts. This is the state the paper's timing error hinges on.
    cursor: usize,
}

impl<T: Clone> EventLoop<T> {
    /// An empty loop; the epoll instance is created on first use.
    pub fn new() -> Self {
        EventLoop {
            ep: None,
            entries: Vec::new(),
            cursor: 0,
        }
    }

    /// Rebuilds a loop around an *existing* epoll descriptor and
    /// registration list — how an updated program version re-attaches to
    /// the kernel objects that survived the update. Note the round-robin
    /// cursor starts at zero: that loss of memory is intentional and is
    /// exactly what diverges unless the leader resets too.
    pub fn from_parts(ep: Fd, entries: Vec<(Fd, T)>) -> Self {
        EventLoop {
            ep: Some(ep),
            entries,
            cursor: 0,
        }
    }

    /// Decomposes the loop for state migration.
    pub fn into_parts(self) -> (Option<Fd>, Vec<(Fd, T)>) {
        (self.ep, self.entries)
    }

    /// The epoll descriptor, if created.
    pub fn epoll_fd(&self) -> Option<Fd> {
        self.ep
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current round-robin cursor (exposed for tests and diagnostics).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Creates the epoll instance if it does not exist yet and returns
    /// it. Every other method calls this lazily; a server calls it up
    /// front to fix its descriptor number before any client can connect.
    ///
    /// # Errors
    /// Propagates `epoll_create` failures.
    pub fn open(&mut self, os: &mut dyn Os) -> OsResult<Fd> {
        match self.ep {
            Some(ep) => Ok(ep),
            None => {
                let ep = os.epoll_create()?;
                self.ep = Some(ep);
                Ok(ep)
            }
        }
    }

    /// Registers `fd` with a dispatch token.
    ///
    /// # Errors
    /// `Inval` if the descriptor is already registered.
    pub fn register(&mut self, os: &mut dyn Os, fd: Fd, token: T) -> OsResult<()> {
        if self.entries.iter().any(|(f, _)| *f == fd) {
            return Err(Errno::Inval);
        }
        let ep = self.open(os)?;
        os.epoll_ctl(ep, CtlOp::Add, fd)?;
        self.entries.push((fd, token));
        Ok(())
    }

    /// Removes a registration.
    ///
    /// # Errors
    /// `Inval` if the descriptor is not registered.
    pub fn deregister(&mut self, os: &mut dyn Os, fd: Fd) -> OsResult<()> {
        let idx = self
            .entries
            .iter()
            .position(|(f, _)| *f == fd)
            .ok_or(Errno::Inval)?;
        let ep = self.open(os)?;
        os.epoll_ctl(ep, CtlOp::Del, fd)?;
        self.entries.remove(idx);
        if self.cursor > idx {
            self.cursor -= 1;
        }
        if !self.entries.is_empty() {
            self.cursor %= self.entries.len();
        } else {
            self.cursor = 0;
        }
        Ok(())
    }

    /// Waits up to `timeout_ms` and returns the ready registrations in
    /// **dispatch order**: the kernel's ready set rotated so that
    /// scanning starts at the round-robin cursor; the cursor then
    /// advances past the first dispatched entry.
    ///
    /// An empty result means the wait timed out.
    ///
    /// # Errors
    /// Propagates `epoll_wait` failures.
    pub fn poll(&mut self, os: &mut dyn Os, max: usize, timeout_ms: u64) -> OsResult<Vec<(Fd, T)>> {
        let ep = self.open(os)?;
        let ready = os.epoll_wait(ep, max, timeout_ms)?;
        if ready.is_empty() || self.entries.is_empty() {
            return Ok(Vec::new());
        }
        // Order ready fds by registration index, rotated by the cursor.
        let mut indexed: Vec<(usize, Fd)> = ready
            .iter()
            .filter_map(|fd| {
                self.entries
                    .iter()
                    .position(|(f, _)| f == fd)
                    .map(|i| (i, *fd))
            })
            .collect();
        if indexed.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.entries.len();
        let cursor = self.cursor;
        indexed.sort_by_key(|(i, _)| (i + n - cursor) % n);
        self.cursor = (indexed[0].0 + 1) % n;
        Ok(indexed
            .into_iter()
            .map(|(i, fd)| (fd, self.entries[i].1.clone()))
            .collect())
    }

    /// Resets the round-robin memory — the paper §5.3's "callback to
    /// reset some of LibEvent's state", invoked on the leader when an
    /// update forks so that leader and follower dispatch in the same
    /// order.
    pub fn reset_memory(&mut self) {
        self.cursor = 0;
    }
}

impl<T: Clone> Default for EventLoop<T> {
    fn default() -> Self {
        EventLoop::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vos::{DirectOs, VirtualKernel};

    #[derive(Clone, Debug, PartialEq)]
    enum Tok {
        Listener,
        Conn(u8),
    }

    struct Rig {
        kernel: Arc<VirtualKernel>,
        os: DirectOs,
        listener: Fd,
    }

    fn rig() -> Rig {
        let kernel = VirtualKernel::new();
        let mut os = DirectOs::new(kernel.clone());
        let listener = os.listen(7000).unwrap();
        Rig {
            kernel,
            os,
            listener,
        }
    }

    /// Connect a client and accept it server-side; returns (client fd,
    /// server fd).
    fn connect(rig: &mut Rig) -> (Fd, Fd) {
        let c = rig.kernel.connect(7000).unwrap();
        let s = rig.os.accept(rig.listener).unwrap();
        (c, s)
    }

    #[test]
    fn register_poll_dispatch() {
        let mut rig = rig();
        let mut ev = EventLoop::new();
        ev.register(&mut rig.os, rig.listener, Tok::Listener)
            .unwrap();
        let (c1, s1) = connect(&mut rig);
        // The pending accept made the listener ready before registration
        // of the conn; now register the conn and write to it.
        ev.register(&mut rig.os, s1, Tok::Conn(1)).unwrap();
        rig.kernel.client_send(c1, b"x").unwrap();
        let ready = ev.poll(&mut rig.os, 8, 100).unwrap();
        assert!(ready.contains(&(s1, Tok::Conn(1))));
    }

    #[test]
    fn open_creates_the_epoll_instance_once() {
        let mut rig = rig();
        let mut ev: EventLoop<Tok> = EventLoop::new();
        let ep = ev.open(&mut rig.os).unwrap();
        assert_eq!(ev.epoll_fd(), Some(ep));
        assert_eq!(ev.open(&mut rig.os).unwrap(), ep);
        ev.register(&mut rig.os, rig.listener, Tok::Listener)
            .unwrap();
        assert_eq!(ev.epoll_fd(), Some(ep), "register reuses the instance");
    }

    #[test]
    fn double_register_rejected() {
        let mut rig = rig();
        let mut ev = EventLoop::new();
        ev.register(&mut rig.os, rig.listener, Tok::Listener)
            .unwrap();
        assert_eq!(
            ev.register(&mut rig.os, rig.listener, Tok::Listener)
                .unwrap_err(),
            Errno::Inval
        );
    }

    #[test]
    fn deregister_removes_and_fixes_cursor() {
        let mut rig = rig();
        let mut ev = EventLoop::new();
        let (_c1, s1) = connect(&mut rig);
        let (_c2, s2) = connect(&mut rig);
        ev.register(&mut rig.os, s1, Tok::Conn(1)).unwrap();
        ev.register(&mut rig.os, s2, Tok::Conn(2)).unwrap();
        assert_eq!(ev.len(), 2);
        ev.deregister(&mut rig.os, s1).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev.deregister(&mut rig.os, s1).unwrap_err(), Errno::Inval);
        assert_eq!(ev.cursor(), 0);
    }

    #[test]
    fn poll_times_out_empty() {
        let mut rig = rig();
        let mut ev = EventLoop::new();
        ev.register(&mut rig.os, rig.listener, Tok::Listener)
            .unwrap();
        let ready = ev.poll(&mut rig.os, 8, 10).unwrap();
        assert!(ready.is_empty());
    }

    #[test]
    fn round_robin_rotates_across_polls() {
        let mut rig = rig();
        let mut ev = EventLoop::new();
        let (c1, s1) = connect(&mut rig);
        let (c2, s2) = connect(&mut rig);
        ev.register(&mut rig.os, s1, Tok::Conn(1)).unwrap();
        ev.register(&mut rig.os, s2, Tok::Conn(2)).unwrap();

        // Both ready: first poll starts at cursor 0 → serves conn 1 first.
        rig.kernel.client_send(c1, b"a").unwrap();
        rig.kernel.client_send(c2, b"b").unwrap();
        let first = ev.poll(&mut rig.os, 8, 100).unwrap();
        assert_eq!(first[0].1, Tok::Conn(1));
        assert_eq!(ev.cursor(), 1);

        // Both still ready: second poll starts past conn 1 → conn 2 first.
        let second = ev.poll(&mut rig.os, 8, 100).unwrap();
        assert_eq!(second[0].1, Tok::Conn(2));
    }

    #[test]
    fn fresh_instance_dispatches_differently_without_reset() {
        // The timing-error mechanism in miniature: two loops over the
        // same kernel state, one with memory and one fresh, disagree on
        // dispatch order.
        let mut rig = rig();
        let mut warm = EventLoop::new();
        let (c1, s1) = connect(&mut rig);
        let (c2, s2) = connect(&mut rig);
        warm.register(&mut rig.os, s1, Tok::Conn(1)).unwrap();
        warm.register(&mut rig.os, s2, Tok::Conn(2)).unwrap();
        rig.kernel.client_send(c1, b"a").unwrap();
        rig.kernel.client_send(c2, b"b").unwrap();
        let _ = warm.poll(&mut rig.os, 8, 100).unwrap(); // advances memory
        assert_ne!(warm.cursor(), 0);

        // Rebuild "after an update": same epoll fd and entries, no memory.
        let (ep, entries) = warm.clone().into_parts();
        let mut fresh = EventLoop::from_parts(ep.unwrap(), entries);
        let warm_order = warm.poll(&mut rig.os, 8, 100).unwrap();
        let fresh_order = fresh.poll(&mut rig.os, 8, 100).unwrap();
        assert_ne!(
            warm_order[0].1, fresh_order[0].1,
            "divergent dispatch order"
        );

        // With the reset callback, both agree.
        warm.reset_memory();
        let a = warm.poll(&mut rig.os, 8, 100).unwrap();
        fresh.reset_memory();
        let b = fresh.poll(&mut rig.os, 8, 100).unwrap();
        assert_eq!(a[0].1, b[0].1);
    }

    #[test]
    fn from_parts_preserves_registrations() {
        let mut rig = rig();
        let mut ev = EventLoop::new();
        let (_c1, s1) = connect(&mut rig);
        ev.register(&mut rig.os, s1, Tok::Conn(1)).unwrap();
        let (ep, entries) = ev.into_parts();
        let rebuilt: EventLoop<Tok> = EventLoop::from_parts(ep.unwrap(), entries);
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt.cursor(), 0);
        assert_eq!(rebuilt.epoll_fd(), ep);
    }

    #[test]
    fn ready_fds_not_registered_are_skipped() {
        let mut rig = rig();
        // A loop whose epoll has an interest that never made it into the
        // registration list: ready fds without an entry are dropped.
        let empty: Vec<(Fd, Tok)> = Vec::new();
        let ep = rig.os.epoll_create().unwrap();
        rig.os.epoll_ctl(ep, CtlOp::Add, rig.listener).unwrap();
        let mut orphan = EventLoop::from_parts(ep, empty);
        let _c = rig.kernel.connect(7000).unwrap();
        let ready = orphan.poll(&mut rig.os, 8, 50).unwrap();
        assert!(ready.is_empty(), "ready but unregistered fds are dropped");
    }
}
