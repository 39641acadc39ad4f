use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::buf::Buf;
use crate::error::{Errno, OsResult};

/// How long a blocking wait polls for its peer before it parks: about
/// the wall time of one futex hand-off, so a wait never polls for much
/// longer than parking would have cost (competitive spinning). On the
/// shared 2-vCPU guest the numbers in docs/vos.md come from, a park and
/// the wake that ends it cost 4.0–4.5 µs of CPU and 6–11 µs of wall; a
/// peer that answers within this budget is met with neither.
/// `vos_bench`'s `park_price` measures these prices on another host.
const SPIN_BUDGET: Duration = Duration::from_micros(10);

/// The most waits in a row a waiter skips its spin for.
const MAX_SKIPPED_SPINS: u32 = 15;

/// A value that threads block on until it changes: vos's one way to
/// wait. Each stream end's inbox is one, and each epoll instance's
/// [`Notifier`].
///
/// The value and the count of parked waiters share one mutex.
/// [`update`](Self::update) changes the value and counts the change in
/// `changes`; [`wait`](Self::wait) blocks until a check of the value
/// passes. No wake-up is lost: a waiter checks and counts itself in
/// under the lock, and the condvar wait releases that lock atomically,
/// while an updater changes the value and reads the count under the
/// same lock. So either the update comes first and the waiter's check
/// sees it, or the waiter is counted first and the updater notifies.
/// `update` calls the condvar only when someone is parked: a
/// `notify_all` with no sleeper is still a futex syscall.
///
/// Before it parks, a wait spins once: it polls `changes` with the lock
/// released, for at most [`SPIN_BUDGET`] or until its deadline, yielding
/// between polls so that a peer on the same CPU gets to answer, and
/// then checks again under the lock. The spin decides only when the
/// waiter checks, never what it returns. A spinning waiter is not
/// counted, so an updater skips its wake, which is right: the waiter
/// polls the counter the updater has already moved.
///
/// A waiter whose updates keep coming later than the budget only wastes
/// its polls: after `n` spins in a row ran out, its next `n` waits (at
/// most [`MAX_SKIPPED_SPINS`]) go straight to the park, and the wait
/// after them spins again, so it notices when updates speed up. A spin
/// that sees a change clears the count; a spin cut short by the wait's
/// own deadline counts neither way. The history is kept with plain
/// loads and stores: two waiters racing on one cell can blur it, which
/// changes only whether a later wait spins.
#[derive(Debug, Default)]
pub(crate) struct WaitCell<T> {
    slot: Mutex<Slot<T>>,
    /// Updates so far. Changed only under the lock, so a check under the
    /// lock reads it exactly; an atomic, so that the spin and
    /// [`changes`](Self::changes) read it without the lock. `update`'s
    /// `Release` pairs with `changes`'s `Acquire`: a thread that sees a
    /// new count also sees what the updater did before it.
    changes: AtomicU64,
    cv: Condvar,
    /// Spins in a row that ran out of budget.
    misses: AtomicU32,
    /// Waits left that skip the spin.
    skips: AtomicU32,
}

#[derive(Debug, Default)]
struct Slot<T> {
    value: T,
    /// Threads parked in `wait`, counted in right before the park and
    /// out right after it, under the lock: `update` relies on it being
    /// exact, and tests rendezvous on it instead of sleeping.
    parked: usize,
}

impl<T> WaitCell<T> {
    /// Updates so far.
    pub fn changes(&self) -> u64 {
        self.changes.load(Ordering::Acquire)
    }

    /// Threads parked in [`wait`](Self::wait) (test rendezvous and
    /// diagnostics). A wait that ends inside its spin never counts.
    pub fn parked(&self) -> usize {
        self.slot.lock().parked
    }

    /// Reads the value under the lock.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.slot.lock().value)
    }

    /// Changes the value with `f`, counts the change and wakes the
    /// parked waiters, if any, to check it.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut slot = self.slot.lock();
        let out = f(&mut slot.value);
        self.changes.fetch_add(1, Ordering::Release);
        if slot.parked > 0 {
            self.cv.notify_all();
        }
        out
    }

    /// Blocks until `ready` returns `Some`, which it returns, or until
    /// `timeout` (if given) passes, when it returns `None`. `ready` runs
    /// under the lock. The deadline is set when a check first fails, so
    /// a wait whose first check passes reads no clock.
    pub fn wait<R>(
        &self,
        timeout: Option<Duration>,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let mut slot = self.slot.lock();
        let mut deadline = None;
        let mut spun = false;
        loop {
            if let Some(out) = ready(&mut slot.value) {
                return Some(out);
            }
            let left = match timeout {
                None => None,
                Some(t) => {
                    let now = Instant::now();
                    let d = *deadline.get_or_insert(now + t);
                    if now >= d {
                        return None;
                    }
                    Some(d - now)
                }
            };
            if !spun {
                spun = true;
                let seen = self.changes.load(Ordering::Relaxed);
                drop(slot);
                self.spin(seen, deadline);
                slot = self.slot.lock();
                continue;
            }
            slot.parked += 1;
            match left {
                None => self.cv.wait(&mut slot),
                Some(left) => {
                    let _ = self.cv.wait_for(&mut slot, left);
                }
            }
            slot.parked -= 1;
        }
    }

    /// The spin phase of a wait: polls `changes` until it moves from
    /// `seen`, [`SPIN_BUDGET`] passes or `deadline` does, whichever is
    /// first, and keeps the skip history.
    fn spin(&self, seen: u64, deadline: Option<Instant>) {
        let skips = self.skips.load(Ordering::Relaxed);
        if skips > 0 {
            self.skips.store(skips - 1, Ordering::Relaxed);
            return;
        }
        let budget = Instant::now() + SPIN_BUDGET;
        // Whether the budget, not the wait's deadline, ends the spin.
        let (end, budgeted) = match deadline {
            Some(d) if d < budget => (d, false),
            _ => (budget, true),
        };
        while self.changes.load(Ordering::Relaxed) == seen {
            if Instant::now() >= end {
                if budgeted {
                    let misses = (self.misses.load(Ordering::Relaxed) + 1).min(MAX_SKIPPED_SPINS);
                    self.misses.store(misses, Ordering::Relaxed);
                    self.skips.store(misses, Ordering::Relaxed);
                }
                return;
            }
            std::thread::yield_now();
        }
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A readiness notifier: its value is nothing, and a waiter waits for
/// [`changes`](WaitCell::changes) to move.
///
/// Every epoll instance owns one. `epoll_ctl(Add)` registers it
/// (weakly) with the [`WaitSet`] of the added descriptor, so a state
/// change on fd A wakes only the instances interested in fd A.
pub(crate) type Notifier = WaitCell<()>;

impl Notifier {
    pub fn bump(&self) {
        self.update(|_| ());
    }

    /// Waits until [`changes`](WaitCell::changes) differs from `seen` or
    /// `timeout` passes. True if it moved.
    pub fn wait_change(&self, seen: u64, timeout: Duration) -> bool {
        self.wait(Some(timeout), |_| (self.changes() != seen).then_some(()))
            .is_some()
    }
}

/// The set of notifiers interested in one kernel resource.
///
/// Registration is idempotent (per-notifier, by pointer identity) and
/// weak: a dropped epoll instance falls out lazily. `wake` bumps every
/// live registered notifier.
#[derive(Debug, Default)]
pub(crate) struct WaitSet {
    waiters: Mutex<Vec<Weak<Notifier>>>,
}

impl WaitSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `notifier` for wakeups from this resource. Idempotent;
    /// prunes dead entries while it holds the lock anyway.
    pub fn register(&self, notifier: &Arc<Notifier>) {
        let mut waiters = self.waiters.lock();
        waiters.retain(|w| w.strong_count() > 0);
        if !waiters.iter().any(|w| w.as_ptr() == Arc::as_ptr(notifier)) {
            waiters.push(Arc::downgrade(notifier));
        }
    }

    /// Removes `notifier` (and any dead entry) from this resource.
    pub fn unregister(&self, notifier: &Arc<Notifier>) {
        self.waiters
            .lock()
            .retain(|w| w.strong_count() > 0 && w.as_ptr() != Arc::as_ptr(notifier));
    }

    /// Wakes every live registered notifier.
    pub fn wake(&self) {
        let waiters = self.waiters.lock();
        for w in waiters.iter() {
            if let Some(n) = w.upgrade() {
                n.bump();
            }
        }
    }

    /// Number of live registrations (tests and diagnostics).
    pub fn len(&self) -> usize {
        self.waiters
            .lock()
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

/// Bytes flowing toward one endpoint: a queue of shared immutable
/// chunks, exactly as the peers wrote them. Reads slice the front chunk
/// without copying; only a read spanning chunk boundaries coalesces
/// (one bulk copy), preserving the seed's "contiguous min(max,
/// buffered) bytes" contract.
#[derive(Debug, Default)]
struct Inbox {
    chunks: VecDeque<Buf>,
    /// Total buffered bytes (sum of chunk lengths), kept incrementally.
    len: usize,
    /// Set when the peer endpoint closed: reads drain remaining bytes and
    /// then report EOF (an empty read).
    closed: bool,
}

impl Inbox {
    /// Removes exactly `min(max, buffered)` bytes.
    fn take(&mut self, max: usize) -> Buf {
        let n = max.min(self.len);
        debug_assert!(n > 0);
        let front_len = self.chunks.front().map(Buf::len).unwrap_or(0);
        let out = if n < front_len {
            // Partial front chunk: zero-copy sub-slice.
            self.chunks.front_mut().expect("front checked").split_to(n)
        } else if n == front_len {
            // Whole front chunk: zero-copy hand-off.
            self.chunks.pop_front().expect("front checked")
        } else {
            // Spans chunks: coalesce with bulk copies (the seed copied
            // byte-at-a-time here).
            let mut out = Vec::with_capacity(n);
            let mut remaining = n;
            while remaining > 0 {
                let mut chunk = self.chunks.pop_front().expect("len accounted");
                if chunk.len() <= remaining {
                    remaining -= chunk.len();
                    out.extend_from_slice(&chunk);
                } else {
                    out.extend_from_slice(&chunk.split_to(remaining));
                    remaining = 0;
                    self.chunks.push_front(chunk);
                }
            }
            Buf::from_vec(out)
        };
        self.len -= n;
        out
    }
}

/// One endpoint of a duplex in-kernel byte stream.
///
/// Each endpoint owns the buffer of bytes flowing *toward* it; writing on
/// an endpoint pushes the written [`Buf`] into the peer's inbox without
/// copying its payload.
#[derive(Debug, Default)]
pub(crate) struct StreamEnd {
    inbox: WaitCell<Inbox>,
    peer: OnceLock<Weak<StreamEnd>>,
    /// Epoll waiters interested in this endpoint's readability.
    waiters: Arc<WaitSet>,
}

impl StreamEnd {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (Arc<StreamEnd>, Arc<StreamEnd>) {
        let a = Arc::new(StreamEnd::default());
        let b = Arc::new(StreamEnd::default());
        a.peer.set(Arc::downgrade(&b)).expect("fresh endpoint");
        b.peer.set(Arc::downgrade(&a)).expect("fresh endpoint");
        (a, b)
    }

    fn peer(&self) -> Option<Arc<StreamEnd>> {
        self.peer.get().and_then(Weak::upgrade)
    }

    /// The wait set an epoll instance registers with to be woken when
    /// this endpoint becomes readable.
    pub fn waiters(&self) -> &Arc<WaitSet> {
        &self.waiters
    }

    /// Readers currently parked waiting for data (see
    /// [`WaitCell::parked`]).
    pub fn parked(&self) -> usize {
        self.inbox.parked()
    }

    /// Writes `data` toward the peer, sharing (not copying) the payload.
    /// Fails with `ConnReset` if the peer endpoint is gone or has closed
    /// its receiving side.
    pub fn write(&self, data: Buf) -> OsResult<usize> {
        let peer = self.peer().ok_or(Errno::ConnReset)?;
        let n = data.len();
        peer.inbox.update(|inbox| {
            if inbox.closed {
                return Err(Errno::ConnReset);
            }
            if n > 0 {
                inbox.len += n;
                inbox.chunks.push_back(data);
            }
            Ok(())
        })?;
        peer.waiters.wake();
        Ok(n)
    }

    /// Reads up to `max` bytes, blocking until data is available, EOF, or
    /// `timeout` (if given) elapses. An `Ok` empty buffer means EOF.
    ///
    /// The common case — the front chunk covers the request — returns a
    /// slice of the writer's own allocation, zero-copy. A request that
    /// spans chunks coalesces them with bulk copies.
    pub fn read(&self, max: usize, timeout: Option<Duration>) -> OsResult<Buf> {
        if max == 0 {
            return Ok(Buf::new());
        }
        self.inbox
            .wait(timeout, |inbox| {
                if inbox.len > 0 {
                    Some(inbox.take(max))
                } else if inbox.closed {
                    Some(Buf::new())
                } else {
                    None
                }
            })
            .ok_or(Errno::TimedOut)
    }

    /// True when a read would not block: buffered bytes or EOF pending.
    pub fn readable(&self) -> bool {
        self.inbox.with(|inbox| inbox.len > 0 || inbox.closed)
    }

    /// Number of buffered bytes waiting to be read from this endpoint.
    pub fn pending(&self) -> usize {
        self.inbox.with(|inbox| inbox.len)
    }

    /// Closes this endpoint: the peer sees EOF after draining, and local
    /// reads see EOF immediately once the buffer drains.
    pub fn close(&self) {
        self.inbox.update(|inbox| inbox.closed = true);
        self.waiters.wake();
        if let Some(peer) = self.peer() {
            peer.inbox.update(|inbox| inbox.closed = true);
            peer.waiters.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn buf(data: &[u8]) -> Buf {
        Buf::copy_from_slice(data)
    }

    /// Yields until `parked()` reports a parked waiter; panics after
    /// 10 s, so a waiter that never parks fails instead of hanging.
    fn await_parked(parked: impl Fn() -> usize) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while parked() == 0 {
            assert!(Instant::now() < give_up, "the waiter never parked");
            std::thread::yield_now();
        }
    }

    /// Yields until `end` has a parked reader — the deterministic
    /// replacement for the seed's 20 ms sleep: the parked count is
    /// incremented under the inbox lock immediately before the condvar
    /// park, so observing it guarantees the reader cannot miss a
    /// subsequent notify.
    fn await_reader(end: &StreamEnd) {
        await_parked(|| end.parked());
    }

    #[test]
    fn write_then_read_round_trips() {
        let (a, b) = StreamEnd::pair();
        a.write(buf(b"hello")).unwrap();
        assert_eq!(b.read(16, None).unwrap(), b"hello");
    }

    #[test]
    fn read_respects_max() {
        let (a, b) = StreamEnd::pair();
        a.write(buf(b"abcdef")).unwrap();
        assert_eq!(b.read(2, None).unwrap(), b"ab");
        assert_eq!(b.read(16, None).unwrap(), b"cdef");
    }

    #[test]
    fn read_spanning_chunks_coalesces() {
        let (a, b) = StreamEnd::pair();
        a.write(buf(b"ab")).unwrap();
        a.write(buf(b"cd")).unwrap();
        a.write(buf(b"ef")).unwrap();
        // Spans the first two chunks and half the third.
        assert_eq!(b.read(5, None).unwrap(), b"abcde");
        assert_eq!(b.read(16, None).unwrap(), b"f");
    }

    #[test]
    fn whole_chunk_read_is_zero_copy() {
        let (a, b) = StreamEnd::pair();
        let payload = buf(b"payload-bytes");
        let src_ptr = payload.as_slice().as_ptr();
        a.write(payload).unwrap();
        let got = b.read(64, None).unwrap();
        assert_eq!(got, b"payload-bytes");
        assert_eq!(
            got.as_slice().as_ptr(),
            src_ptr,
            "whole-chunk read must hand back the writer's allocation"
        );
    }

    #[test]
    fn partial_chunk_read_is_zero_copy() {
        let (a, b) = StreamEnd::pair();
        let payload = buf(b"0123456789");
        let src_ptr = payload.as_slice().as_ptr();
        a.write(payload).unwrap();
        let head = b.read(4, None).unwrap();
        assert_eq!(head, b"0123");
        assert_eq!(head.as_slice().as_ptr(), src_ptr, "front slice shares");
        let tail = b.read(64, None).unwrap();
        assert_eq!(tail, b"456789");
        assert_eq!(
            tail.as_slice().as_ptr(),
            unsafe { src_ptr.add(4) },
            "tail slice shares too"
        );
    }

    #[test]
    fn read_blocks_until_written() {
        let (a, b) = StreamEnd::pair();
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.read(8, None).unwrap());
        await_reader(&b);
        a.write(buf(b"late")).unwrap();
        assert_eq!(t.join().unwrap(), b"late");
    }

    #[test]
    fn read_times_out() {
        let (_a, b) = StreamEnd::pair();
        let err = b.read(8, Some(Duration::from_millis(10))).unwrap_err();
        assert_eq!(err, Errno::TimedOut);
    }

    #[test]
    fn close_gives_eof_after_drain() {
        let (a, b) = StreamEnd::pair();
        a.write(buf(b"tail")).unwrap();
        a.close();
        assert_eq!(b.read(16, None).unwrap(), b"tail");
        assert_eq!(b.read(16, None).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn close_wakes_a_reader_parked_on_either_end() {
        let (a, b) = StreamEnd::pair();
        let readers = [&a, &b].map(|end| {
            let end = end.clone();
            std::thread::spawn(move || end.read(8, Some(Duration::from_secs(10))))
        });
        await_reader(&a);
        await_reader(&b);
        let closer = a.clone();
        std::thread::spawn(move || closer.close()).join().unwrap();
        for reader in readers {
            assert_eq!(reader.join().unwrap().unwrap(), Vec::<u8>::new(), "EOF");
        }
        assert_eq!((a.parked(), b.parked()), (0, 0));
    }

    #[test]
    fn write_to_closed_peer_is_reset() {
        let (a, b) = StreamEnd::pair();
        b.close();
        assert_eq!(a.write(buf(b"x")).unwrap_err(), Errno::ConnReset);
    }

    #[test]
    fn readable_reflects_buffer_and_eof() {
        let (a, b) = StreamEnd::pair();
        assert!(!b.readable());
        a.write(buf(b"x")).unwrap();
        assert!(b.readable());
        let _ = b.read(1, None).unwrap();
        assert!(!b.readable());
        a.close();
        assert!(b.readable(), "EOF counts as readable");
    }

    #[test]
    fn empty_write_is_accepted_and_buffers_nothing() {
        let (a, b) = StreamEnd::pair();
        assert_eq!(a.write(Buf::new()).unwrap(), 0);
        assert_eq!(b.pending(), 0);
        assert!(!b.readable());
    }

    #[test]
    fn waitset_wakes_only_registered_waiters() {
        let (a, b) = StreamEnd::pair();
        let watcher = Arc::new(Notifier::default());
        let bystander = Arc::new(Notifier::default());
        b.waiters().register(&watcher);
        assert_eq!(b.waiters().len(), 1);
        let w0 = watcher.changes();
        let b0 = bystander.changes();
        a.write(buf(b"x")).unwrap();
        assert!(watcher.changes() > w0, "registered waiter woken");
        assert_eq!(bystander.changes(), b0, "unregistered notifier untouched");
    }

    #[test]
    fn waitset_registration_is_idempotent_and_weak() {
        let set = WaitSet::new();
        let n = Arc::new(Notifier::default());
        set.register(&n);
        set.register(&n);
        assert_eq!(set.len(), 1);
        drop(n);
        assert_eq!(set.len(), 0, "dead registrations fall out");
    }

    #[test]
    fn write_wakes_only_a_parked_reader_and_loses_nothing() {
        let (a, b) = StreamEnd::pair();
        // No reader parked: the write only queues.
        assert_eq!(b.parked(), 0);
        a.write(buf(b"early")).unwrap();
        let b2 = b.clone();
        let t = std::thread::spawn(move || {
            let first = b2.read(16, None).unwrap();
            // Parks after the write it never waited for.
            let second = b2.read(16, None).unwrap();
            (first, second)
        });
        await_reader(&b);
        a.write(buf(b"late")).unwrap();
        let (first, second) = t.join().unwrap();
        assert_eq!((&first[..], &second[..]), (&b"early"[..], &b"late"[..]));
        assert_eq!(b.parked(), 0, "the woken reader counted itself out");
    }

    #[test]
    fn notifier_counts_parked_waiters() {
        let n = Arc::new(Notifier::default());
        n.bump(); // Nobody parked: the count still moves.
        let seen = n.changes();
        assert_eq!(seen, 1);
        let n2 = n.clone();
        let t = std::thread::spawn(move || n2.wait_change(seen, Duration::from_secs(5)));
        await_parked(|| n.parked());
        n.bump();
        assert!(t.join().unwrap(), "the bump woke the parked waiter");
        assert_eq!((n.changes(), n.parked()), (2, 0));
        // A stale count returns at once without parking.
        assert!(n.wait_change(seen, Duration::from_secs(5)));
    }

    /// Runs `wait` 100 times with a 1 ns timeout, each time on a fresh
    /// waiter from `fresh`, and returns the fastest run. A spin that
    /// ignored the deadline would poll for the whole 10 µs budget every
    /// time; a fresh waiter has no history of run-out spins that would
    /// let it skip the spin. The spin checks its deadline before each
    /// yield, and a 1 ns deadline has passed by the first check, so a run
    /// never yields: on a loaded machine it is delayed only if it is
    /// preempted, and the fastest of 100 is not. A longer timeout that
    /// still lies inside the budget would reach a yield on every run, now
    /// that the spin yields on every poll, and could lose the CPU each
    /// time.
    fn fastest_short_wait<W>(
        mut fresh: impl FnMut() -> W,
        mut wait: impl FnMut(&W, Duration),
    ) -> Duration {
        (0..100)
            .map(|_| {
                let waiter = fresh();
                let t0 = Instant::now();
                wait(&waiter, Duration::from_nanos(1));
                t0.elapsed()
            })
            .min()
            .expect("100 runs")
    }

    #[test]
    fn read_shorter_than_the_spin_budget_times_out_on_time() {
        let fastest = fastest_short_wait(StreamEnd::pair, |(_a, b), timeout| {
            assert_eq!(b.read(8, Some(timeout)).unwrap_err(), Errno::TimedOut);
            assert_eq!(b.parked(), 0);
        });
        assert!(
            fastest < SPIN_BUDGET,
            "fastest timed-out read took {fastest:?}"
        );
    }

    #[test]
    fn wait_change_shorter_than_the_spin_budget_returns_on_time() {
        let fastest = fastest_short_wait(Notifier::default, |n, timeout| {
            assert!(!n.wait_change(0, timeout), "nothing changed");
            assert_eq!(n.parked(), 0);
        });
        assert!(
            fastest < SPIN_BUDGET,
            "fastest timed-out wait took {fastest:?}"
        );
    }

    #[test]
    fn spins_that_keep_running_out_are_skipped_then_retried() {
        let cell = WaitCell::<()>::default();
        let state = |c: &WaitCell<()>| {
            (
                c.misses.load(Ordering::Relaxed),
                c.skips.load(Ordering::Relaxed),
            )
        };
        // Nothing updates the cell, so every spin that polls runs out,
        // and each one skips one more of the following waits.
        for misses in 1..=3 {
            cell.spin(0, None);
            assert_eq!(state(&cell), (misses, misses));
            for skipped in 1..=misses {
                // `seen` is stale: a spin that polled would see a change
                // at once and clear the count.
                cell.spin(u64::MAX, None);
                assert_eq!(
                    state(&cell),
                    (misses, misses - skipped),
                    "a skipped spin does not poll"
                );
            }
        }
        // The count is capped, and one spin that sees a change clears it.
        cell.misses.store(MAX_SKIPPED_SPINS, Ordering::Relaxed);
        cell.spin(0, None);
        assert_eq!(state(&cell), (MAX_SKIPPED_SPINS, MAX_SKIPPED_SPINS));
        cell.skips.store(0, Ordering::Relaxed);
        cell.spin(u64::MAX, None);
        assert_eq!(state(&cell), (0, 0));
        // A spin cut short by the wait's deadline counts neither way.
        cell.spin(0, Some(Instant::now()));
        assert_eq!(state(&cell), (0, 0));
    }

    #[test]
    fn a_read_woken_by_an_empty_write_keeps_waiting() {
        // An empty write moves the inbox's change count and gives the
        // reader nothing: whether it sees the move in its spin or is
        // woken from its park, the reader must check again and wait on.
        let (a, b) = StreamEnd::pair();
        let b2 = b.clone();
        let reader = std::thread::spawn(move || b2.read(8, None));
        while b.parked() == 0 && !reader.is_finished() {
            a.write(Buf::new()).unwrap();
        }
        a.write(buf(b"data")).unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), b"data");
    }

    #[test]
    fn parking_hand_offs_lose_no_wake_up() {
        // Two threads take turns on one cell, and every wait skips its
        // spin, so a wait that finds the other side's turn unfinished
        // parks. A lost wake-up leaves a waiter asleep until its timeout
        // although its turn has come.
        const ROUNDS: u64 = 20_000;
        let limit = Duration::from_secs(1);
        let cell = Arc::new(WaitCell::<u64>::default());
        cell.skips.store(u32::MAX, Ordering::Relaxed);
        let side = |parity: u64| {
            let cell = cell.clone();
            std::thread::spawn(move || {
                for turn in (0..ROUNDS).map(|i| 2 * i + parity) {
                    let t0 = Instant::now();
                    cell.wait(Some(limit), |v| (*v == turn).then_some(()));
                    assert!(t0.elapsed() < limit, "turn {turn} slept to its timeout");
                    cell.update(|v| *v += 1);
                }
            })
        };
        let (a, b) = (side(0), side(1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!((cell.with(|v| *v), cell.parked()), (2 * ROUNDS, 0));
    }

    #[test]
    fn ping_pong_waits_leave_no_parked_count() {
        // Two threads hand 64 B back and forth, so most reads find their
        // reply while they spin; whichever way each wait ended, none may
        // stay counted as parked.
        let (a, b) = StreamEnd::pair();
        let b2 = b.clone();
        let echo = std::thread::spawn(move || {
            for _ in 0..2_000 {
                let req = b2.read(64, None).unwrap();
                b2.write(req).unwrap();
            }
        });
        for i in 0..2_000u32 {
            a.write(buf(&i.to_le_bytes())).unwrap();
            assert_eq!(a.read(64, None).unwrap(), &i.to_le_bytes()[..]);
        }
        echo.join().unwrap();
        assert_eq!((a.parked(), b.parked()), (0, 0));
    }
}
