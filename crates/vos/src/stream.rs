use std::collections::VecDeque;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::buf::Buf;
use crate::error::{Errno, OsResult};

/// A readiness notifier: a generation counter plus a condvar.
///
/// Every epoll instance owns one. `epoll_ctl(Add)` registers it
/// (weakly) with the [`WaitSet`] of the added descriptor, so a state
/// change on fd A wakes only the instances interested in fd A.
///
/// The generation and the number of parked waiters live under one
/// mutex. `bump` calls the condvar only when someone is parked: a
/// `notify_all` with no sleeper is still a futex syscall. The check is
/// made under the lock the sleeper parks on, so no wake-up is lost.
#[derive(Debug, Default)]
pub(crate) struct Notifier {
    state: Mutex<NotifierState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct NotifierState {
    gen: u64,
    /// Threads inside `wait_change`'s park; `bump` wakes only if > 0.
    parked: usize,
}

impl Notifier {
    pub fn current(&self) -> u64 {
        self.state.lock().gen
    }

    /// Threads currently parked in [`wait_change`](Self::wait_change)
    /// (test rendezvous and diagnostics).
    pub fn parked(&self) -> usize {
        self.state.lock().parked
    }

    pub fn bump(&self) {
        let mut state = self.state.lock();
        state.gen += 1;
        if state.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Waits until the generation differs from `seen` or `timeout` passes.
    /// Returns the generation observed on wakeup.
    pub fn wait_change(&self, seen: u64, timeout: Duration) -> u64 {
        let mut state = self.state.lock();
        if state.gen != seen {
            return state.gen;
        }
        state.parked += 1;
        let _ = self.cv.wait_for(&mut state, timeout);
        state.parked -= 1;
        state.gen
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
#[derive(Debug)]
struct Inbox {
    chunks: VecDeque<Buf>,
    /// Total buffered bytes (sum of chunk lengths), kept incrementally.
    len: usize,
    /// Set when the peer endpoint closed: reads drain remaining bytes and
    /// then report EOF (an empty read).
    closed: bool,
    /// Readers currently parked on the condvar. `write` calls the
    /// condvar only when this is non-zero, so it is kept exactly: a
    /// reader counts itself in under this lock right before it parks.
    /// Tests also rendezvous on it instead of sleeping.
    waiting_readers: usize,
}

/// One endpoint of a duplex in-kernel byte stream.
///
/// Each endpoint owns the buffer of bytes flowing *toward* it; writing on
/// an endpoint pushes the written [`Buf`] into the peer's inbox without
/// copying its payload.
#[derive(Debug)]
pub(crate) struct StreamEnd {
    inbox: Mutex<Inbox>,
    cv: Condvar,
    peer: OnceLock<Weak<StreamEnd>>,
    /// Epoll waiters interested in this endpoint's readability.
    waiters: Arc<WaitSet>,
}

impl StreamEnd {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (Arc<StreamEnd>, Arc<StreamEnd>) {
        let a = Arc::new(StreamEnd::new());
        let b = Arc::new(StreamEnd::new());
        a.peer.set(Arc::downgrade(&b)).expect("fresh endpoint");
        b.peer.set(Arc::downgrade(&a)).expect("fresh endpoint");
        (a, b)
    }

    fn new() -> Self {
        StreamEnd {
            inbox: Mutex::new(Inbox {
                chunks: VecDeque::new(),
                len: 0,
                closed: false,
                waiting_readers: 0,
            }),
            cv: Condvar::new(),
            peer: OnceLock::new(),
            waiters: Arc::new(WaitSet::new()),
        }
    }

    fn peer(&self) -> Option<Arc<StreamEnd>> {
        self.peer.get().and_then(Weak::upgrade)
    }

    /// The wait set an epoll instance registers with to be woken when
    /// this endpoint becomes readable.
    pub fn waiters(&self) -> &Arc<WaitSet> {
        &self.waiters
    }

    /// Readers currently parked waiting for data (test synchronization).
    pub fn waiting_readers(&self) -> usize {
        self.inbox.lock().waiting_readers
    }

    /// Writes `data` toward the peer, sharing (not copying) the payload.
    /// Fails with `ConnReset` if the peer endpoint is gone or has closed
    /// its receiving side. Wakes the peer's condvar only when a reader is
    /// parked on it.
    pub fn write(&self, data: Buf) -> OsResult<usize> {
        let peer = self.peer().ok_or(Errno::ConnReset)?;
        let n = data.len();
        {
            let mut inbox = peer.inbox.lock();
            if inbox.closed {
                return Err(Errno::ConnReset);
            }
            if n > 0 {
                inbox.len += n;
                inbox.chunks.push_back(data);
            }
            if inbox.waiting_readers > 0 {
                peer.cv.notify_all();
            }
        }
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
        let mut inbox = self.inbox.lock();
        // Set on the first park only: a read that finds data never reads
        // a clock.
        let mut deadline = None;
        loop {
            if inbox.len > 0 {
                return Ok(Self::take(&mut inbox, max));
            }
            if inbox.closed {
                return Ok(Buf::new());
            }
            let left = match timeout {
                None => None,
                Some(t) => {
                    let now = Instant::now();
                    let d = *deadline.get_or_insert(now + t);
                    if now >= d {
                        return Err(Errno::TimedOut);
                    }
                    Some(d - now)
                }
            };
            inbox.waiting_readers += 1;
            match left {
                None => self.cv.wait(&mut inbox),
                Some(left) => {
                    let _ = self.cv.wait_for(&mut inbox, left);
                }
            }
            inbox.waiting_readers -= 1;
        }
    }

    /// Removes exactly `min(max, buffered)` bytes from the inbox.
    fn take(inbox: &mut Inbox, max: usize) -> Buf {
        let n = max.min(inbox.len);
        debug_assert!(n > 0);
        let front_len = inbox.chunks.front().map(Buf::len).unwrap_or(0);
        let out = if n < front_len {
            // Partial front chunk: zero-copy sub-slice.
            inbox.chunks.front_mut().expect("front checked").split_to(n)
        } else if n == front_len {
            // Whole front chunk: zero-copy hand-off.
            inbox.chunks.pop_front().expect("front checked")
        } else {
            // Spans chunks: coalesce with bulk copies (the seed copied
            // byte-at-a-time here).
            let mut out = Vec::with_capacity(n);
            let mut remaining = n;
            while remaining > 0 {
                let mut chunk = inbox.chunks.pop_front().expect("len accounted");
                if chunk.len() <= remaining {
                    remaining -= chunk.len();
                    out.extend_from_slice(&chunk);
                } else {
                    out.extend_from_slice(&chunk.split_to(remaining));
                    remaining = 0;
                    inbox.chunks.push_front(chunk);
                }
            }
            Buf::from_vec(out)
        };
        inbox.len -= n;
        out
    }

    /// True when a read would not block: buffered bytes or EOF pending.
    pub fn readable(&self) -> bool {
        let inbox = self.inbox.lock();
        inbox.len > 0 || inbox.closed
    }

    /// Number of buffered bytes waiting to be read from this endpoint.
    pub fn pending(&self) -> usize {
        self.inbox.lock().len
    }

    /// Closes this endpoint: the peer sees EOF after draining, and local
    /// reads see EOF immediately once the buffer drains.
    pub fn close(&self) {
        {
            let mut inbox = self.inbox.lock();
            inbox.closed = true;
            self.cv.notify_all();
        }
        self.waiters.wake();
        if let Some(peer) = self.peer() {
            {
                let mut inbox = peer.inbox.lock();
                inbox.closed = true;
                peer.cv.notify_all();
            }
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

    /// Spins (yielding) until `end` has a parked reader — the
    /// deterministic replacement for the seed's 20 ms sleep: the
    /// waiting_readers counter is incremented under the inbox lock
    /// immediately before the condvar park, so observing it guarantees
    /// the reader cannot miss a subsequent notify.
    fn await_reader(end: &StreamEnd) {
        while end.waiting_readers() == 0 {
            std::thread::yield_now();
        }
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
        let w0 = watcher.current();
        let b0 = bystander.current();
        a.write(buf(b"x")).unwrap();
        assert!(watcher.current() > w0, "registered waiter woken");
        assert_eq!(bystander.current(), b0, "unregistered notifier untouched");
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
        assert_eq!(b.waiting_readers(), 0);
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
        assert_eq!(
            b.waiting_readers(),
            0,
            "the woken reader counted itself out"
        );
    }

    #[test]
    fn notifier_counts_parked_waiters() {
        let n = Arc::new(Notifier::default());
        n.bump(); // Nobody parked: the generation still moves.
        let seen = n.current();
        assert_eq!(seen, 1);
        let n2 = n.clone();
        let t = std::thread::spawn(move || n2.wait_change(seen, Duration::from_secs(5)));
        while n.parked() == 0 {
            std::thread::yield_now();
        }
        n.bump();
        assert_eq!(t.join().unwrap(), 2);
        assert_eq!(n.parked(), 0);
        // A stale generation returns at once without parking.
        assert_eq!(n.wait_change(seen, Duration::from_secs(5)), 2);
    }
}
