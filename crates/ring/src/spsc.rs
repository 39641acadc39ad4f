//! The single-producer/single-consumer ring (the [`Ring`]).
//!
//! Layout and protocol (Varan §2's shared-memory ring, one follower):
//!
//! * Records live in a preallocated power-of-two array of slots. Slot
//!   `p & mask` carries position `p` of the stream.
//! * Two monotone counters, each on its own cache line: `tail`, written
//!   only by the producer, and `head`, written only by the consumer. A
//!   slot in `[head, tail)` holds a published record owned by the
//!   consumer; every other slot is empty and owned by the producer.
//! * The producer writes a record into slot `tail` and publishes it
//!   with a release store of `tail + 1`. The consumer moves records out
//!   of their slots and hands them back with a release store of `head`.
//!   A slot is reused only once `head` has passed it.
//! * Each end holds a busy flag for the length of a call, so there is
//!   at most one producer call and one consumer call at a time.
//!
//! Blocking (`push` on full, `pop` on empty, `wait_empty`) escalates
//! spin → yield → park via [`crate::wait`].

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::wait::{Backoff, WaitSet};
use crate::{RingError, RingStats};

/// Pads hot words to their own cache line so the two counters and the
/// two sides' private state never false-share.
#[derive(Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// Marks one end of the ring as in use for the length of a call. Both
/// ends take `&self`, so nothing else stops two threads from calling
/// `push` (or `pop`) at once and racing on the same counter.
struct EndGuard<'a>(&'a AtomicBool);

impl<'a> EndGuard<'a> {
    /// Claims the end, or panics if another call holds it: the ring has
    /// exactly one producer and one consumer.
    fn enter(busy: &'a AtomicBool, end: &str, call: &str) -> Self {
        if busy.swap(true, Ordering::SeqCst) {
            panic!(
                "ring misuse: `{call}` called while another {end} call is in progress \
                 (a Ring has exactly one {end})"
            );
        }
        EndGuard(busy)
    }
}

impl Drop for EndGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// State only the producer writes; any thread may read the stats.
#[derive(Default)]
struct ProducerSide {
    busy: AtomicBool,
    /// Last `head` the producer loaded; never ahead of the real one.
    cached_head: AtomicU64,
    high_water: AtomicU64,
    stalls: AtomicU64,
    stall_nanos: AtomicU64,
}

/// State only the consumer writes, plus the chaos stall config.
#[derive(Default)]
struct ConsumerSide {
    busy: AtomicBool,
    /// Last `tail` the consumer loaded; never ahead of the real one.
    cached_tail: AtomicU64,
    /// Monotone `pop` call counter (drives the stall schedule).
    pops: AtomicU64,
    /// Stall every Nth `pop` call; 0 disables the perturbation.
    pop_stall_every: AtomicU64,
    /// Length of each injected consumer stall, in nanoseconds.
    pop_stall_nanos: AtomicU64,
}

/// A bounded, blocking, FIFO ring buffer with one producer and one
/// consumer.
///
/// See the [crate docs](crate) for the role it plays in MVE. `Ring` is
/// `Sync`; share it as `Arc<Ring<T>>`. `push`, `push_tagged`,
/// `try_push` and `push_batch` form the producer end; `pop`,
/// `pop_batch` and `peek` the consumer end. Each end may move between
/// threads, but calling one end from two threads at once panics.
/// `close`, `poison`, `len`, `stats` and `wait_empty` may be called
/// from any thread.
pub struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
    capacity: usize,
    /// Next stream position the producer will write.
    tail: CachePadded<AtomicU64>,
    /// Next stream position the consumer will take.
    head: CachePadded<AtomicU64>,
    closed: AtomicBool,
    poisoned: AtomicBool,
    /// Consumers waiting for records (or close/poison).
    data_waiters: WaitSet,
    /// Producers waiting for space, plus `wait_empty` rendezvousers.
    space_waiters: WaitSet,
    producer: CachePadded<ProducerSide>,
    consumer: CachePadded<ConsumerSide>,
    /// Clock for measuring producer stall time. `None` (the default)
    /// means wall clock; the harness injects the vos virtual clock so
    /// `producer_stall_nanos` is replay-stable across runs of the same
    /// chaos seed. Read only on the cold full-ring path.
    stall_clock: Mutex<Option<Arc<dyn obs::TimeSource>>>,
}

// SAFETY: records are written on the producer's thread and moved out
// (or, for `peek`, cloned) on the consumer's; the busy flags and the
// head/tail handoff give every slot one accessor at a time, so `T: Send`
// is enough. Every other field is an atomic, a `WaitSet` or a `Mutex`.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// Slots are preallocated (rounded up to a power of two); records
    /// are written in place and moved out by the consumer.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a zero ring cannot make progress —
    /// use the lockstep mode in `mvedsua-mve` for rendezvous semantics).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        let slot_count = capacity.next_power_of_two();
        Ring {
            slots: (0..slot_count)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: slot_count as u64 - 1,
            capacity,
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            data_waiters: WaitSet::new(),
            space_waiters: WaitSet::new(),
            producer: CachePadded::default(),
            consumer: CachePadded::default(),
            stall_clock: Mutex::new(None),
        }
    }

    /// Route producer stall timing through `source` instead of the wall
    /// clock. With a virtual or manual clock, `producer_stall_nanos`
    /// becomes a pure function of clock advances — deterministic across
    /// replays of the same schedule — instead of of scheduler timing.
    pub fn set_stall_time_source(&self, source: Arc<dyn obs::TimeSource>) {
        *self.stall_clock.lock() = Some(source);
    }

    /// Perturbation hook for the chaos harness: every `every`-th
    /// `pop` call sleeps for `stall` first, modelling a descheduled or
    /// lagging consumer. `every == 0` disables it. Only timing shifts;
    /// FIFO order and delivery are untouched.
    pub fn set_pop_stall(&self, every: u64, stall: Duration) {
        let consumer = &self.consumer.0;
        consumer
            .pop_stall_nanos
            .store(stall.as_nanos() as u64, Ordering::Relaxed);
        consumer.pop_stall_every.store(every, Ordering::Relaxed);
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy: records published but not yet consumed. Zero
    /// once the ring is poisoned (buffered records are discarded).
    pub fn len(&self) -> usize {
        if self.poisoned.load(Ordering::Acquire) {
            return 0;
        }
        let head = self.head.0.load(Ordering::Acquire);
        self.tail.0.load(Ordering::Acquire).saturating_sub(head) as usize
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the usage counters.
    pub fn stats(&self) -> RingStats {
        let producer = &self.producer.0;
        RingStats {
            pushed: self.tail.0.load(Ordering::Acquire),
            popped: self.head.0.load(Ordering::Acquire),
            high_water: producer.high_water.load(Ordering::Relaxed) as usize,
            producer_stalls: producer.stalls.load(Ordering::Relaxed),
            producer_stall_nanos: producer.stall_nanos.load(Ordering::Relaxed),
        }
    }

    fn slot(&self, position: u64) -> *mut MaybeUninit<T> {
        self.slots[(position & self.mask) as usize].get()
    }

    /// Whether `n` more records fit after `tail`, reloading `head` only
    /// when the cached copy says no.
    fn has_room(&self, tail: u64, n: u64) -> bool {
        let cap = self.capacity as u64;
        let cached = &self.producer.0.cached_head;
        if tail + n - cached.load(Ordering::Relaxed) <= cap {
            return true;
        }
        let head = self.head.0.load(Ordering::Acquire);
        cached.store(head, Ordering::Relaxed);
        tail + n - head <= cap
    }

    /// Waits (when `block`) until `n` records fit and returns the
    /// position to write them at.
    fn reserve(&self, n: u64, block: bool) -> Result<u64, RingError> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut backoff = Backoff::new();
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RingError::Poisoned);
            }
            // SeqCst pairs with the consumer's close check (see
            // `published`): a push that saw the ring open is delivered.
            if self.closed.load(Ordering::SeqCst) {
                return Err(RingError::Closed);
            }
            if self.has_room(tail, n) {
                return Ok(tail);
            }
            if !block {
                return Err(RingError::TimedOut);
            }
            let producer = &self.producer.0;
            producer.stalls.fetch_add(1, Ordering::Relaxed);
            // Stall time on the injected clock if any, else wall time.
            let (clock, epoch) = (self.stall_clock.lock().clone(), Instant::now());
            let now = || {
                clock
                    .as_ref()
                    .map_or_else(|| epoch.elapsed().as_nanos() as u64, |c| c.now_nanos())
            };
            let begin = now();
            // Park until the consumer frees a slot (or the ring dies);
            // the ready closure keeps this immune to lost wakeups.
            let ready = || {
                self.poisoned.load(Ordering::Acquire)
                    || self.closed.load(Ordering::Acquire)
                    || self.has_room(tail, n)
            };
            backoff.idle(&self.space_waiters, ready, None);
            producer
                .stall_nanos
                .fetch_add(now().saturating_sub(begin), Ordering::Relaxed);
        }
    }

    /// Publishes everything written below `end`, updates the high-water
    /// mark, and wakes the consumer.
    fn publish(&self, end: u64) {
        self.tail.0.store(end, Ordering::Release);
        let producer = &self.producer.0;
        // `cached_head` trails the real head, so this estimate is an
        // upper bound; reload only when it could set a new maximum.
        let estimate = end - producer.cached_head.load(Ordering::Relaxed);
        if estimate > producer.high_water.load(Ordering::Relaxed) {
            let head = self.head.0.load(Ordering::Acquire);
            producer.cached_head.store(head, Ordering::Relaxed);
            let occupancy = (end - head).min(self.capacity as u64);
            producer.high_water.fetch_max(occupancy, Ordering::Relaxed);
        }
        self.data_waiters.notify();
    }

    /// Appends a record, blocking while the ring is full.
    ///
    /// # Errors
    /// [`RingError::Poisoned`] if the consumer is gone, or
    /// [`RingError::Closed`] if `close` was already called.
    ///
    /// # Panics
    /// If another producer call is in progress on another thread.
    pub fn push(&self, item: T) -> Result<(), RingError> {
        self.push_tagged(item).map(|_| ())
    }

    /// Appends a record, blocking while the ring is full, and returns
    /// the record's stream position (0-based, never reused). The
    /// observability layer tags flight-recorder events with it so
    /// leader and follower dumps can be aligned record-for-record.
    ///
    /// # Errors
    /// As [`Ring::push`].
    pub fn push_tagged(&self, item: T) -> Result<u64, RingError> {
        self.push_one(item, true, "push")
    }

    /// Appends a record if there is room, without blocking.
    ///
    /// # Errors
    /// Also [`RingError::TimedOut`] when the ring is full.
    pub fn try_push(&self, item: T) -> Result<(), RingError> {
        self.push_one(item, false, "try_push").map(|_| ())
    }

    fn push_one(&self, item: T, block: bool, call: &str) -> Result<u64, RingError> {
        let _end = EndGuard::enter(&self.producer.0.busy, "producer", call);
        let position = self.reserve(1, block)?;
        // SAFETY: we hold the producer end and `reserve` found room, so
        // the slot lies outside `[head, tail)`: empty and ours.
        unsafe { (*self.slot(position)).write(item) };
        self.publish(position + 1);
        Ok(position)
    }

    /// Appends a batch of records, blocking while the ring is full.
    /// Room for up to `capacity` records at a time is reserved and
    /// published in one synchronization round, so per-record overhead
    /// amortizes away.
    ///
    /// # Errors
    /// As [`Ring::push`]. On error, records already published stay
    /// published; the unpublished remainder of the batch is dropped.
    pub fn push_batch(&self, items: impl IntoIterator<Item = T>) -> Result<(), RingError> {
        let _end = EndGuard::enter(&self.producer.0.busy, "producer", "push_batch");
        let mut pending: Vec<T> = items.into_iter().collect();
        let mut queue = pending.drain(..);
        loop {
            let chunk = queue.len().min(self.capacity) as u64;
            if chunk == 0 {
                return Ok(());
            }
            let position = self.reserve(chunk, true)?;
            for (i, item) in (0..chunk).zip(queue.by_ref()) {
                // SAFETY: as in `push_one`, for each slot of the chunk.
                unsafe { (*self.slot(position + i)).write(item) };
            }
            self.publish(position + chunk);
        }
    }

    /// Marks the producer side finished: the consumer drains the
    /// remaining records and then sees [`RingError::Closed`].
    /// Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.data_waiters.notify();
        self.space_waiters.notify();
    }

    /// Marks the consumer side gone: the producer (blocked or future)
    /// fails with [`RingError::Poisoned`], and buffered records are
    /// discarded. Used on rollback, when the follower is terminated.
    /// Idempotent.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.data_waiters.notify();
        self.space_waiters.notify();
    }

    /// Blocks until the ring drains empty, the ring dies, or `timeout`
    /// elapses. Lockstep execution (the MUC/Mx baselines) rendezvouses
    /// on this after every push.
    ///
    /// # Errors
    /// [`RingError::Poisoned`] if poisoned, [`RingError::TimedOut`] on
    /// timeout. A closed ring that drains still returns `Ok`.
    pub fn wait_empty(&self, timeout: Option<Duration>) -> Result<(), RingError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let drained = || self.head.0.load(Ordering::Acquire) >= self.tail.0.load(Ordering::Acquire);
        let mut backoff = Backoff::new();
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RingError::Poisoned);
            }
            if drained() {
                return Ok(());
            }
            let ready = || self.poisoned.load(Ordering::Acquire) || drained();
            if !backoff.idle(&self.space_waiters, ready, deadline) {
                return Err(RingError::TimedOut);
            }
        }
    }

    /// True once [`Ring::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Advances the chaos stall schedule by `count` pop-call indices in
    /// one counter update and sleeps once per scheduled index in the
    /// window, so batched draining consumes exactly the indices that
    /// record-at-a-time draining would.
    fn apply_pop_stall(&self, count: u64) {
        if count == 0 {
            return;
        }
        let consumer = &self.consumer.0;
        let every = consumer.pop_stall_every.load(Ordering::Relaxed);
        if every == 0 {
            // The call counter only matters while the perturbation is
            // armed, and the chaos harness arms it before the first pop
            // — skip the counter update on the unperturbed hot path.
            return;
        }
        let start = consumer.pops.fetch_add(count, Ordering::Relaxed);
        let stall = Duration::from_nanos(consumer.pop_stall_nanos.load(Ordering::Relaxed));
        if stall.is_zero() {
            return;
        }
        // First multiple of `every` at or after `start`.
        let mut index = start.div_ceil(every) * every;
        while index < start + count {
            std::thread::sleep(stall);
            index += every;
        }
    }

    /// Blocks until at least `n` records are published past `head` and
    /// returns `(head, tail)`. Called with the consumer end held, so
    /// `head` cannot move underneath.
    fn published(&self, n: u64, timeout: Option<Duration>) -> Result<(u64, u64), RingError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let head = self.head.0.load(Ordering::Relaxed);
        let cached = &self.consumer.0.cached_tail;
        let mut backoff = Backoff::new();
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RingError::Poisoned);
            }
            let tail = cached.load(Ordering::Relaxed);
            if tail - head >= n {
                return Ok((head, tail));
            }
            let tail = self.tail.0.load(Ordering::Acquire);
            cached.store(tail, Ordering::Relaxed);
            if tail - head >= n {
                return Ok((head, tail));
            }
            // Closed and short. A push that passed its closed check
            // before `close` holds the producer end until it publishes,
            // so trust `tail` only once that end is idle (SeqCst pairs
            // with `close` and with the producer's closed check).
            if self.closed.load(Ordering::SeqCst)
                && !self.producer.0.busy.load(Ordering::SeqCst)
                && self.tail.0.load(Ordering::SeqCst) - head < n
            {
                return Err(RingError::Closed);
            }
            let ready = || {
                self.poisoned.load(Ordering::Acquire)
                    || self.closed.load(Ordering::Acquire)
                    || self.tail.0.load(Ordering::Acquire) - head >= n
            };
            if !backoff.idle(&self.data_waiters, ready, deadline) {
                return Err(RingError::TimedOut);
            }
        }
    }

    /// Hands slots below `head` back to the producer.
    fn release(&self, head: u64) {
        self.head.0.store(head, Ordering::Release);
        self.space_waiters.notify();
    }

    /// Removes and returns the oldest record, blocking while empty.
    /// With `timeout = None` the wait is unbounded.
    ///
    /// # Errors
    /// [`RingError::Closed`] once the ring is closed *and* drained;
    /// [`RingError::TimedOut`] if `timeout` elapses;
    /// [`RingError::Poisoned`] if the ring was poisoned.
    ///
    /// # Panics
    /// If another consumer call is in progress on another thread.
    pub fn pop(&self, timeout: Option<Duration>) -> Result<T, RingError> {
        let _end = EndGuard::enter(&self.consumer.0.busy, "consumer", "pop");
        self.apply_pop_stall(1);
        let (head, _) = self.published(1, timeout)?;
        // SAFETY: we hold the consumer end and `head < tail`, so the slot
        // holds a published record that is ours until `release`.
        let item = unsafe { (*self.slot(head)).assume_init_read() };
        self.release(head + 1);
        Ok(item)
    }

    /// Removes and returns up to `max` records in one synchronization
    /// round: blocks for the first record with `pop` semantics, then
    /// moves out whatever run is already published, without waiting.
    /// The chaos stall schedule still advances once per record, keeping
    /// perturbation density identical to record-at-a-time consumption.
    ///
    /// # Errors
    /// As [`Ring::pop`] when no record could be taken at all.
    pub fn pop_batch(&self, max: usize, timeout: Option<Duration>) -> Result<Vec<T>, RingError> {
        let _end = EndGuard::enter(&self.consumer.0.busy, "consumer", "pop_batch");
        if max == 0 {
            return Ok(Vec::new());
        }
        self.apply_pop_stall(1);
        let (head, tail) = self.published(1, timeout)?;
        let run = (tail - head).min(max as u64);
        // SAFETY: as in `pop`, for every position below `tail`.
        let out = (head..head + run)
            .map(|position| unsafe { (*self.slot(position)).assume_init_read() })
            .collect();
        self.release(head + run);
        // One schedule slot per record, like record-at-a-time draining
        // (the first was consumed on entry).
        self.apply_pop_stall(run - 1);
        Ok(out)
    }

    /// Returns a clone of the record at offset `index` from the front,
    /// blocking until the ring holds at least `index + 1` records.
    ///
    /// Rewrite rules that match multi-call patterns (e.g. Figure 5's
    /// `read(...), write(...)` pair) peek ahead before consuming.
    ///
    /// # Errors
    /// Same conditions as [`Ring::pop`]; `Closed` here means the ring
    /// closed before enough records arrived.
    pub fn peek(&self, index: usize, timeout: Option<Duration>) -> Result<T, RingError>
    where
        T: Clone,
    {
        let _end = EndGuard::enter(&self.consumer.0.busy, "consumer", "peek");
        let (head, _) = self.published((index as u64).saturating_add(1), timeout)?;
        // SAFETY: as in `pop`; the record stays in place.
        Ok(unsafe { (*self.slot(head + index as u64)).assume_init_ref() }.clone())
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for position in head..tail {
            // SAFETY: exactly `[head, tail)` holds initialized records.
            unsafe { (*self.slot(position)).assume_init_drop() };
        }
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("pushed", &self.tail.0.load(Ordering::Relaxed))
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .field("poisoned", &self.poisoned.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let r = Ring::with_capacity(8);
        for i in 0..5 {
            r.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(r.pop(None).unwrap(), i);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Ring::<u8>::with_capacity(0);
    }

    #[test]
    fn capacity_is_logical_not_slot_count() {
        // Capacity 3 rounds up to 4 slots but must still block at 3.
        let r = Ring::with_capacity(3);
        r.push(1u32).unwrap();
        r.push(2).unwrap();
        r.push(3).unwrap();
        assert_eq!(r.try_push(4).unwrap_err(), RingError::TimedOut);
        assert_eq!(r.pop(None).unwrap(), 1);
        r.try_push(4).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn push_blocks_when_full_until_pop() {
        let r = Arc::new(Ring::with_capacity(1));
        r.push(1u32).unwrap();
        let r2 = r.clone();
        let t = thread::spawn(move || {
            r2.push(2).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(r.len(), 1, "producer is blocked");
        assert_eq!(r.pop(None).unwrap(), 1);
        t.join().unwrap();
        assert_eq!(r.pop(None).unwrap(), 2);
        assert!(r.stats().producer_stalls >= 1);
        assert!(r.stats().producer_stall_nanos > 0);
    }

    #[test]
    fn try_push_full_times_out() {
        let r = Ring::with_capacity(1);
        r.try_push(1).unwrap();
        assert_eq!(r.try_push(2).unwrap_err(), RingError::TimedOut);
    }

    #[test]
    fn pop_blocks_until_push() {
        let r = Arc::new(Ring::with_capacity(2));
        let r2 = r.clone();
        let t = thread::spawn(move || r2.pop(None).unwrap());
        thread::sleep(Duration::from_millis(20));
        r.push(42u32).unwrap();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn pop_timeout() {
        let r: Ring<u8> = Ring::with_capacity(2);
        assert_eq!(
            r.pop(Some(Duration::from_millis(10))).unwrap_err(),
            RingError::TimedOut
        );
    }

    #[test]
    fn close_drains_then_errors() {
        let r = Ring::with_capacity(4);
        r.push(1).unwrap();
        r.push(2).unwrap();
        r.close();
        assert_eq!(r.push(3).unwrap_err(), RingError::Closed);
        assert_eq!(r.pop(None).unwrap(), 1);
        assert_eq!(r.pop(None).unwrap(), 2);
        assert_eq!(r.pop(None).unwrap_err(), RingError::Closed);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let r: Arc<Ring<u8>> = Arc::new(Ring::with_capacity(2));
        let r2 = r.clone();
        let t = thread::spawn(move || r2.pop(None));
        thread::sleep(Duration::from_millis(20));
        r.close();
        assert_eq!(t.join().unwrap().unwrap_err(), RingError::Closed);
    }

    #[test]
    fn poison_discards_and_unblocks_producer() {
        let r = Arc::new(Ring::with_capacity(1));
        r.push(1u32).unwrap();
        let r2 = r.clone();
        let t = thread::spawn(move || r2.push(2));
        thread::sleep(Duration::from_millis(20));
        r.poison();
        assert_eq!(t.join().unwrap().unwrap_err(), RingError::Poisoned);
        assert_eq!(r.pop(None).unwrap_err(), RingError::Poisoned);
        assert!(r.is_poisoned());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let r = Ring::with_capacity(4);
        r.push("a").unwrap();
        r.push("b").unwrap();
        assert_eq!(r.peek(0, None).unwrap(), "a");
        assert_eq!(r.peek(1, None).unwrap(), "b");
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(None).unwrap(), "a");
    }

    #[test]
    fn peek_blocks_for_depth() {
        let r = Arc::new(Ring::with_capacity(4));
        r.push(1u32).unwrap();
        let r2 = r.clone();
        let t = thread::spawn(move || r2.peek(1, None).unwrap());
        thread::sleep(Duration::from_millis(20));
        r.push(2).unwrap();
        assert_eq!(t.join().unwrap(), 2);
    }

    #[test]
    fn peek_closed_before_depth_errors() {
        let r = Ring::with_capacity(4);
        r.push(1u32).unwrap();
        r.close();
        assert_eq!(r.peek(0, None).unwrap(), 1);
        assert_eq!(r.peek(1, None).unwrap_err(), RingError::Closed);
    }

    #[test]
    fn peek_past_any_capacity_waits_instead_of_reading() {
        let r = Ring::with_capacity(2);
        r.push(1u32).unwrap();
        let short = Some(Duration::from_millis(1));
        assert_eq!(r.peek(usize::MAX, short).unwrap_err(), RingError::TimedOut);
        r.close();
        assert_eq!(r.peek(usize::MAX, None).unwrap_err(), RingError::Closed);
        assert_eq!(r.pop(None).unwrap(), 1);
    }

    #[test]
    fn stats_track_pushes_pops_and_high_water() {
        let r = Ring::with_capacity(8);
        for i in 0..6 {
            r.push(i).unwrap();
        }
        for _ in 0..2 {
            r.pop(None).unwrap();
        }
        let s = r.stats();
        assert_eq!(s.pushed, 6);
        assert_eq!(s.popped, 2);
        assert_eq!(s.high_water, 6);
    }

    #[test]
    fn wait_empty_rendezvous() {
        let r = Arc::new(Ring::with_capacity(4));
        r.push(1u32).unwrap();
        assert_eq!(
            r.wait_empty(Some(Duration::from_millis(10))).unwrap_err(),
            RingError::TimedOut
        );
        let r2 = r.clone();
        let t = thread::spawn(move || r2.wait_empty(None));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(r.pop(None).unwrap(), 1);
        t.join().unwrap().unwrap();
        // Poison unblocks waiters with an error.
        r.push(2).unwrap();
        let r3 = r.clone();
        let t = thread::spawn(move || r3.wait_empty(None));
        thread::sleep(Duration::from_millis(20));
        r.poison();
        assert_eq!(t.join().unwrap().unwrap_err(), RingError::Poisoned);
    }

    #[test]
    fn concurrent_producer_consumer_preserves_order_and_count() {
        const N: u64 = 10_000;
        let r = Arc::new(Ring::with_capacity(64));
        let producer = {
            let r = r.clone();
            thread::spawn(move || {
                for i in 0..N {
                    r.push(i).unwrap();
                }
                r.close();
            })
        };
        let consumer = {
            let r = r.clone();
            thread::spawn(move || {
                let mut expected = 0u64;
                while let Ok(v) = r.pop(None) {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                expected
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), N);
        let s = r.stats();
        assert_eq!(s.pushed, N);
        assert_eq!(s.popped, N);
        assert!(s.high_water <= 64);
    }

    #[test]
    fn batch_roundtrip() {
        let r = Ring::with_capacity(8);
        r.push_batch(0..6u32).unwrap();
        assert_eq!(r.pop_batch(4, None).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.pop_batch(4, None).unwrap(), vec![4, 5]);
        r.close();
        assert_eq!(r.pop_batch(4, None).unwrap_err(), RingError::Closed);
    }

    #[test]
    fn push_batch_larger_than_capacity_chunks() {
        let r = Arc::new(Ring::with_capacity(4));
        let r2 = r.clone();
        let producer = thread::spawn(move || {
            r2.push_batch(0..100u32).unwrap();
            r2.close();
        });
        let mut got = Vec::new();
        while let Ok(mut batch) = r.pop_batch(16, None) {
            got.append(&mut batch);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
