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
//! The producer's waits (`push` on a full ring, `wait_empty`) escalate
//! spin → yield → park via [`crate::wait`]. The consumer, `pop_batch`,
//! parks at once on an empty ring behind a doorbell: it publishes a
//! wake mark of at most half the ring, and the producer wakes it only
//! when occupancy reaches the mark (once per mark), on [`Ring::kick`],
//! or when the ring is closed, poisoned, full or waited empty. See
//! `docs/ring.md`.

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
/// `push` (or `pop_batch`) at once and racing on the same counter.
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
    /// Highest `tail` a kick has rung the doorbell for: a parked
    /// consumer takes whatever lies below it.
    kicked: AtomicU64,
}

/// State only the consumer writes, plus the chaos stall config.
#[derive(Default)]
struct ConsumerSide {
    busy: AtomicBool,
    /// The `tail` at which a publish must wake the consumer. Written
    /// before the consumer registers to park; the producer reads it
    /// only when someone is parked, and the publish that rings it sets
    /// it to `u64::MAX`, so the doorbell rings once per mark.
    wake_at: AtomicU64,
    /// Monotone stall schedule index: one per record taken, or one per
    /// `pop_batch` call that takes none.
    pops: AtomicU64,
    /// Stall at every Nth schedule index; 0 disables the perturbation.
    pop_stall_every: AtomicU64,
    /// Length of each injected consumer stall, in nanoseconds.
    pop_stall_nanos: AtomicU64,
}

/// A bounded, blocking, FIFO ring buffer with one producer and one
/// consumer.
///
/// See the [crate docs](crate) for the role it plays in MVE. `Ring` is
/// `Sync`; share it as `Arc<Ring<T>>`. `push` is the producer end and
/// `pop_batch` the consumer end. Each end may move between threads, but
/// calling one end from two threads at once panics.
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
// on the consumer's; the busy flags and the head/tail handoff give every
// slot one accessor at a time, so `T: Send` is enough. Every other field
// is an atomic, a `WaitSet` or a `Mutex`.
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

    /// Perturbation hook for the chaos harness: the consumer sleeps for
    /// `stall` at every `every`-th record it takes (a `pop_batch` call
    /// that takes none counts as one), modelling a descheduled or
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
        let (parks, wakes) = self.data_waiters.counts();
        RingStats {
            pushed: self.tail.0.load(Ordering::Acquire),
            popped: self.head.0.load(Ordering::Acquire),
            high_water: producer.high_water.load(Ordering::Relaxed) as usize,
            producer_stalls: producer.stalls.load(Ordering::Relaxed),
            producer_stall_nanos: producer.stall_nanos.load(Ordering::Relaxed),
            parks,
            wakes,
        }
    }

    fn slot(&self, position: u64) -> *mut MaybeUninit<T> {
        self.slots[(position & self.mask) as usize].get()
    }

    /// Whether a record fits at `tail`, reloading `head` only when the
    /// cached copy says no.
    fn has_room(&self, tail: u64) -> bool {
        let cap = self.capacity as u64;
        let cached = &self.producer.0.cached_head;
        if tail - cached.load(Ordering::Relaxed) < cap {
            return true;
        }
        let head = self.head.0.load(Ordering::Acquire);
        cached.store(head, Ordering::Relaxed);
        tail - head < cap
    }

    /// Waits until a record fits and returns the position to write it
    /// at.
    fn reserve(&self) -> Result<u64, RingError> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut backoff = Backoff::new();
        let mut rang = false;
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RingError::Poisoned);
            }
            // SeqCst pairs with the consumer's close check (see
            // `published`): a push that saw the ring open is delivered.
            if self.closed.load(Ordering::SeqCst) {
                return Err(RingError::Closed);
            }
            if self.has_room(tail) {
                return Ok(tail);
            }
            let producer = &self.producer.0;
            // Once per blocked push: count the stall, and kick. A
            // consumer parked on a mark it cannot reach would never free
            // the room we wait for. A mark is at most half the ring, so
            // a push reaches it before the ring fills; this kick does
            // not rely on that.
            if !rang {
                producer.stalls.fetch_add(1, Ordering::Relaxed);
                self.ring_doorbell(tail);
                rang = true;
            }
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
                    || self.has_room(tail)
            };
            backoff.idle(&self.space_waiters, ready);
            producer
                .stall_nanos
                .fetch_add(now().saturating_sub(begin), Ordering::Relaxed);
        }
    }

    /// Publishes everything written below `end`, updates the high-water
    /// mark, and wakes the consumer if `end` reaches its wake mark.
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
        self.data_waiters.notify_if(|| self.claim_wake_mark(end));
    }

    /// Whether a publish up to `end` rings the doorbell: true once `end`
    /// reaches the wake mark, which it then clears. A consumer woken at
    /// its mark takes what is published and stores a new mark before it
    /// parks again, so until then further publishes skip the lock and
    /// the futex wake of a consumer that is already waking. The compare
    /// and swap never clears a newer mark the consumer stored meanwhile.
    fn claim_wake_mark(&self, end: u64) -> bool {
        let wake_at = &self.consumer.0.wake_at;
        let mut mark = wake_at.load(Ordering::Relaxed);
        while mark <= end {
            match wake_at.compare_exchange_weak(
                mark,
                u64::MAX,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(current) => mark = current,
            }
        }
        false
    }

    /// Wakes the consumer for every record published below `tail`,
    /// whatever its wake mark.
    fn ring_doorbell(&self, tail: u64) {
        self.producer.0.kicked.fetch_max(tail, Ordering::SeqCst);
        // Nothing past `head` means nothing to wake for.
        self.data_waiters
            .notify_if(|| tail > self.head.0.load(Ordering::Acquire));
    }

    /// Producer side: wakes a consumer parked in [`Ring::pop_batch`] for
    /// whatever is published, before its wake mark is reached. A leader
    /// calls this when it is about to wait on something other than the
    /// follower, so the follower never sleeps on records it could
    /// replay. Costs one atomic max, one fence and one load when nobody
    /// is parked.
    pub fn kick(&self) {
        self.ring_doorbell(self.tail.0.load(Ordering::Acquire));
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
        let _end = EndGuard::enter(&self.producer.0.busy, "producer", "push");
        let position = self.reserve()?;
        // SAFETY: we hold the producer end and `reserve` found room, so
        // the slot lies outside `[head, tail)`: empty and ours.
        unsafe { (*self.slot(position)).write(item) };
        self.publish(position + 1);
        Ok(())
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

    /// Blocks until the ring drains empty or dies. Lockstep execution
    /// (the MUC/Mx baselines) rendezvouses on this after every push. It
    /// kicks first, so a consumer parked in `pop_batch` below its wake
    /// mark drains what is buffered.
    ///
    /// # Errors
    /// [`RingError::Poisoned`] if poisoned. A closed ring that drains
    /// still returns `Ok`.
    pub fn wait_empty(&self) -> Result<(), RingError> {
        self.kick();
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
            backoff.idle(&self.space_waiters, ready);
        }
    }

    /// Advances the chaos stall schedule by `count` indices in one
    /// counter update and sleeps once per scheduled index in the
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
            // armed, and the chaos harness arms it before the first take
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

    /// Blocks until a record is published past `head` and returns
    /// `(head, tail)`. Called with the consumer end held, so `head`
    /// cannot move underneath. On an empty ring it parks at once and
    /// sleeps until `mark` records are published, a kick covers a
    /// record, or the ring dies.
    fn published(&self, mark: u64) -> Result<(u64, u64), RingError> {
        let head = self.head.0.load(Ordering::Relaxed);
        let consumer = &self.consumer.0;
        let mut marked = false;
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(RingError::Poisoned);
            }
            // One load per call unless it parks: a batch takes all that
            // is published, up to its `max`.
            let tail = self.tail.0.load(Ordering::Acquire);
            if tail > head {
                return Ok((head, tail));
            }
            // Closed and empty. A push that passed its closed check
            // before `close` holds the producer end until it publishes,
            // so trust `tail` only once that end is idle (SeqCst pairs
            // with `close` and with the producer's closed check).
            if self.closed.load(Ordering::SeqCst)
                && !self.producer.0.busy.load(Ordering::SeqCst)
                && self.tail.0.load(Ordering::SeqCst) == head
            {
                return Err(RingError::Closed);
            }
            let wake_at = head + mark;
            if !marked {
                // Published before registering as a waiter (see
                // `WaitSet::notify_if`); `head` is fixed for this call.
                consumer.wake_at.store(wake_at, Ordering::SeqCst);
                marked = true;
            }
            // SeqCst loads: the re-check half of the lost-wakeup argument.
            let ready = || {
                self.poisoned.load(Ordering::SeqCst)
                    || self.closed.load(Ordering::SeqCst)
                    || self.tail.0.load(Ordering::SeqCst) >= wake_at
                    || self.producer.0.kicked.load(Ordering::SeqCst) > head
            };
            self.data_waiters.park(ready);
        }
    }

    /// Hands slots below `head` back to the producer.
    fn release(&self, head: u64) {
        self.head.0.store(head, Ordering::Release);
        self.space_waiters.notify();
    }

    /// Removes and returns up to `max` records in one synchronization
    /// round, moving out whatever run is already published.
    ///
    /// On an empty ring it parks at once, with no spin and no yield,
    /// behind a doorbell: the wake mark is `min(max, capacity / 2)`
    /// records (at least one), and a publish wakes it only once that
    /// many are buffered. Half the ring stays free as slack, so the
    /// producer does not fill the ring while the consumer wakes.
    /// [`Ring::kick`], `close`, `poison`, `wait_empty` and a producer
    /// blocked on a full ring wake it early. So a consumer that keeps up
    /// costs one wakeup per mark rather than one per record.
    /// The chaos stall schedule still advances once per record, keeping
    /// perturbation density identical to record-at-a-time consumption.
    ///
    /// # Errors
    /// When no record could be taken at all: [`RingError::Closed`] once
    /// the ring is closed *and* drained, [`RingError::Poisoned`] if it
    /// was poisoned.
    ///
    /// # Panics
    /// If another consumer call is in progress on another thread.
    pub fn pop_batch(&self, max: usize) -> Result<Vec<T>, RingError> {
        let _end = EndGuard::enter(&self.consumer.0.busy, "consumer", "pop_batch");
        if max == 0 {
            return Ok(Vec::new());
        }
        self.apply_pop_stall(1);
        let mark = max.min(self.capacity / 2).max(1) as u64;
        let (head, tail) = self.published(mark)?;
        let run = (tail - head).min(max as u64);
        // SAFETY: we hold the consumer end and every position in
        // `[head, head + run)` lies below `tail`, so each slot holds a
        // published record that is ours until `release`.
        let out = (head..head + run)
            .map(|position| unsafe { (*self.slot(position)).assume_init_read() })
            .collect();
        self.release(head + run);
        // One schedule slot per record, like record-at-a-time draining
        // (the first was consumed on entry).
        self.apply_pop_stall(run - 1);
        Ok(out)
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
            assert_eq!(r.pop_batch(1).unwrap(), [i]);
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
        let r = Arc::new(Ring::with_capacity(3));
        for i in 1u32..=3 {
            r.push(i).unwrap();
        }
        let r2 = r.clone();
        let t = thread::spawn(move || r2.push(4));
        while r.stats().producer_stalls == 0 {
            thread::yield_now();
        }
        assert_eq!(r.len(), 3, "the fourth push is blocked");
        assert_eq!(r.pop_batch(1).unwrap(), [1]);
        t.join().unwrap().unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn a_push_blocked_through_spin_yield_and_park_counts_one_stall() {
        let r = Arc::new(Ring::with_capacity(1));
        r.push(1u32).unwrap();
        let producer = {
            let r = r.clone();
            thread::spawn(move || r.push(2))
        };
        // The producer parks only after its spins and yields run out.
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.space_waiters.counts().0 == 0 {
            assert!(Instant::now() < deadline, "producer never parked");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(r.pop_batch(1).unwrap(), [1]);
        producer.join().unwrap().unwrap();
        assert_eq!(r.stats().producer_stalls, 1);
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
        assert_eq!(r.pop_batch(1).unwrap(), [1]);
        t.join().unwrap();
        assert_eq!(r.pop_batch(1).unwrap(), [2]);
        assert!(r.stats().producer_stalls >= 1);
        assert!(r.stats().producer_stall_nanos > 0);
    }

    #[test]
    fn pop_blocks_until_push() {
        let r = Arc::new(Ring::with_capacity(2));
        let r2 = r.clone();
        let t = thread::spawn(move || r2.pop_batch(1).unwrap());
        thread::sleep(Duration::from_millis(20));
        r.push(42u32).unwrap();
        assert_eq!(t.join().unwrap(), [42]);
    }

    #[test]
    fn close_drains_then_errors() {
        let r = Ring::with_capacity(4);
        r.push(1).unwrap();
        r.push(2).unwrap();
        r.close();
        assert_eq!(r.push(3).unwrap_err(), RingError::Closed);
        assert_eq!(r.pop_batch(1).unwrap(), [1]);
        assert_eq!(r.pop_batch(1).unwrap(), [2]);
        assert_eq!(r.pop_batch(1).unwrap_err(), RingError::Closed);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let r: Arc<Ring<u8>> = Arc::new(Ring::with_capacity(2));
        let r2 = r.clone();
        let t = thread::spawn(move || r2.pop_batch(1));
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
        assert_eq!(r.pop_batch(1).unwrap_err(), RingError::Poisoned);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn stats_track_pushes_pops_and_high_water() {
        let r = Ring::with_capacity(8);
        for i in 0..6 {
            r.push(i).unwrap();
        }
        assert_eq!(r.pop_batch(2).unwrap(), [0, 1]);
        let s = r.stats();
        assert_eq!(s.pushed, 6);
        assert_eq!(s.popped, 2);
        assert_eq!(s.high_water, 6);
    }

    #[test]
    fn wait_empty_rendezvous() {
        let r = Arc::new(Ring::with_capacity(4));
        r.push(1u32).unwrap();
        let r2 = r.clone();
        let t = thread::spawn(move || r2.wait_empty());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(r.pop_batch(1).unwrap(), [1]);
        t.join().unwrap().unwrap();
        // Poison unblocks waiters with an error.
        r.push(2).unwrap();
        let r3 = r.clone();
        let t = thread::spawn(move || r3.wait_empty());
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
                while let Ok(batch) = r.pop_batch(16) {
                    for v in batch {
                        assert_eq!(v, expected);
                        expected += 1;
                    }
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
    fn a_batch_takes_everything_published_up_to_max() {
        let r = Ring::with_capacity(8);
        r.push(1u32).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.pop_batch(1).unwrap(), [1]);
        r.push(3).unwrap();
        assert_eq!(r.pop_batch(8).unwrap(), [2, 3]);
    }

    #[test]
    fn batch_roundtrip() {
        let r = Ring::with_capacity(8);
        for i in 0..6u32 {
            r.push(i).unwrap();
        }
        assert_eq!(r.pop_batch(4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.pop_batch(4).unwrap(), vec![4, 5]);
        r.close();
        assert_eq!(r.pop_batch(4).unwrap_err(), RingError::Closed);
    }

    /// Spawns a consumer blocked in `pop_batch(max)` and returns once it
    /// has parked on the doorbell.
    fn parked_batch_consumer(
        r: &Arc<Ring<u32>>,
        max: usize,
    ) -> thread::JoinHandle<Result<Vec<u32>, RingError>> {
        let parks = r.stats().parks;
        let consumer = {
            let r = r.clone();
            thread::spawn(move || r.pop_batch(max))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.stats().parks == parks {
            assert!(Instant::now() < deadline, "consumer never parked");
            thread::sleep(Duration::from_millis(1));
        }
        consumer
    }

    /// Asserts the parked consumer is still asleep after a grace period.
    fn assert_still_parked<R>(r: &Ring<u32>, consumer: &thread::JoinHandle<R>) {
        thread::sleep(Duration::from_millis(30));
        assert!(!consumer.is_finished(), "consumer woke before its mark");
        assert_eq!(r.stats().popped, 0);
        assert_eq!(r.stats().wakes, 0);
    }

    #[test]
    fn batch_consumer_sleeps_until_its_mark() {
        let r = Arc::new(Ring::with_capacity(64));
        let consumer = parked_batch_consumer(&r, 32);
        for i in 0..31 {
            r.push(i).unwrap();
        }
        assert_still_parked(&r, &consumer);
        r.push(31).unwrap();
        assert_eq!(
            consumer.join().unwrap().unwrap(),
            (0..32).collect::<Vec<_>>()
        );
        assert_eq!(r.stats().wakes, 1);
    }

    #[test]
    fn batch_mark_is_capped_at_half_the_ring() {
        // The publish that brings occupancy to `capacity / 2` wakes an
        // unbounded batch consumer, so the producer never fills the ring
        // while the consumer wakes: it records no stall.
        for capacity in [1, 4, 16, 64] {
            let r = Arc::new(Ring::with_capacity(capacity));
            let mark = (capacity as u32 / 2).max(1);
            let consumer = parked_batch_consumer(&r, usize::MAX);
            for i in 0..mark - 1 {
                r.push(i).unwrap();
            }
            assert_still_parked(&r, &consumer);
            r.push(mark - 1).unwrap();
            assert_eq!(
                consumer.join().unwrap().unwrap(),
                (0..mark).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
            let stats = r.stats();
            assert_eq!((stats.wakes, stats.producer_stalls), (1, 0));
        }
    }

    #[test]
    fn the_doorbell_rings_once_per_mark() {
        // Publishes past the mark find the consumer still registered
        // until it runs; only the first of them wakes it.
        let r = Arc::new(Ring::with_capacity(64));
        let consumer = parked_batch_consumer(&r, 8);
        for i in 0..40 {
            r.push(i).unwrap();
        }
        assert_eq!(
            consumer.join().unwrap().unwrap(),
            (0..8).collect::<Vec<_>>()
        );
        assert_eq!(r.stats().wakes, 1);
    }

    #[test]
    fn kick_wakes_a_batch_consumer_for_what_is_published() {
        let r = Arc::new(Ring::with_capacity(64));
        // A kick with nothing published leaves the consumer asleep.
        let consumer = parked_batch_consumer(&r, 32);
        r.kick();
        thread::sleep(Duration::from_millis(30));
        assert!(!consumer.is_finished());
        for i in 0..3 {
            r.push(i).unwrap();
        }
        assert_still_parked(&r, &consumer);
        r.kick();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn close_and_poison_wake_a_batch_consumer() {
        let r = Arc::new(Ring::with_capacity(64));
        let consumer = parked_batch_consumer(&r, 32);
        r.push(0).unwrap();
        r.push(1).unwrap();
        assert_still_parked(&r, &consumer);
        r.close();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![0, 1]);
        assert_eq!(r.pop_batch(32).unwrap_err(), RingError::Closed);

        let r = Arc::new(Ring::with_capacity(64));
        let consumer = parked_batch_consumer(&r, 32);
        r.push(0).unwrap();
        r.push(1).unwrap();
        assert_still_parked(&r, &consumer);
        r.poison();
        assert_eq!(consumer.join().unwrap().unwrap_err(), RingError::Poisoned);
    }

    #[test]
    fn wait_empty_wakes_a_batch_consumer() {
        let r = Arc::new(Ring::with_capacity(64));
        let consumer = parked_batch_consumer(&r, 32);
        r.push(7).unwrap();
        r.wait_empty().unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![7]);
    }
}
