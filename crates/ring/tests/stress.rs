//! Concurrency stress tests for the ring's edge semantics: close/poison
//! wakeup ordering, the one-producer/one-consumer contract, move-out
//! ownership of records, and the determinism of the `set_pop_stall`
//! chaos hook.

use ring::{Ring, RingError};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

/// A consumer blocked on an empty ring must wake on `close` with
/// `Closed`, and a producer blocked on a full ring must wake on
/// `poison` with `Poisoned` — neither may stay parked. Repeated to
/// shake out lost-wakeup windows in the eventcount protocol.
#[test]
fn close_and_poison_wake_every_blocked_thread() {
    for _ in 0..50 {
        // Blocked consumer, then close.
        let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(4));
        let barrier = Arc::new(Barrier::new(2));
        let consumer = {
            let r = r.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                r.pop(None)
            })
        };
        barrier.wait();
        r.close();
        assert_eq!(consumer.join().unwrap().unwrap_err(), RingError::Closed);

        // Blocked producer, then poison.
        let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1));
        r.push(0).unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let producer = {
            let r = r.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                r.push(1)
            })
        };
        barrier.wait();
        r.poison();
        assert_eq!(producer.join().unwrap().unwrap_err(), RingError::Poisoned);
    }
}

/// The chaos stall schedule is a pure function of the pop **call**
/// count: calls 0, every, 2·every, … stall. The counter must advance
/// once per `pop`/`pop_batch` record-take attempt regardless of
/// outcome, so a chaos seed replays the identical schedule through the
/// lock-free implementation.
#[test]
fn pop_stall_schedule_is_call_indexed_and_deterministic() {
    // Deterministic delivery check: with a stall on every pop, FIFO
    // order and exactly-once delivery are unchanged.
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(8));
    r.set_pop_stall(1, Duration::from_micros(50));
    for i in 0..32 {
        r.push(i).unwrap();
        assert_eq!(r.pop(None).unwrap(), i);
    }

    // Schedule check: stall every 3rd call, observable as latency on
    // call indices 0, 3, 6, … and (crucially) *not* on the others.
    let r: Ring<u64> = Ring::with_capacity(8);
    let stall = Duration::from_millis(30);
    r.set_pop_stall(3, stall);
    let mut stalled_calls = Vec::new();
    for call in 0..9u64 {
        r.push(call).unwrap();
        let begin = std::time::Instant::now();
        r.pop(None).unwrap();
        if begin.elapsed() >= stall {
            stalled_calls.push(call);
        }
    }
    assert_eq!(stalled_calls, vec![0, 3, 6]);

    // Call-indexing includes unsuccessful pops, exactly like the old
    // mutex ring: a timed-out pop consumes a schedule slot.
    let r: Ring<u64> = Ring::with_capacity(8);
    r.set_pop_stall(2, stall);
    let begin = std::time::Instant::now();
    let _ = r.pop(Some(Duration::from_millis(1))); // call 0: stalls, times out
    assert!(begin.elapsed() >= stall);
    r.push(7).unwrap();
    let begin = std::time::Instant::now();
    assert_eq!(r.pop(None).unwrap(), 7); // call 1: no stall
    assert!(begin.elapsed() < stall);
}

/// Batched pops advance the same stall schedule once per record taken,
/// keeping perturbation density identical to record-at-a-time draining.
#[test]
fn pop_batch_advances_stall_schedule_per_record() {
    let r: Ring<u64> = Ring::with_capacity(16);
    let stall = Duration::from_millis(25);
    r.set_pop_stall(4, stall);
    r.push_batch(0..8u64).unwrap();
    // Batch of 4 consumes schedule slots 0..4 (slot 0 stalls).
    let begin = std::time::Instant::now();
    assert_eq!(r.pop_batch(4, None).unwrap(), vec![0, 1, 2, 3]);
    assert!(begin.elapsed() >= stall);
    // Next batch consumes slots 4..8 (slot 4 stalls again).
    let begin = std::time::Instant::now();
    assert_eq!(r.pop_batch(4, None).unwrap(), vec![4, 5, 6, 7]);
    assert!(begin.elapsed() >= stall);
}

/// Hammer `wait_empty` against concurrent push/pop traffic: it must
/// return only at true empty points and never deadlock.
#[test]
fn wait_empty_rendezvous_under_contention() {
    for _ in 0..20 {
        let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(8));
        let r_cons = r.clone();
        let consumer = thread::spawn(move || {
            let mut n = 0u64;
            while r_cons.pop(None).is_ok() {
                n += 1;
            }
            n
        });
        for round in 0..100u64 {
            r.push(round).unwrap();
            r.wait_empty(None).unwrap();
            assert!(r.is_empty());
        }
        r.close();
        assert_eq!(consumer.join().unwrap(), 100);
    }
}

/// With an injected time source, `producer_stall_nanos` is a pure
/// function of how far that clock advanced while the producer was
/// blocked — real scheduling time must not leak in. Two runs of the
/// same schedule (with wildly different wall-clock sleeps) measure the
/// identical stall duration, which is what makes `RingStats`
/// replay-stable under the chaos harness.
#[test]
fn injected_stall_clock_makes_stall_nanos_deterministic() {
    fn run(wall_sleep: Duration) -> u64 {
        let clock = Arc::new(obs::ManualClock::new());
        let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1));
        r.set_stall_time_source(clock.clone() as Arc<dyn obs::TimeSource>);
        r.push(0).unwrap();
        let stalled = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = {
            let r = r.clone();
            let stalled = stalled.clone();
            thread::spawn(move || {
                stalled.store(true, Ordering::SeqCst);
                r.push(1).unwrap();
            })
        };
        // Wait until the producer has actually blocked on the full
        // ring, then hold it there for a run-dependent amount of real
        // time while the virtual clock advances by exactly 40_000 ns.
        while !stalled.load(Ordering::SeqCst) || r.stats().producer_stalls == 0 {
            thread::yield_now();
        }
        thread::sleep(wall_sleep);
        clock.advance(40_000);
        r.pop(None).unwrap();
        producer.join().unwrap();
        assert_eq!(r.pop(None).unwrap(), 1);
        r.stats().producer_stall_nanos
    }

    let fast = run(Duration::from_millis(1));
    let slow = run(Duration::from_millis(60));
    // Spurious wakeups may split the wait into several zero-length
    // stalls, but the *measured nanoseconds* come only from the manual
    // clock: exactly the 40_000 ns it was advanced by, in both runs.
    assert_eq!(fast, 40_000);
    assert_eq!(slow, fast);
}

/// A payload that counts its drops, per record id.
#[derive(Debug)]
struct Tracked {
    id: usize,
    drops: Arc<Vec<AtomicU32>>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops[self.id].fetch_add(1, Ordering::SeqCst);
    }
}

/// `pop` and `pop_batch` move records out of their slots, so the ring
/// keeps no copy of a record it delivered; records still buffered when
/// the ring is poisoned or dropped are dropped with it. Either way,
/// every record pushed is dropped exactly once, across several laps of
/// a capacity-4 ring.
#[test]
fn records_move_out_and_drop_exactly_once() {
    const CAP: usize = 4;
    const LAPS: usize = 3;
    for poison in [false, true] {
        let total = 2 * LAPS * CAP + 3;
        let drops: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
        let make = |id| {
            Arc::new(Tracked {
                id,
                drops: drops.clone(),
            })
        };
        let mut ids = 0..total;
        let r: Ring<Arc<Tracked>> = Ring::with_capacity(CAP);
        for _ in 0..LAPS {
            for id in ids.by_ref().take(CAP) {
                r.push(make(id)).unwrap();
            }
            for _ in 0..CAP {
                let record = r.pop(None).unwrap();
                assert_eq!(Arc::strong_count(&record), 1, "ring kept a copy");
            }
        }
        for _ in 0..LAPS {
            r.push_batch(ids.by_ref().take(CAP).map(make)).unwrap();
            let batch = r.pop_batch(CAP, None).unwrap();
            assert_eq!(batch.len(), CAP);
            for record in &batch {
                assert_eq!(Arc::strong_count(record), 1, "ring kept a copy");
            }
        }
        // Leave two records unconsumed.
        for id in ids {
            r.push(make(id)).unwrap();
        }
        drop(r.pop(None).unwrap());
        if poison {
            r.poison();
            assert_eq!(r.pop(None).unwrap_err(), RingError::Poisoned);
        }
        drop(r);
        for (id, count) in drops.iter().enumerate() {
            let count = count.load(Ordering::SeqCst);
            assert_eq!(
                count, 1,
                "record {id} dropped {count} times (poison: {poison})"
            );
        }
    }
}

/// Runs `call` on its own thread and returns its panic message, or
/// `None` if it returned normally.
fn panic_message(call: impl FnOnce() + Send + 'static) -> Option<String> {
    let payload = thread::spawn(call).join().err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    )
}

/// The ring has one consumer: a second thread calling `pop`,
/// `pop_batch` or `peek` while another consumer call is blocked
/// panics instead of racing it, and the blocked call still completes.
#[test]
fn second_consumer_call_panics_while_one_is_blocked() {
    type Call = fn(&Ring<u64>);
    let calls: [(&str, Call); 3] = [
        ("pop", |r| {
            let _ = r.pop(Some(Duration::ZERO));
        }),
        ("pop_batch", |r| {
            let _ = r.pop_batch(4, Some(Duration::ZERO));
        }),
        ("peek", |r| {
            let _ = r.peek(0, Some(Duration::ZERO));
        }),
    ];
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(4));
    let blocked = {
        let r = r.clone();
        // A probe below may hold the consumer end just as this thread
        // enters `pop`; then this thread is the one that panics, and
        // retries.
        thread::spawn(move || loop {
            if let Ok(result) = panic::catch_unwind(AssertUnwindSafe(|| r.pop(None))) {
                return result;
            }
        })
    };
    for (name, call) in calls {
        // Until the blocked consumer is inside `pop`, a probe just times
        // out; retry until one collides with it.
        let message = loop {
            thread::sleep(Duration::from_millis(10));
            let r = r.clone();
            if let Some(message) = panic_message(move || call(&r)) {
                break message;
            }
        };
        assert!(
            message.contains(&format!("`{name}`")) && message.contains("exactly one consumer"),
            "unexpected panic: {message}"
        );
    }
    r.push(7).unwrap();
    assert_eq!(blocked.join().unwrap().unwrap(), 7);
}

/// The ring has one producer: a second thread pushing while another
/// push is blocked on a full ring panics, and the blocked push still
/// completes once the consumer makes room.
#[test]
fn second_producer_call_panics_while_one_is_blocked() {
    type Call = fn(&Ring<u64>);
    let calls: [(&str, Call); 4] = [
        ("push", |r| {
            let _ = r.push(9);
        }),
        ("push", |r| {
            let _ = r.push_tagged(9);
        }),
        ("try_push", |r| {
            let _ = r.try_push(9);
        }),
        ("push_batch", |r| {
            let _ = r.push_batch([9]);
        }),
    ];
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1));
    r.push(0).unwrap();
    let blocked = {
        let r = r.clone();
        thread::spawn(move || r.push(1))
    };
    // A stall is counted while the blocked push holds the producer end.
    while r.stats().producer_stalls == 0 {
        thread::yield_now();
    }
    for (name, call) in calls {
        let r = r.clone();
        let message = panic_message(move || call(&r)).expect("second producer must panic");
        assert!(
            message.contains(&format!("`{name}`")) && message.contains("exactly one producer"),
            "unexpected panic: {message}"
        );
    }
    assert_eq!(r.pop(None).unwrap(), 0);
    blocked.join().unwrap().unwrap();
    assert_eq!(r.pop(None).unwrap(), 1);
    assert_eq!(r.stats().pushed, 2);
}

/// `close` and `poison` are not tied to either end: called from a third
/// thread, each wakes a producer blocked on a full ring and a consumer
/// blocked on a `peek` past the end at the same time.
#[test]
fn close_and_poison_from_a_third_thread_wake_both_ends() {
    for (poison, expected) in [(false, RingError::Closed), (true, RingError::Poisoned)] {
        for _ in 0..20 {
            let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1));
            r.push(0).unwrap();
            let producer = {
                let r = r.clone();
                thread::spawn(move || r.push(1))
            };
            // Capacity 1 can never hold two records: this peek blocks
            // until the ring dies.
            let consumer = {
                let r = r.clone();
                thread::spawn(move || r.peek(1, None))
            };
            while r.stats().producer_stalls == 0 {
                thread::yield_now();
            }
            let r_third = r.clone();
            thread::spawn(move || {
                if poison {
                    r_third.poison();
                } else {
                    r_third.close();
                }
            })
            .join()
            .unwrap();
            assert_eq!(producer.join().unwrap().unwrap_err(), expected);
            assert_eq!(consumer.join().unwrap().unwrap_err(), expected);
        }
    }
}
