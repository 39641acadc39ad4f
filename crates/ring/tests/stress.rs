//! Concurrency stress tests for the ring's edge semantics: close/poison
//! wakeup ordering, the one-producer/one-consumer contract, move-out
//! ownership of records, and the doorbell under random schedules.

use ring::{Ring, RingError};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::RecvTimeoutError;
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
                r.pop_batch(4)
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

/// Hammer `wait_empty` against concurrent push/drain traffic: it must
/// return only at true empty points and never deadlock.
#[test]
fn wait_empty_rendezvous_under_contention() {
    for _ in 0..20 {
        let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(8));
        let r_cons = r.clone();
        let consumer = thread::spawn(move || {
            let mut n = 0u64;
            while let Ok(batch) = r_cons.pop_batch(8) {
                n += batch.len() as u64;
            }
            n
        });
        for round in 0..100u64 {
            r.push(round).unwrap();
            r.wait_empty().unwrap();
            assert!(r.is_empty());
        }
        r.close();
        assert_eq!(consumer.join().unwrap(), 100);
    }
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

/// `pop_batch` moves records out of their slots, so the ring keeps no
/// copy of a record it delivered, whether it takes one or a run; records still buffered when
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
                let [record] = &r.pop_batch(1).unwrap()[..] else {
                    panic!("one record per pop_batch(1)");
                };
                assert_eq!(Arc::strong_count(record), 1, "ring kept a copy");
            }
        }
        for _ in 0..LAPS {
            for id in ids.by_ref().take(CAP) {
                r.push(make(id)).unwrap();
            }
            let batch = r.pop_batch(CAP).unwrap();
            assert_eq!(batch.len(), CAP);
            for record in &batch {
                assert_eq!(Arc::strong_count(record), 1, "ring kept a copy");
            }
        }
        // Leave two records unconsumed.
        for id in ids {
            r.push(make(id)).unwrap();
        }
        drop(r.pop_batch(1).unwrap());
        if poison {
            r.poison();
            assert_eq!(r.pop_batch(1).unwrap_err(), RingError::Poisoned);
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

/// The ring has one consumer: a second thread calling `pop_batch`
/// while another consumer call is parked panics instead of racing it,
/// and the parked call still completes.
#[test]
fn second_consumer_call_panics_while_one_is_blocked() {
    let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(4));
    let blocked = {
        let r = r.clone();
        thread::spawn(move || r.pop_batch(4))
    };
    // A park is counted while the blocked call holds the consumer end.
    while r.stats().parks == 0 {
        thread::yield_now();
    }
    let probe = r.clone();
    let message = panic_message(move || {
        let _ = probe.pop_batch(4);
    })
    .expect("second consumer must panic");
    assert!(
        message.contains("`pop_batch`") && message.contains("exactly one consumer"),
        "unexpected panic: {message}"
    );
    // One record is below the consumer's mark of two; the kick wakes it.
    r.push(7).unwrap();
    r.kick();
    assert_eq!(blocked.join().unwrap().unwrap(), [7]);
}

/// The ring has one producer: a second thread pushing while another
/// push is blocked on a full ring panics, and the blocked push still
/// completes once the consumer makes room.
#[test]
fn second_producer_call_panics_while_one_is_blocked() {
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
    let probe = r.clone();
    let message = panic_message(move || {
        let _ = probe.push(9);
    })
    .expect("second producer must panic");
    assert!(
        message.contains("`push`") && message.contains("exactly one producer"),
        "unexpected panic: {message}"
    );
    assert_eq!(r.pop_batch(1).unwrap(), [0]);
    blocked.join().unwrap().unwrap();
    assert_eq!(r.pop_batch(1).unwrap(), [1]);
    assert_eq!(r.stats().pushed, 2);
}

/// `close` and `poison` are not tied to either end: called from a third
/// thread, each wakes a producer blocked on a full ring and a consumer
/// blocked on an empty one.
#[test]
fn close_and_poison_from_a_third_thread_wake_both_ends() {
    for (poison, expected) in [(false, RingError::Closed), (true, RingError::Poisoned)] {
        for _ in 0..20 {
            let full: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1));
            full.push(0).unwrap();
            let producer = {
                let r = full.clone();
                thread::spawn(move || r.push(1))
            };
            let empty: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1));
            let consumer = {
                let r = empty.clone();
                thread::spawn(move || r.pop_batch(1))
            };
            while full.stats().producer_stalls == 0 || empty.stats().parks == 0 {
                thread::yield_now();
            }
            let rings = (full.clone(), empty.clone());
            thread::spawn(move || {
                for r in [rings.0, rings.1] {
                    if poison {
                        r.poison();
                    } else {
                        r.close();
                    }
                }
            })
            .join()
            .unwrap();
            assert_eq!(producer.join().unwrap().unwrap_err(), expected);
            assert_eq!(consumer.join().unwrap().unwrap_err(), expected);
        }
    }
}

/// xorshift64*: a tiny seeded generator, so a failing seed replays.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// The doorbell under random schedules: the producer mixes single
/// pushes, bursts of pushes and `kick` (with short pauses that let the
/// consumer park), and the consumer drains with `pop_batch` of random
/// sizes.
/// Every record must arrive once and in order, and no seed may hang:
/// a lost wakeup shows up as the watchdog firing.
#[test]
fn doorbell_random_schedules_deliver_in_order_without_hanging() {
    const RECORDS: u64 = 20_000;
    for seed in 0..24u64 {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut rng = Rng::new(seed);
            let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1 + rng.below(96) as usize));
            let consumer = {
                let r = r.clone();
                let mut rng = Rng::new(seed ^ 0xC0FFEE);
                thread::spawn(move || {
                    let mut next = 0u64;
                    loop {
                        let max = 1 + rng.below(64) as usize;
                        match r.pop_batch(max) {
                            Ok(batch) => {
                                assert!(!batch.is_empty() && batch.len() <= max);
                                for v in batch {
                                    assert_eq!(v, next, "seed {seed}: out of order");
                                    next += 1;
                                }
                            }
                            Err(RingError::Closed) => return next,
                            Err(e) => panic!("seed {seed}: {e}"),
                        }
                    }
                })
            };
            let mut sent = 0u64;
            while sent < RECORDS {
                match rng.below(10) {
                    0..=4 => {
                        r.push(sent).unwrap();
                        sent += 1;
                    }
                    5..=7 => {
                        let n = (1 + rng.below(40)).min(RECORDS - sent);
                        for v in sent..sent + n {
                            r.push(v).unwrap();
                        }
                        sent += n;
                    }
                    8 => r.kick(),
                    _ => thread::sleep(Duration::from_micros(rng.below(50))),
                }
            }
            r.close();
            let got = consumer.join().unwrap();
            let _ = done_tx.send(got);
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(got) => assert_eq!(got, RECORDS, "seed {seed}"),
            Err(RecvTimeoutError::Disconnected) => panic!("seed {seed}: a ring thread panicked"),
            Err(RecvTimeoutError::Timeout) => panic!("seed {seed}: a ring thread hung"),
        }
    }
}
