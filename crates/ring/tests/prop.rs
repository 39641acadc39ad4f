//! Property tests: the ring is a faithful FIFO under arbitrary
//! interleavings of pushes and batched drains, and never loses or
//! duplicates records.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use ring::Ring;

proptest! {
    /// Sequential push/drain of any payload sequence is exactly FIFO.
    #[test]
    fn sequential_fifo(items in proptest::collection::vec(any::<u16>(), 0..200),
                       cap in 1usize..32) {
        let r = Ring::with_capacity(cap);
        let mut iter = items.iter();
        let mut popped = Vec::new();
        // Interleave: fill to capacity, then drain one, etc.
        loop {
            while r.len() < cap {
                match iter.next() {
                    Some(v) => r.push(*v).unwrap(),
                    None => break,
                }
            }
            if r.is_empty() {
                break;
            }
            popped.extend(r.pop_batch(1).unwrap());
        }
        prop_assert_eq!(popped, items);
    }

    /// A concurrent producer/consumer pair delivers every record exactly
    /// once, in order, for any capacity and batch size.
    #[test]
    fn concurrent_exactly_once(n in 1u64..2000, cap in 1usize..16, max in 1usize..64) {
        let r = Arc::new(Ring::with_capacity(cap));
        let producer = {
            let r = r.clone();
            thread::spawn(move || {
                for i in 0..n {
                    r.push(i).unwrap();
                }
                r.close();
            })
        };
        let mut got = Vec::new();
        while let Ok(batch) = r.pop_batch(max) {
            got.extend(batch);
        }
        producer.join().unwrap();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    /// High-water mark never exceeds capacity and pushed == popped after
    /// a full drain.
    #[test]
    fn stats_invariants(n in 1u64..500, cap in 1usize..8) {
        let r = Arc::new(Ring::with_capacity(cap));
        let producer = {
            let r = r.clone();
            thread::spawn(move || {
                for i in 0..n {
                    r.push(i).unwrap();
                }
                r.close();
            })
        };
        while r.pop_batch(cap).is_ok() {}
        producer.join().unwrap();
        let s = r.stats();
        prop_assert!(s.high_water <= cap);
        prop_assert_eq!(s.pushed, n);
        prop_assert_eq!(s.popped, n);
    }
}
