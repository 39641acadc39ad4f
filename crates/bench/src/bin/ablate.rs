//! Ablations over the design knobs DESIGN.md calls out:
//!
//! 1. **Ring capacity** — how producer stalls scale as the buffer
//!    shrinks (the mechanism behind Figure 7).
//! 2. **Parallel state transformation** — §7's alternative approach to
//!    long updates; composes with MVEDSUA by shortening catch-up.
//! 3. **Rule-set size** — per-event replay cost as rewrite rules grow
//!    (why Table 1's ~1 rule/update stays cheap).
//! 4. **Snapshot (fork) cost** — persistent-map O(1) snapshots versus a
//!    deep-clone store, the substitution that restores `fork(2)`'s cost
//!    model (DESIGN.md §2).
//!
//! ```text
//! cargo run -p mvedsua-bench --bin ablate --release
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dsl::{Builtins, Event, RuleSet, Value};
use mve::{EventRecord, SyscallRecord};
use servers::redis::{transformer_200_to_201_parallel, RedisState};
use vos::{SysRet, Syscall};

fn ring_capacity_sweep() {
    println!("## ring capacity vs producer stalls (100k records, slow consumer)");
    println!(
        "{:<12} {:>10} {:>14} {:>12}",
        "capacity", "stalls", "stall ms", "elapsed ms"
    );
    for cap_pow in [4u32, 6, 8, 10, 12, 14] {
        let cap = 1usize << cap_pow;
        let ring: Arc<ring::Ring<EventRecord>> = Arc::new(ring::Ring::with_capacity(cap));
        let consumer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                // Drains like the follower, doing a little work per
                // record (matching + replaying).
                while let Ok(batch) = ring.pop_batch(mve::FOLLOWER_BATCH) {
                    for _record in batch {
                        n = n.wrapping_mul(31).wrapping_add(1);
                        std::hint::black_box(n);
                    }
                }
                n
            })
        };
        let record = EventRecord::Syscall {
            seq: 0,
            record: SyscallRecord {
                call: Syscall::Write {
                    fd: vos::Fd::from_raw(9),
                    data: b"+OK\r\n".to_vec().into(),
                },
                ret: SysRet::Size(5),
            },
        };
        let begin = Instant::now();
        for _ in 0..100_000 {
            ring.push(record.clone()).unwrap();
        }
        let elapsed = begin.elapsed();
        ring.close();
        let _ = consumer.join();
        let stats = ring.stats();
        println!(
            "2^{cap_pow:<10} {:>10} {:>14.2} {:>12.2}",
            stats.producer_stalls,
            stats.producer_stall_nanos as f64 / 1e6,
            elapsed.as_secs_f64() * 1e3,
        );
    }
}

fn parallel_xform_sweep(entries: usize) {
    println!("\n## parallel state transformation ({entries} entries)");
    println!("{:<10} {:>12} {:>10}", "threads", "xform ms", "speedup");
    let mut state = RedisState::new(1);
    for i in 0..entries {
        state
            .store
            .set(&format!("key:{i}"), "value-value-value-value");
    }
    let mut base_ms = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let t = transformer_200_to_201_parallel(threads);
        let begin = Instant::now();
        let out = t.transform(dsu::AppState::new(state.clone())).unwrap();
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        drop(out);
        if threads == 1 {
            base_ms = ms;
        }
        println!("{threads:<10} {ms:>12.1} {:>9.2}x", base_ms / ms);
    }
}

fn rule_count_sweep() {
    println!("\n## replay cost vs installed rule count (1M event applications)");
    println!("{:<10} {:>14} {:>12}", "rules", "events/sec", "ns/event");
    let miss_event = Event::new(
        "read",
        vec![
            Value::Int(9),
            Value::Str("GET key:123\r\n".into()),
            Value::Int(13),
        ],
    );
    let builtins = Builtins::standard();
    for n_rules in [0usize, 1, 4, 16, 64] {
        let src: String = (0..n_rules)
            .map(|i| {
                format!(
                    "rule r{i} {{ on write(fd, s, n) when starts_with(s, \"banner-{i}\") => write(fd, s, n) }}\n"
                )
            })
            .collect();
        let rules = if src.is_empty() {
            RuleSet::empty()
        } else {
            RuleSet::parse(&src).unwrap()
        };
        let begin = Instant::now();
        const N: u64 = 1_000_000;
        for _ in 0..N {
            let out = rules
                .apply(std::slice::from_ref(&miss_event), &builtins)
                .unwrap();
            std::hint::black_box(out.consumed);
        }
        let secs = begin.elapsed().as_secs_f64();
        println!(
            "{n_rules:<10} {:>14.0} {:>12.1}",
            N as f64 / secs,
            secs * 1e9 / N as f64
        );
    }
}

fn snapshot_cost_sweep() {
    println!("\n## fork (snapshot) cost: persistent map vs deep clone");
    println!(
        "{:<12} {:>16} {:>16}",
        "entries", "pmap clone us", "deep clone us"
    );
    for entries in [10_000usize, 100_000, 400_000] {
        let mut cow = pmap::PMap::new();
        let mut deep: HashMap<String, String> = HashMap::new();
        for i in 0..entries {
            let (k, v) = (format!("key:{i}"), "value-value-value".to_string());
            cow.insert(k.clone(), v.clone());
            deep.insert(k, v);
        }
        let begin = Instant::now();
        let snap = cow.clone();
        let cow_us = begin.elapsed().as_secs_f64() * 1e6;
        drop(snap);
        let begin = Instant::now();
        let snap = deep.clone();
        let deep_us = begin.elapsed().as_secs_f64() * 1e6;
        drop(snap);
        println!("{entries:<12} {cow_us:>16.1} {deep_us:>16.1}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let entries = args
        .iter()
        .position(|a| a == "--entries")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    ring_capacity_sweep();
    parallel_xform_sweep(entries);
    rule_count_sweep();
    snapshot_cost_sweep();
}
