//! Multi-threaded stress tests for the zero-copy data plane: the
//! chunk-queue inbox, the sharded fd table, and the per-fd readiness
//! wakeups. Each test hammers one of the invariants the representation
//! change must preserve under real contention, not just in single-step
//! unit tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use vos::{CtlOp, Errno, Fd, VirtualKernel};

/// Interleaved read/write/close across many connections spread over the
/// fd-table shards: every byte written before the close must be readable
/// in order, and close mid-stream must surface as EOF or `ConnReset`,
/// never as a hang, a panic, or corrupted data.
#[test]
fn interleaved_read_write_close_races() {
    const CONNS: usize = 24;
    const MSGS: usize = 200;

    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7000).unwrap();
    let barrier = Arc::new(Barrier::new(CONNS * 2));
    let mut handles = Vec::new();

    for c in 0..CONNS {
        let client = kernel.connect(7000).unwrap();
        let server = kernel.accept(listener).unwrap();

        // Writer: sends a deterministic byte stream, then closes its end.
        let k = kernel.clone();
        let b = barrier.clone();
        handles.push(thread::spawn(move || {
            b.wait();
            for m in 0..MSGS {
                let msg = vec![(c ^ m) as u8; 1 + (m % 37)];
                match k.client_send(client, &msg) {
                    Ok(n) => assert_eq!(n, msg.len()),
                    // The reader may close its end early on some runs.
                    Err(Errno::ConnReset) => return,
                    Err(e) => panic!("unexpected send error: {e:?}"),
                }
            }
            let _ = k.close(client);
        }));

        // Reader: drains until EOF; about a third close early, racing
        // the writer mid-stream.
        let k = kernel.clone();
        let b = barrier.clone();
        handles.push(thread::spawn(move || {
            b.wait();
            let close_early = c % 3 == 0;
            let mut expected: Vec<u8> = Vec::new();
            for m in 0..MSGS {
                expected.extend(std::iter::repeat_n((c ^ m) as u8, 1 + (m % 37)));
            }
            let mut got: Vec<u8> = Vec::new();
            loop {
                if close_early && got.len() > expected.len() / 2 {
                    kernel_close_quiet(&k, server);
                    return;
                }
                match k.read(server, 4096, Some(Duration::from_secs(5))) {
                    Ok(data) if data.is_empty() => break, // EOF
                    Ok(data) => got.extend_from_slice(&data),
                    Err(Errno::TimedOut) => panic!("reader starved on conn {c}"),
                    Err(e) => panic!("unexpected read error: {e:?}"),
                }
            }
            assert_eq!(got, expected, "conn {c}: stream corrupted");
            kernel_close_quiet(&k, server);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

fn kernel_close_quiet(k: &VirtualKernel, fd: Fd) {
    let _ = k.close(fd);
}

/// A close with bytes still queued must let the reader drain everything
/// before seeing EOF — pending data is never dropped, even when the
/// close lands while readers are mid-drain on other threads.
#[test]
fn eof_with_pending_data_drains_fully() {
    const PAYLOAD: usize = 64 * 1024;
    const ROUNDS: usize = 16;

    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7001).unwrap();
    let mut handles = Vec::new();
    for r in 0..ROUNDS {
        let client = kernel.connect(7001).unwrap();
        let server = kernel.accept(listener).unwrap();
        let k = kernel.clone();
        handles.push(thread::spawn(move || {
            // Fill the inbox in chunks, then close immediately: the whole
            // payload is "pending at EOF" for the reader.
            let body = vec![r as u8; PAYLOAD];
            for chunk in body.chunks(1000 + r) {
                k.client_send(client, chunk).unwrap();
            }
            k.close(client).unwrap();
        }));
        let k = kernel.clone();
        handles.push(thread::spawn(move || {
            let mut got = 0usize;
            loop {
                let data = k.read(server, 797, Some(Duration::from_secs(5))).unwrap();
                if data.is_empty() {
                    break;
                }
                assert!(data.iter().all(|&b| b == r as u8));
                got += data.len();
            }
            assert_eq!(got, PAYLOAD, "round {r}: bytes lost at EOF");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A timed-out read must not consume or reorder data that arrives just
/// as the deadline expires: whatever interleaving the race produces, the
/// reader eventually observes the full stream, in order.
#[test]
fn timeout_vs_arrival_races_lose_no_data() {
    const PAIRS: usize = 12;
    const MSGS: usize = 64;

    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7002).unwrap();
    let mut handles = Vec::new();
    for p in 0..PAIRS {
        let client = kernel.connect(7002).unwrap();
        let server = kernel.accept(listener).unwrap();
        let k = kernel.clone();
        handles.push(thread::spawn(move || {
            for m in 0..MSGS {
                k.client_send(client, &[m as u8]).unwrap();
                if m % 7 == 0 {
                    // Let some reads hit their deadline first.
                    thread::sleep(Duration::from_micros(200));
                }
            }
            k.close(client).unwrap();
        }));
        let k = kernel.clone();
        handles.push(thread::spawn(move || {
            let mut got: Vec<u8> = Vec::new();
            let mut timeouts = 0u32;
            loop {
                // Deliberately tiny deadline so arrivals race expiry.
                match k.read(server, 8, Some(Duration::from_micros(50))) {
                    Ok(data) if data.is_empty() => break,
                    Ok(data) => got.extend_from_slice(&data),
                    Err(Errno::TimedOut) => timeouts += 1,
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
                assert!(timeouts < 1_000_000, "pair {p} livelocked");
            }
            let expected: Vec<u8> = (0..MSGS).map(|m| m as u8).collect();
            assert_eq!(got, expected, "pair {p}: timeout race dropped bytes");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A write to fd A must wake only waiters registered for fd A. Each
/// watcher thread owns one epoll instance watching one connection; a
/// storm of writes to the *other* connections must not inflate its
/// wakeup count, and its own single write must get through.
#[test]
fn per_fd_wakeups_are_targeted_under_storm() {
    const WATCHERS: usize = 8;
    const STORM: usize = 400;

    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7003).unwrap();
    let mut conns = Vec::new();
    for _ in 0..WATCHERS {
        let client = kernel.connect(7003).unwrap();
        let server = kernel.accept(listener).unwrap();
        conns.push((client, server));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let woken = Arc::new(AtomicU64::new(0));
    let mut watchers = Vec::new();
    let mut eps = Vec::new();
    for &(_, server) in &conns {
        let ep = kernel.epoll_create().unwrap();
        kernel.epoll_ctl(ep, CtlOp::Add, server).unwrap();
        eps.push(ep);
        let k = kernel.clone();
        let woken = woken.clone();
        watchers.push(thread::spawn(move || {
            let ready = k.epoll_wait(ep, 4, Duration::from_secs(10)).unwrap();
            assert_eq!(ready, vec![server], "watcher woke for the wrong fd");
            woken.fetch_add(1, Ordering::SeqCst);
        }));
    }

    // Storm: hammer connection 0 only, from several threads at once,
    // while the other watchers sleep.
    let mut stormers = Vec::new();
    for _ in 0..3 {
        let k = kernel.clone();
        let target = conns[0].0;
        let stop = stop.clone();
        stormers.push(thread::spawn(move || {
            for _ in 0..STORM {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                k.client_send(target, b"x").unwrap();
            }
        }));
    }
    for s in stormers {
        s.join().unwrap();
    }
    // Only watcher 0 should have woken so far.
    while woken.load(Ordering::SeqCst) < 1 {
        thread::yield_now();
    }
    assert_eq!(woken.load(Ordering::SeqCst), 1, "storm woke a bystander");
    for (i, &ep) in eps.iter().enumerate().skip(1) {
        assert_eq!(
            kernel.epoll_wakeups(ep).unwrap(),
            0,
            "epoll {i} saw wakeups for traffic it never watched"
        );
    }

    // Release the bystanders with one write each; all watchers finish.
    for &(client, _) in &conns[1..] {
        kernel.client_send(client, b"y").unwrap();
    }
    for w in watchers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
}

/// Concurrent open/close churn across every shard of the fd table:
/// descriptors stay unique, no entry leaks, and the table ends exactly
/// where it started.
#[test]
fn sharded_fd_table_survives_concurrent_churn() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 150;

    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7004).unwrap();
    let baseline = kernel.resource_count();
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let k = kernel.clone();
        let b = barrier.clone();
        handles.push(thread::spawn(move || {
            b.wait();
            for r in 0..ROUNDS {
                let client = k.connect(7004).unwrap();
                let server = k.accept(listener).unwrap();
                assert_ne!(client, server);
                k.client_send(client, b"ping").unwrap();
                let got = k.read(server, 16, Some(Duration::from_secs(5))).unwrap();
                assert_eq!(got, b"ping");
                if r % 2 == 0 {
                    k.close(client).unwrap();
                    k.close(server).unwrap();
                } else {
                    k.close(server).unwrap();
                    k.close(client).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        kernel.resource_count(),
        baseline,
        "fd-table churn leaked entries"
    );
}

/// Readiness order is registration order even when writes land from many
/// threads in scrambled order — the invariant the event loop's
/// round-robin cursor depends on.
#[test]
fn epoll_ready_order_is_registration_order_under_concurrent_writes() {
    const CONNS: usize = 6;
    const ROUNDS: usize = 40;

    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7005).unwrap();
    let ep = kernel.epoll_create().unwrap();
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        let client = kernel.connect(7005).unwrap();
        let server = kernel.accept(listener).unwrap();
        kernel.epoll_ctl(ep, CtlOp::Add, server).unwrap();
        conns.push((client, server));
    }
    let registration_order: Vec<Fd> = conns.iter().map(|&(_, s)| s).collect();

    for round in 0..ROUNDS {
        // All connections become ready from distinct threads at once.
        let mut writers = Vec::new();
        for (i, &(client, _)) in conns.iter().enumerate() {
            let k = kernel.clone();
            writers.push(thread::spawn(move || {
                // Scramble arrival order a little each round.
                if (i + round) % 3 == 0 {
                    thread::yield_now();
                }
                k.client_send(client, b"r").unwrap();
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        let ready = kernel
            .epoll_wait(ep, CONNS, Duration::from_secs(5))
            .unwrap();
        assert_eq!(
            ready, registration_order,
            "round {round}: readiness not in registration order"
        );
        for &(_, server) in &conns {
            let got = kernel
                .read(server, 8, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(got, b"r");
        }
    }
}

/// SplitMix64 step: the schedule source of the seeded wake-up test.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bytes connection `c` carries under `seed`: pseudo-random, so a
/// lost, duplicated or reordered piece fails the comparison.
fn schedule_stream(seed: u64, c: u64) -> Vec<u8> {
    let mut state = seed << 40 ^ c << 32;
    (0..48 * 1024).map(|_| mix(&mut state) as u8).collect()
}

/// A random pause: nothing, a yield, or a sleep of up to 255 µs.
fn jitter(r: u64) {
    match r % 16 {
        0 => thread::sleep(Duration::from_micros(r >> 56)),
        1..=4 => thread::yield_now(),
        _ => {}
    }
}

/// Lost-wakeup stress under seeded random schedules. Writers on four
/// connections send random-sized pieces with random yields and pauses.
/// Connection 0 is read by a reader that blocks without a timeout, 1 by
/// a reader with random short timeouts, and 2 and 3 by an `epoll_wait`
/// loop with random timeouts, some of them an hour long, while a churn
/// thread keeps deleting and re-adding connection 3's interest. Every
/// byte must arrive in order. Writers close only after their reader has
/// drained the stream, so a lost wake-up leaves an untimed reader or a
/// long epoll wait asleep with data pending, and the watchdog fails the
/// seed. On odd seeds the writers never pause: each sends its next
/// piece as soon as the reader has taken the last one, so most waits
/// end inside the spin phase of a read or `epoll_wait` instead of in a
/// park.
#[test]
fn seeded_schedules_lose_no_wakeups() {
    for seed in 0..32u64 {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            run_wakeup_schedule(seed);
            let _ = done_tx.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(30)) {
            panic!("seed {seed}: a waiter hung");
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

fn run_wakeup_schedule(seed: u64) {
    let kernel = VirtualKernel::new();
    let listener = kernel.listen(7100).unwrap();
    let conns: Vec<(Fd, Fd)> = (0..4)
        .map(|_| {
            let client = kernel.connect(7100).unwrap();
            (client, kernel.accept(listener).unwrap())
        })
        .collect();
    let mut threads = Vec::new();

    for (c, &(client, server)) in conns.iter().enumerate() {
        let k = kernel.clone();
        threads.push(thread::spawn(move || {
            let body = schedule_stream(seed, c as u64);
            let mut rng = seed ^ 0x1000 ^ c as u64;
            let mut sent = 0;
            while sent < body.len() {
                let r = mix(&mut rng);
                let n = (1 + r as usize % 512).min(body.len() - sent);
                k.client_send(client, &body[sent..sent + n]).unwrap();
                sent += n;
                if seed.is_multiple_of(2) {
                    jitter(mix(&mut rng));
                } else {
                    // No pause: hand the next piece over as soon as the
                    // reader has taken this one.
                    while k.pending_bytes(server).unwrap() > 0 {
                        thread::yield_now();
                    }
                }
            }
            // Close only once the reader has drained everything: the
            // close wakes every sleeper, so closing early would hide a
            // write that failed to wake one.
            while k.pending_bytes(server).unwrap() > 0 {
                thread::sleep(Duration::from_micros(50));
            }
            k.close(client).unwrap();
        }));
    }

    for (c, &(_, server)) in conns.iter().enumerate().take(2) {
        let k = kernel.clone();
        threads.push(thread::spawn(move || {
            let mut rng = seed ^ 0x2000 ^ c as u64;
            let mut got = Vec::new();
            loop {
                let r = mix(&mut rng);
                let timeout = (c == 1).then(|| Duration::from_micros(r >> 55));
                match k.read(server, 1 + r as usize % 1024, timeout) {
                    Ok(data) if data.is_empty() => break,
                    Ok(data) => got.extend_from_slice(&data),
                    Err(Errno::TimedOut) => {}
                    Err(e) => panic!("seed {seed} conn {c}: read failed: {e:?}"),
                }
            }
            assert!(
                got == schedule_stream(seed, c as u64),
                "seed {seed} conn {c}: bytes lost or reordered"
            );
        }));
    }

    let ep = kernel.epoll_create().unwrap();
    let watched = [conns[2].1, conns[3].1];
    for fd in watched {
        kernel.epoll_ctl(ep, CtlOp::Add, fd).unwrap();
    }
    // (watched, drained) for connection 3, under one lock so the churn
    // thread never re-adds a descriptor the loop has drained.
    let churned = Arc::new(Mutex::new((true, false)));
    {
        let k = kernel.clone();
        let churned = churned.clone();
        threads.push(thread::spawn(move || {
            let mut rng = seed ^ 0x3000;
            loop {
                {
                    let mut st = churned.lock().unwrap();
                    if st.1 {
                        break;
                    }
                    let op = if st.0 { CtlOp::Del } else { CtlOp::Add };
                    k.epoll_ctl(ep, op, watched[1]).unwrap();
                    st.0 = !st.0;
                }
                jitter(mix(&mut rng));
            }
        }));
    }
    let k = kernel.clone();
    threads.push(thread::spawn(move || {
        let mut rng = seed ^ 0x4000;
        let mut got = [Vec::new(), Vec::new()];
        let mut eof = [false, false];
        while !(eof[0] && eof[1]) {
            let r = mix(&mut rng);
            let timeout = match r % 4 {
                0 => Duration::ZERO,
                1 | 2 => Duration::from_micros(r >> 53),
                _ => Duration::from_secs(3600),
            };
            for fd in k.epoll_wait(ep, 4, timeout).unwrap() {
                let i = watched.iter().position(|w| *w == fd).unwrap();
                // Only this thread reads these fds, so a ready one never
                // blocks.
                let data = k.read(fd, 1 + (r >> 8) as usize % 2048, None).unwrap();
                if !data.is_empty() {
                    got[i].extend_from_slice(&data);
                    continue;
                }
                eof[i] = true;
                // A drained fd stays readable; stop watching it.
                let mut st = churned.lock().unwrap();
                if i == 0 || st.0 {
                    k.epoll_ctl(ep, CtlOp::Del, fd).unwrap();
                }
                if i == 1 {
                    *st = (false, true);
                }
            }
        }
        for (i, got) in got.iter().enumerate() {
            assert!(
                *got == schedule_stream(seed, 2 + i as u64),
                "seed {seed} conn {}: bytes lost or reordered",
                2 + i
            );
        }
    }));

    for t in threads {
        t.join().unwrap();
    }
}
