//! End-to-end tests of the MVE variant machinery: replay, divergence,
//! rule reconciliation, promotion/demotion, rollback, and lockstep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use dsl::{Builtins, RuleSet};
use mve::{
    EventRing, FollowerConfig, LeaderConfig, LockstepMode, Notice, NoticeHook, NoticeKind,
    RetireReason, RetiredSignal, Role, VariantOs,
};
use ring::Ring;
use vos::{Buf, Os, VirtualKernel};

fn new_ring(cap: usize) -> EventRing {
    Arc::new(Ring::with_capacity(cap))
}

fn follower_config(ring: EventRing) -> FollowerConfig {
    FollowerConfig {
        ring,
        rules: Arc::new(RuleSet::empty()),
        builtins: Arc::new(Builtins::standard()),
        promote_to: None,
        lag: None,
    }
}

#[test]
fn follower_replays_leader_stream_and_gets_leader_results() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(1024);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5000).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    assert_eq!(leader.role(), Role::Leader);

    let client = kernel.connect(5000).unwrap();
    let conn = leader.accept(listener).unwrap();
    kernel.client_send(client, b"hello").unwrap();
    let got = leader.read_timeout(conn, 64, 100).unwrap();
    assert_eq!(got, b"hello");
    leader.write(conn, b"world").unwrap();
    let t_leader = leader.now();

    // Replay on the follower: same calls, results come from the ring.
    let mut follower =
        VariantOs::follower(1, kernel.clone(), follower_config(ring_a.clone()), None);
    assert_eq!(follower.role(), Role::Follower);
    let conn2 = follower.accept(listener).unwrap();
    assert_eq!(conn2, conn, "logical descriptors match");
    assert_eq!(follower.read_timeout(conn, 64, 100).unwrap(), b"hello");
    assert_eq!(follower.write(conn, b"world").unwrap(), 5);
    assert_eq!(follower.now(), t_leader, "timestamps are replicated");

    // The client saw the response exactly once (the leader's).
    assert_eq!(kernel.client_recv(client, 64).unwrap(), b"world");
    assert_eq!(
        kernel
            .client_recv_timeout(client, 64, Duration::from_millis(20))
            .unwrap_err(),
        vos::Errno::TimedOut,
        "follower writes must not hit the kernel"
    );
    assert!(ring_a.is_empty());
}

#[test]
fn divergent_write_payload_is_detected() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(64);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5001).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let client = kernel.connect(5001).unwrap();
    let conn = leader.accept(listener).unwrap();
    kernel.client_send(client, b"req").unwrap();
    let _ = leader.read_timeout(conn, 64, 100).unwrap();
    leader.write(conn, b"+OK\r\n").unwrap();

    let mut follower = VariantOs::follower(1, kernel, follower_config(ring_a), None);
    let _ = follower.accept(listener).unwrap();
    let _ = follower.read_timeout(conn, 64, 100).unwrap();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = follower.write(conn, b"+WRONG\r\n");
    }));
    let payload = result.unwrap_err();
    let signal = RetiredSignal::from_payload(&*payload).expect("typed divergence signal");
    match &signal.0 {
        RetireReason::Diverged(d) => {
            assert!(d.expected.is_some());
            assert!(d.attempted.contains("WRONG"), "{d}");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn rules_reconcile_expected_differences() {
    // The leader reads a new-style command; the rule maps it to an
    // invalid command for the follower (Figure 4, Rule 1 shape).
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(64);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5002).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let client = kernel.connect(5002).unwrap();
    let conn = leader.accept(listener).unwrap();
    kernel
        .client_send(client, b"PUT-number balance 100")
        .unwrap();
    let _ = leader.read_timeout(conn, 64, 100).unwrap();

    let rules = RuleSet::parse(
        r#"
        rule put_typed {
            on read(fd, s, n)
            when starts_with(s, "PUT-")
            => read(fd, "bad-cmd", 7)
        }
    "#,
    )
    .unwrap();
    let mut follower = VariantOs::follower(
        1,
        kernel,
        FollowerConfig {
            ring: ring_a,
            rules: Arc::new(rules),
            builtins: Arc::new(Builtins::standard()),
            promote_to: None,
            lag: None,
        },
        None,
    );
    let _ = follower.accept(listener).unwrap();
    assert_eq!(
        follower.read_timeout(conn, 64, 100).unwrap(),
        b"bad-cmd",
        "rule rewrote the replayed data"
    );
}

#[test]
fn demotion_promotes_follower_via_in_band_marker() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(64);
    let ring_b = new_ring(64);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5003).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let client = kernel.connect(5003).unwrap();
    let conn = leader.accept(listener).unwrap();
    kernel.client_send(client, b"one").unwrap();
    let _ = leader.read_timeout(conn, 64, 100).unwrap();
    leader.write(conn, b"r1").unwrap();

    // Request demotion through the slot (as the coordinator does); the
    // runner-equivalent here takes it at a safe point and steps down.
    let slot = leader.demote_slot();
    *slot.lock() = Some(follower_config(ring_b.clone()));
    let config = leader.take_demote_request().expect("requested");
    leader.demote_now(config);
    assert_eq!(leader.role(), Role::Follower);

    // The old leader's next syscall happens on another thread — it will
    // block as a follower until the promoted leader produces records.
    let old_leader_thread = thread::spawn(move || {
        // Replays the write against ring B once the new leader logs it.
        leader.write(conn, b"r2").unwrap();
        leader
    });

    // New-version follower on ring A, promoted to leader on ring B.
    let mut follower = VariantOs::follower(
        1,
        kernel.clone(),
        FollowerConfig {
            ring: ring_a,
            rules: Arc::new(RuleSet::empty()),
            builtins: Arc::new(Builtins::standard()),
            promote_to: Some(LeaderConfig {
                ring: ring_b.clone(),
                lockstep: None,
            }),
            lag: None,
        },
        None,
    );
    let _ = follower.accept(listener).unwrap();
    let _ = follower.read_timeout(conn, 64, 100).unwrap();
    assert_eq!(follower.write(conn, b"r1").unwrap(), 2);
    // Next call consumes the Demote marker and promotes; the write then
    // executes for real and is logged to ring B.
    assert_eq!(follower.write(conn, b"r2").unwrap(), 2);
    assert_eq!(follower.role(), Role::Leader);
    // This thread now waits on the old leader, so it kicks ring B the
    // way an idle leader would; the old leader may be parked on it.
    ring_b.kick();

    // The old leader (now follower) replays r2 from ring B and returns.
    let old = old_leader_thread.join().unwrap();
    assert_eq!(old.role(), Role::Follower);

    // Client saw r1 (old leader) and r2 (new leader), exactly once each.
    assert_eq!(kernel.client_recv(client, 2).unwrap(), b"r1");
    assert_eq!(kernel.client_recv(client, 2).unwrap(), b"r2");
}

#[test]
fn poisoning_rolls_back_leader_to_single_and_kills_follower() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(2);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5004).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let client = kernel.connect(5004).unwrap();
    let conn = leader.accept(listener).unwrap();
    kernel.client_send(client, b"abc").unwrap();

    // Rollback: coordinator poisons the ring.
    ring_a.poison();

    // Leader keeps serving, reverting to single mode on the failed push.
    let data = leader.read_timeout(conn, 64, 100).unwrap();
    assert_eq!(data, b"abc");
    assert_eq!(leader.role(), Role::Single);

    // A follower attached to the poisoned ring dies with Terminated.
    let mut follower = VariantOs::follower(1, kernel, follower_config(ring_a), None);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = follower.accept(listener);
    }));
    let payload = result.unwrap_err();
    let signal = RetiredSignal::from_payload(&*payload).expect("typed signal");
    assert_eq!(signal.0, RetireReason::Terminated);
}

#[test]
fn leader_crash_promotes_follower_after_drain() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(64);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5005).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let client = kernel.connect(5005).unwrap();
    let conn = leader.accept(listener).unwrap();
    kernel.client_send(client, b"req1").unwrap();
    let _ = leader.read_timeout(conn, 64, 100).unwrap();
    leader.write(conn, b"resp1").unwrap();
    // Leader crashes: the runner closes its ring.
    ring_a.close();
    drop(leader);

    let mut follower = VariantOs::follower(1, kernel.clone(), follower_config(ring_a), None);
    // Replays the buffered history first (no state is lost)...
    let _ = follower.accept(listener).unwrap();
    assert_eq!(follower.read_timeout(conn, 64, 100).unwrap(), b"req1");
    assert_eq!(follower.write(conn, b"resp1").unwrap(), 5);
    // ...then takes over as the sole leader.
    kernel.client_send(client, b"req2").unwrap();
    assert_eq!(follower.read_timeout(conn, 64, 100).unwrap(), b"req2");
    assert_eq!(follower.role(), Role::Single);
    follower.write(conn, b"resp2").unwrap();

    assert_eq!(kernel.client_recv(client, 5).unwrap(), b"resp1");
    assert_eq!(kernel.client_recv(client, 5).unwrap(), b"resp2");
}

#[test]
fn lockstep_leader_waits_for_follower() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(1);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5006).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: Some(LockstepMode::Muc),
    });
    let client = kernel.connect(5006).unwrap();

    let done = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let leader_thread = {
        let done = done.clone();
        thread::spawn(move || {
            let conn = leader.accept(listener).unwrap();
            done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            leader.write(conn, b"x").unwrap();
            done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            (leader, conn)
        })
    };
    thread::sleep(Duration::from_millis(50));
    assert_eq!(
        done.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "leader blocked at the first rendezvous until the follower consumes"
    );

    let mut follower = VariantOs::follower(1, kernel.clone(), follower_config(ring_a), None);
    let conn = follower.accept(listener).unwrap();
    assert_eq!(follower.write(conn, b"x").unwrap(), 1);
    let (_leader, _conn) = leader_thread.join().unwrap();
    assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), 2);
    assert_eq!(kernel.client_recv(client, 8).unwrap(), b"x");
}

type NoticeLog = Arc<Mutex<Vec<(u32, NoticeKind)>>>;

/// A hook that appends each notice to one log shared by all variants.
fn notice_log() -> (NoticeLog, NoticeHook) {
    let log = NoticeLog::default();
    let sink = log.clone();
    let hook: NoticeHook =
        Arc::new(move |n: Notice| sink.lock().unwrap().push((n.variant, n.kind)));
    (log, hook)
}

#[test]
fn notices_report_role_transitions() {
    let (log, hook) = notice_log();
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(8);
    let mut leader = VariantOs::single(0, kernel.clone(), Some(hook));
    let listener = leader.listen(5007).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    ring_a.poison();
    let _ = kernel.connect(5007).unwrap();
    let _ = leader.accept(listener).unwrap();
    // Delivered inside the call whose push hit the poisoned ring.
    assert_eq!(*log.lock().unwrap(), [(0, NoticeKind::BecameSingle)]);
    assert_eq!(leader.role(), Role::Single);
}

#[test]
fn demotion_and_takeover_are_reported_in_order_on_each_variant() {
    let (log, hook) = notice_log();
    let kernel = VirtualKernel::new();
    let (ring_a, ring_b) = (new_ring(8), new_ring(8));
    let mut leader = VariantOs::single(0, kernel.clone(), Some(hook.clone()));
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let mut follower = VariantOs::follower(
        1,
        kernel.clone(),
        FollowerConfig {
            promote_to: Some(LeaderConfig {
                ring: ring_b.clone(),
                lockstep: None,
            }),
            ..follower_config(ring_a)
        },
        Some(hook),
    );
    leader.demote_now(follower_config(ring_b));
    assert_eq!(*log.lock().unwrap(), [(0, NoticeKind::Demoted)]);
    // The follower's next call consumes the marker and runs as leader.
    let _ = follower.now();
    assert_eq!(follower.role(), Role::Leader);
    assert_eq!(
        *log.lock().unwrap(),
        [(0, NoticeKind::Demoted), (1, NoticeKind::BecameLeader)]
    );
}

#[test]
fn payload_buffers_are_shared_not_copied_across_the_ring() {
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(64);

    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(5009).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    let client = kernel.connect(5009).unwrap();
    let conn = leader.accept(listener).unwrap();

    kernel.client_send(client, b"request").unwrap();
    let leader_read = leader.read_timeout(conn, 64, 100).unwrap();
    assert_eq!(leader_read, b"request");

    let payload = Buf::from_vec(b"a response big enough to matter".to_vec());
    assert_eq!(leader.write_buf(conn, payload.clone()).unwrap(), 31);

    // The client receives the very storage the server wrote: the kernel
    // moved a refcount, not bytes.
    let delivered = kernel.client_recv(client, 64).unwrap();
    assert!(
        delivered.same_storage(&payload),
        "kernel delivery must share the written buffer"
    );

    // The follower replays against the very storage the leader saw: the
    // syscall record moved through the ring with its payload shared, so
    // there is no payload memcpy between the leader's syscall completion
    // and the follower's identity comparison.
    let mut follower = VariantOs::follower(1, kernel, follower_config(ring_a), None);
    let _ = follower.accept(listener).unwrap();
    let follower_read = follower.read_timeout(conn, 64, 100).unwrap();
    assert!(
        follower_read.same_storage(&leader_read),
        "replayed read result must share the leader's buffer"
    );
    assert_eq!(follower.write_buf(conn, payload.clone()).unwrap(), 31);
}

#[test]
fn single_mode_tracks_interception_stats() {
    let kernel = VirtualKernel::new();
    let mut variant = VariantOs::single(0, kernel.clone(), None);
    let stats = variant.stats();
    let listener = variant.listen(5008).unwrap();
    let _client = kernel.connect(5008).unwrap();
    let conn = variant.accept(listener).unwrap();
    assert_eq!(stats.live_fd_count(), 2, "listener + accepted conn");
    variant.close(conn).unwrap();
    assert_eq!(stats.live_fd_count(), 1);
    assert!(stats.intercepted_count() >= 3);
}

/// Redis 2.0.0 → 2.0.1's rule: the old leader updates its stats clock
/// after each reply, the new version before it.
const STATS_REORDER: &str = r#"
    rule stats_reorder {
        on write(fd, s, n), now(t)
        => now(t), write(fd, s, n)
    }
"#;

/// A leader with one accepted connection and a follower under
/// `STATS_REORDER`, both on a fresh ring.
struct ReorderPair {
    kernel: Arc<VirtualKernel>,
    ring: EventRing,
    leader: VariantOs,
    follower: VariantOs,
    listener: vos::Fd,
    client: vos::Fd,
    conn: vos::Fd,
}

fn reorder_pair(port: u16) -> ReorderPair {
    let kernel = VirtualKernel::new();
    let ring = new_ring(64);
    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let listener = leader.listen(port).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring.clone(),
        lockstep: None,
    });
    let client = kernel.connect(port).unwrap();
    let conn = leader.accept(listener).unwrap();
    let follower = VariantOs::follower(
        1,
        kernel.clone(),
        FollowerConfig {
            rules: Arc::new(RuleSet::parse(STATS_REORDER).unwrap()),
            ..follower_config(ring.clone())
        },
        None,
    );
    ReorderPair {
        kernel,
        ring,
        leader,
        follower,
        listener,
        client,
        conn,
    }
}

/// What the new version's follower saw: its connection, the request,
/// the clock reading, and the reply's result — or how it retired.
type Replay = Result<(vos::Fd, Vec<u8>, u64, vos::OsResult<usize>), Box<RetireReason>>;

/// Replays the new version's order on its own thread: accept, read,
/// then `now` before `write`.
fn replay_new_order(mut follower: VariantOs, listener: vos::Fd) -> thread::JoinHandle<Replay> {
    thread::spawn(move || {
        catch_unwind(AssertUnwindSafe(|| {
            let conn = follower.accept(listener).unwrap();
            let request = follower.read_timeout(conn, 64, 100).unwrap().to_vec();
            let t = follower.now();
            (conn, request, t, follower.write(conn, b"+OK\r\n"))
        }))
        .map_err(|payload| {
            let signal = RetiredSignal::from_payload(&*payload).expect("typed retire signal");
            Box::new(signal.0.clone())
        })
    })
}

#[test]
fn reorder_verdict_does_not_depend_on_the_gap_between_records() {
    let mut outcomes = Vec::new();
    for (port, gap) in [(5010, 0), (5011, 300)] {
        let mut p = reorder_pair(port);
        let replay = replay_new_order(p.follower, p.listener);
        p.kernel.client_send(p.client, b"GET k\r\n").unwrap();
        p.leader.read_timeout(p.conn, 64, 100).unwrap();
        p.leader.write(p.conn, b"+OK\r\n").unwrap();
        // Wake the follower as an idle leader would: it replays up to
        // the write, whose window stays open across the gap.
        p.ring.kick();
        thread::sleep(Duration::from_millis(gap));
        let t = p.leader.now();
        p.ring.kick();
        let (conn, request, follower_t, written) = replay
            .join()
            .unwrap()
            .unwrap_or_else(|r| panic!("gap {gap} ms: {r:?}"));
        assert_eq!(follower_t, t, "gap {gap} ms: the leader's clock replays");
        outcomes.push((conn, request, written));
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0].2, Ok(5));
}

#[test]
fn an_open_window_is_decided_by_the_stream_not_the_clock() {
    type Settle = fn(&mut VariantOs, vos::Fd);
    let settles: [(&str, Settle); 3] = [
        // An idle poll 300 ms later: the next record.
        ("next record", |leader, ep| {
            assert!(leader.epoll_wait(ep, 8, 0).unwrap().is_empty());
        }),
        ("demote", |leader, _| {
            leader.demote_now(follower_config(new_ring(8)));
        }),
        ("close", |leader, _| leader.teardown_on_crash()),
    ];
    for (port, (how, settle)) in (5012..).zip(settles) {
        let mut p = reorder_pair(port);
        let ep = p.kernel.epoll_create().unwrap();
        let replay = replay_new_order(p.follower, p.listener);
        p.kernel.client_send(p.client, b"GET k\r\n").unwrap();
        p.leader.read_timeout(p.conn, 64, 100).unwrap();
        p.leader.write(p.conn, b"+OK\r\n").unwrap();
        p.ring.kick();
        // The window [write] could still become [write, now]; no amount
        // of waiting decides it.
        thread::sleep(Duration::from_millis(300));
        assert!(!replay.is_finished(), "{how}: decided before the stream");
        settle(&mut p.leader, ep);
        // [write] alone passes through, so the new order diverges.
        match replay.join().unwrap().map_err(|r| *r) {
            Err(RetireReason::Diverged(d)) => {
                assert_eq!(
                    d.expected.map(|e| e.name).as_deref(),
                    Some("write"),
                    "{how}"
                );
                assert!(d.attempted.contains("Now"), "{how}: {}", d.attempted);
            }
            other => panic!("{how}: expected a divergence, got {other:?}"),
        }
    }
}

#[test]
fn reorder_rule_replays_the_leaders_errno() {
    let mut p = reorder_pair(5015);
    p.kernel.close(p.client).unwrap();
    let failed = p.leader.write(p.conn, b"+OK\r\n");
    assert_eq!(failed, Err(vos::Errno::ConnReset));
    let t = p.leader.now();
    let conn = p.follower.accept(p.listener).unwrap();
    assert_eq!(p.follower.now(), t);
    assert_eq!(
        p.follower.write(conn, b"+OK\r\n"),
        failed,
        "the copied write keeps the leader's errno"
    );
}

const CALLS: u64 = 1_000;

/// Runs a leader through `CALLS` `now` calls against a live follower
/// and returns how often the follower was woken. `now` neither blocks
/// untimed nor comes back idle, so the leader never kicks: only the
/// doorbell and the closing `close` wake the follower.
fn follower_wakes_for_now_calls(paced: bool) -> u64 {
    let kernel = VirtualKernel::new();
    let ring = new_ring(1024);
    let mut leader = VariantOs::single(0, kernel.clone(), None);
    leader.attach_follower(LeaderConfig {
        ring: ring.clone(),
        lockstep: None,
    });
    let mut follower = VariantOs::follower(1, kernel.clone(), follower_config(ring.clone()), None);
    let replay = thread::spawn(move || (0..CALLS).map(|_| follower.now()).collect::<Vec<_>>());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ring.stats().parks == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never parked"
        );
        thread::yield_now();
    }
    let stamps: Vec<u64> = (0..CALLS)
        .map(|_| {
            if paced {
                // Let the follower catch up and park again.
                thread::sleep(Duration::from_micros(10));
            }
            leader.now()
        })
        .collect();
    ring.close();
    assert_eq!(replay.join().unwrap(), stamps);
    let stats = ring.stats();
    assert_eq!(stats.producer_stalls, 0, "a full ring would kick");
    stats.wakes
}

#[test]
fn a_leader_that_never_kicks_wakes_its_follower_once_per_batch() {
    // Unpaced, the leader publishes many records while a woken follower
    // is still on its way: the doorbell must ring once for them all.
    // Paced, the follower keeps up and parks again after every batch.
    for paced in [false, true] {
        let wakes = follower_wakes_for_now_calls(paced);
        assert!(
            wakes <= CALLS.div_ceil(mve::FOLLOWER_BATCH as u64) + 1,
            "paced {paced}: {wakes} wakes for {CALLS} records"
        );
    }
}
