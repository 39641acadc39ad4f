//! End-to-end tests of the MVE variant machinery: replay, divergence,
//! rule reconciliation, promotion/demotion, rollback, and lockstep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dsl::{Builtins, RuleSet};
use mve::{
    EventRing, FollowerConfig, LeaderConfig, LockstepMode, RetireReason, RetiredSignal, Role,
    VariantOs,
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
                ring: ring_b,
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

#[test]
fn notices_report_role_transitions() {
    let (tx, rx) = crossbeam::channel::unbounded();
    let kernel = VirtualKernel::new();
    let ring_a = new_ring(8);
    let mut leader = VariantOs::single(0, kernel.clone(), Some(tx));
    let listener = leader.listen(5007).unwrap();
    leader.attach_follower(LeaderConfig {
        ring: ring_a.clone(),
        lockstep: None,
    });
    ring_a.poison();
    let _ = kernel.connect(5007).unwrap();
    let _ = leader.accept(listener).unwrap();
    let notice = rx.recv_timeout(Duration::from_millis(200)).unwrap();
    assert_eq!(notice.variant, 0);
    assert_eq!(notice.kind, mve::NoticeKind::BecameSingle);
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
