//! Soak: repeated update → rollback → update → promote cycles under
//! continuous load, asserting zero state loss throughout. This is the
//! paper's reliability claim ("no state changes made during or after the
//! update are lost") stress-tested across many cycles.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu::FaultPlan;
use mvedsua::{Mvedsua, MvedsuaConfig, MvedsuaError, Stage, TimelineEvent, UpdatePackage};
use servers::kvstore;
use workload::LineClient;

fn ask(c: &mut LineClient, req: &str) -> String {
    c.send_line(req).unwrap();
    c.recv_line().unwrap()
}

/// `update_monitored` with the warmup window elapsed on the *kernel*
/// clock: a pump thread advances virtual time while the call blocks, so
/// the monitoring window (and any internal kernel-clock timeout) passes
/// in milliseconds of wall time regardless of its nominal length.
fn monitored_virtual(
    session: &Mvedsua,
    package: UpdatePackage,
    warmup: Duration,
) -> Result<(), MvedsuaError> {
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let kernel = session.kernel();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                kernel
                    .clock()
                    .advance(Duration::from_millis(25).as_nanos() as u64);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let result = session.update_monitored(package, warmup);
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();
    result
}

#[test]
fn ten_update_rollback_cycles_lose_nothing() {
    let port = 8100;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(30)).unwrap();

    // Background writer hammering a counter key the whole time; `acked`
    // is the number of its writes answered so far.
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let writer = {
        let kernel = session.kernel();
        let (stop, acked) = (stop.clone(), acked.clone());
        std::thread::spawn(move || {
            let mut c = LineClient::connect_retry(kernel, port, Duration::from_secs(30)).unwrap();
            let mut writes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                writes += 1;
                c.send_line(&format!("PUT tick {writes}")).unwrap();
                let reply = c.recv_line().unwrap();
                assert_eq!(reply, "OK", "write {writes}");
                acked.store(writes, Ordering::Relaxed);
            }
            writes
        })
    };

    for cycle in 0..10u32 {
        assert_eq!(ask(&mut c, &format!("PUT cycle{cycle} {cycle}")), "OK");
        // The 30 ms monitoring window passes in virtual time.
        monitored_virtual(
            &session,
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(30),
        )
        .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        // Writes continue while monitoring; every cycle key remains
        // readable with the right value.
        for probe in 0..=cycle {
            assert_eq!(
                ask(&mut c, &format!("GET cycle{probe}")),
                format!("VAL {probe}"),
                "cycle {cycle} probing {probe}"
            );
        }
        // Writes continue through the monitored stage: 60 more are
        // answered before the cycle ends it, however the writer thread
        // happens to be scheduled against this one.
        let target = acked.load(Ordering::Relaxed) + 60;
        let deadline = Instant::now() + Duration::from_secs(30);
        while acked.load(Ordering::Relaxed) < target {
            assert!(Instant::now() < deadline, "cycle {cycle}: writer stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        if cycle % 2 == 0 {
            session.rollback().unwrap();
            assert!(session
                .timeline()
                .wait_for_stage(Stage::SingleLeader, Duration::from_secs(30)));
            assert_eq!(session.active_version(), dsu::v(kvstore::V1));
        } else {
            // Odd cycles commit: kvstore has a single update path, so
            // the first committed cycle ends the loop on v2.
            session.promote().unwrap();
            assert!(session
                .timeline()
                .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(30)));
            session.finalize().unwrap();
            assert!(session
                .timeline()
                .wait_for_stage(Stage::SingleLeader, Duration::from_secs(30)));
            assert_eq!(session.active_version(), dsu::v(kvstore::V2));
            break; // once on v2 there is no further update path
        }
    }

    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().unwrap();
    assert!(writes > 100, "writer made progress: {writes}");
    // The last write is still there — nothing was lost in any cycle.
    assert_eq!(ask(&mut c, "GET tick"), format!("VAL {writes}"));

    let report = session.shutdown();
    let rollbacks = report
        .entries
        .iter()
        .filter(|e| matches!(e.event, TimelineEvent::RolledBack))
        .count();
    assert!(rollbacks >= 1, "at least one rollback cycle ran");
    assert!(!report.contains(|e| matches!(e, TimelineEvent::Diverged { .. })));
}

#[test]
fn repeated_faulty_updates_then_a_clean_one() {
    // Alternate every §6.2 fault class back-to-back; the service must
    // absorb all of them and still complete a clean update afterwards.
    let port = 8101;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(30)).unwrap();
    assert_eq!(ask(&mut c, "PUT anchor 42"), "OK");

    use dsu::XformFault::*;
    for (i, fault) in [FailCleanly, DropState, CorruptField, FailCleanly, DropState]
        .into_iter()
        .enumerate()
    {
        // Only this iteration's events count (earlier rollbacks linger
        // in the timeline).
        let base = session.timeline().len();
        // The 400 ms fault-monitoring window elapses on the virtual
        // clock; a fault that fires inside it still surfaces as
        // `RolledBack`, one that lands after is caught by the probe.
        let result = monitored_virtual(
            &session,
            kvstore::update_package(FaultPlan::with_xform(fault)),
            Duration::from_millis(400),
        );
        match result {
            Err(mvedsua::MvedsuaError::RolledBack(_)) => {}
            Ok(()) => {
                // DropState/CorruptField only diverge when the bad state
                // is *read*; force the read and await the rollback.
                assert_eq!(ask(&mut c, "GET anchor"), "VAL 42");
                assert!(
                    session.timeline().wait_for(Duration::from_secs(30), |es| {
                        es[base..]
                            .iter()
                            .any(|e| matches!(e.event, TimelineEvent::RolledBack))
                    }),
                    "fault {i} must roll back"
                );
            }
            Err(other) => panic!("fault {i}: unexpected {other}"),
        }
        assert!(session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(30)));
        assert_eq!(ask(&mut c, "GET anchor"), "VAL 42", "fault {i}");
    }

    // After five failed updates, the clean one still lands.
    monitored_virtual(
        &session,
        kvstore::update_package(FaultPlan::none()),
        Duration::from_millis(200),
    )
    .unwrap();
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(30)));
    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(30)));
    assert_eq!(ask(&mut c, "GET anchor"), "VAL 42");
    assert_eq!(ask(&mut c, "TYPE anchor"), "TYPE string");
    session.shutdown();
}
