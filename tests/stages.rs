//! Figure 2 as an executable specification: the stage machine visits
//! t0..t7 in order, and the ring buffer bounds leader/follower skew.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsu::FaultPlan;
use mve::LockstepMode;
use mvedsua::{Mvedsua, MvedsuaConfig, MvedsuaError, Stage, TimelineEvent, UpdatePackage};
use servers::kvstore;
use workload::LineClient;

fn ask(c: &mut LineClient, req: &str) -> String {
    c.send_line(req).unwrap();
    c.recv_line().unwrap()
}

/// `update_monitored` with the warmup window elapsed on the *kernel*
/// clock: a pump thread advances virtual time while the call blocks, so
/// the monitoring window passes in milliseconds of wall time.
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
fn figure2_stage_order() {
    let port = 7800;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();

    // t0: single leader.
    assert_eq!(session.stage(), Stage::SingleLeader);
    assert_eq!(ask(&mut c, "PUT k 1"), "OK");

    // t1-t2: fork + update on the follower.
    monitored_virtual(
        &session,
        kvstore::update_package(FaultPlan::none()),
        Duration::from_millis(100),
    )
    .unwrap();
    assert_eq!(session.stage(), Stage::OutdatedLeader);

    // t4-t5: demote/promote via the in-band marker.
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));

    // t6: retire the outdated follower.
    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));

    let report = session.shutdown();
    let stages: Vec<Stage> = report
        .entries
        .iter()
        .filter_map(|e| match e.event {
            TimelineEvent::StageChanged { stage } => Some(stage),
            _ => None,
        })
        .collect();
    assert_eq!(
        stages,
        vec![
            Stage::OutdatedLeader,
            Stage::Switching,
            Stage::UpdatedLeader,
            Stage::SingleLeader,
        ],
        "Figure 2's t1, t4, t5, t6 transitions in order"
    );
    // And the companion events exist around them.
    for pred in [
        |e: &TimelineEvent| matches!(e, TimelineEvent::Launched { .. }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::UpdateRequested { .. }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::Forked { .. }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::UpdateCompleted { .. }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::PromoteRequested),
        |e: &TimelineEvent| matches!(e, TimelineEvent::Demoted { variant: 0 }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::Promoted { variant: 1 }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::Retired { variant: 0 }),
        |e: &TimelineEvent| matches!(e, TimelineEvent::SessionShutdown),
    ] {
        assert!(report.entries.iter().any(|e| pred(&e.event)));
    }
}

#[test]
fn tiny_ring_applies_backpressure_but_loses_nothing() {
    // With a 4-entry ring, the leader repeatedly blocks on the slower
    // follower; every request still completes exactly once. The follower
    // lags 200 µs before each record it takes, so it is the slower side
    // on every schedule: at full speed it can empty the ring between two
    // of the closed-loop client's requests, and no push ever finds the
    // ring full.
    let port = 7801;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig {
            ring_capacity: 4,
            follower_lag: Some(mve::LagPlan {
                stalls: vec![(1, 200_000)],
            }),
            ..MvedsuaConfig::default()
        },
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    monitored_virtual(
        &session,
        kvstore::update_package(FaultPlan::none()),
        Duration::from_millis(100),
    )
    .unwrap();
    for i in 0..200 {
        assert_eq!(ask(&mut c, &format!("PUT k{i} {i}")), "OK");
    }
    for i in (0..200).step_by(17) {
        assert_eq!(ask(&mut c, &format!("GET k{i}")), format!("VAL {i}"));
    }
    let stats = session.update_ring_stats().expect("update active");
    assert!(stats.high_water <= 4);
    assert!(
        stats.producer_stalls > 0,
        "a tiny ring must have stalled the leader: {stats:?}"
    );
    session.shutdown();
}

#[test]
fn lockstep_baseline_also_completes_the_lifecycle() {
    // The MUC-like configuration is slower but functionally equivalent.
    let port = 7802;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig {
            ring_capacity: 1,
            lockstep: Some(LockstepMode::Muc),
            ..MvedsuaConfig::default()
        },
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    assert_eq!(ask(&mut c, "PUT a 1"), "OK");
    monitored_virtual(
        &session,
        kvstore::update_package(FaultPlan::none()),
        Duration::from_millis(100),
    )
    .unwrap();
    assert_eq!(ask(&mut c, "GET a"), "VAL 1");
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    assert_eq!(ask(&mut c, "GET a"), "VAL 1");
    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    session.shutdown();
}

#[test]
fn consecutive_updates_back_to_back() {
    // kvstore only has one update path, so run it, roll back, run it
    // again, promote-bypass style, with a fresh session per mode.
    let port = 7803;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig {
            monitor_after_promote: false,
            ..MvedsuaConfig::default()
        },
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    assert_eq!(ask(&mut c, "PUT a 1"), "OK");
    monitored_virtual(
        &session,
        kvstore::update_package(FaultPlan::none()),
        Duration::from_millis(100),
    )
    .unwrap();
    // Bypass mode: promote retires the old version immediately (the
    // configuration the paper's §6.1 update-time comparison uses).
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    assert_eq!(session.active_version(), dsu::v(kvstore::V2));
    assert_eq!(ask(&mut c, "GET a"), "VAL 1");
    assert_eq!(ask(&mut c, "TYPE a"), "TYPE string");
    let report = session.shutdown();
    assert!(report.contains(|e| matches!(e, TimelineEvent::Retired { variant: 0 })));
    assert!(!report.contains(|e| matches!(e, TimelineEvent::Promoted { .. })));
}
