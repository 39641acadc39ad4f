//! End-to-end lifecycle over the paper's running example: update with
//! live traffic, rule-absorbed divergences, promotion, finalization —
//! and no lost state anywhere.

use std::time::Duration;

use dsu::FaultPlan;
use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent};
use servers::kvstore;
use workload::LineClient;

const PORT: u16 = 7500;

fn launch(port: u16) -> Mvedsua {
    let kernel = vos::VirtualKernel::new();
    Mvedsua::launch_observed(
        kernel,
        kvstore::registry(port),
        dsu::v(kvstore::V1),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap()
}

fn client(session: &Mvedsua, port: u16) -> LineClient {
    LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap()
}

fn ask(client: &mut LineClient, req: &str) -> String {
    client.send_line(req).unwrap();
    client.recv_line().unwrap()
}

#[test]
fn full_lifecycle_preserves_state_and_absorbs_divergences() {
    let session = launch(PORT);
    let mut c = client(&session, PORT);

    // Pre-update state.
    assert_eq!(ask(&mut c, "PUT balance 1000"), "OK");
    assert_eq!(ask(&mut c, "GET balance"), "VAL 1000");

    // Update, keep monitoring while traffic flows.
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(200),
        )
        .unwrap();
    assert_eq!(session.stage(), Stage::OutdatedLeader);
    assert_eq!(session.active_version(), dsu::v(kvstore::V1));

    // Old semantics are enforced while the old version leads: the
    // backward-compatible commands agree, and the new-version-only
    // commands are rejected *by both* thanks to the Figure 4 rules.
    assert_eq!(ask(&mut c, "PUT rate 7"), "OK");
    assert_eq!(ask(&mut c, "GET rate"), "VAL 7");
    assert_eq!(ask(&mut c, "PUT-number balance 1001"), "ERR bad-cmd");
    assert_eq!(ask(&mut c, "TYPE balance"), "ERR bad-cmd");
    assert_eq!(ask(&mut c, "GET balance"), "VAL 1000");

    // Give the follower a moment to replay, then confirm no divergence.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(session.stage(), Stage::OutdatedLeader, "no rollback");

    // Promote: the new version takes over without dropping a request.
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    assert_eq!(session.active_version(), dsu::v(kvstore::V2));

    // New leader, old follower: reverse rule maps PUT-string to PUT.
    assert_eq!(ask(&mut c, "PUT-string motto updates"), "OK");
    assert_eq!(ask(&mut c, "GET motto"), "VAL updates");
    assert_eq!(ask(&mut c, "GET balance"), "VAL 1000", "state preserved");

    // Commit the update; the old version retires.
    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));

    // Full new semantics now visible.
    assert_eq!(ask(&mut c, "TYPE balance"), "TYPE string");
    assert_eq!(ask(&mut c, "PUT-number debt 17"), "OK");
    assert_eq!(ask(&mut c, "GET debt"), "VAL-number 17");
    assert_eq!(ask(&mut c, "GET rate"), "VAL 7", "mid-update state kept");

    let report = session.shutdown();
    assert!(!report.contains(|e| matches!(e, TimelineEvent::RolledBack)));
    assert!(!report.contains(|e| matches!(e, TimelineEvent::Diverged { .. })));
}

#[test]
fn rollback_on_operator_request_loses_nothing() {
    let session = launch(PORT + 1);
    let mut c = client(&session, PORT + 1);
    assert_eq!(ask(&mut c, "PUT a 1"), "OK");
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    // State written during monitoring...
    assert_eq!(ask(&mut c, "PUT b 2"), "OK");
    session.rollback().unwrap();
    // ...survives the rollback (the leader processed it natively).
    assert_eq!(ask(&mut c, "GET a"), "VAL 1");
    assert_eq!(ask(&mut c, "GET b"), "VAL 2");
    assert_eq!(session.active_version(), dsu::v(kvstore::V1));
    // The update can be retried and completed later.
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    assert_eq!(ask(&mut c, "GET b"), "VAL 2");
    session.shutdown();
}

#[test]
fn unmapped_new_command_terminates_old_follower_after_promotion() {
    // §3.3.2: PUT-number has no old-version equivalent. Once the new
    // version leads, issuing it diverges the old follower, which is then
    // terminated — while service continues on the new version.
    let session = launch(PORT + 2);
    let mut c = client(&session, PORT + 2);
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));

    assert_eq!(ask(&mut c, "PUT-number balance 1001"), "OK");
    // The old follower sees an unmappable sequence and is terminated.
    assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
        es.iter()
            .any(|e| matches!(e.event, TimelineEvent::Diverged { .. }))
    }));
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    // Service uninterrupted, new semantics intact.
    assert_eq!(ask(&mut c, "GET balance"), "VAL-number 1001");
    session.shutdown();
}

#[test]
fn update_pause_is_a_fork_not_a_transformation() {
    // Populate a non-trivial store, then check the recorded fork
    // (snapshot) cost is what the client-visible pause tracks — the
    // transformation happens on the follower, off the service path.
    let session = launch(PORT + 3);
    let mut c = client(&session, PORT + 3);
    for i in 0..500 {
        assert_eq!(ask(&mut c, &format!("PUT key{i} value{i}")), "OK");
    }
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    let entries = session.timeline().entries();
    let forked = entries
        .iter()
        .find_map(|e| match e.event {
            TimelineEvent::Forked { snapshot_nanos } => Some(snapshot_nanos),
            _ => None,
        })
        .expect("forked");
    let xform = entries
        .iter()
        .find_map(|e| match e.event {
            TimelineEvent::UpdateCompleted { xform_nanos } => Some(xform_nanos),
            _ => None,
        })
        .expect("update completed");
    // Both happened; the service-side pause is the snapshot, and the
    // (potentially long) transformation ran concurrently with service.
    assert!(forked > 0);
    assert!(xform > 0);
    // Service still live immediately after.
    assert_eq!(ask(&mut c, "GET key250"), "VAL value250");
    session.shutdown();
}

#[test]
fn pipelined_batches_meet_the_per_read_rules() {
    // Figure 4's rules rewrite a whole `read` as one command. A batch of
    // old commands passes them untouched. A batch holding a typed `PUT`
    // reaches the follower as one `bad-cmd` line, so the follower
    // answers fewer commands than the leader: the session rolls back,
    // and the client has the old version's reply to every command.
    let session = launch(PORT + 4);
    let mut c = client(&session, PORT + 4);
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    c.send(b"PUT a 1\r\nPUT b 2\r\nGET a\r\n").unwrap();
    assert_eq!(
        c.recv_until(b"VAL 1\r\n").unwrap(),
        b"OK\r\nOK\r\nVAL 1\r\n"
    );
    c.send(b"PUT-number x 1\r\nGET b\r\n").unwrap();
    assert_eq!(
        c.recv_until(b"VAL 2\r\n").unwrap(),
        b"ERR bad-cmd\r\nVAL 2\r\n"
    );
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    let diverged: Vec<String> = session
        .timeline()
        .entries()
        .into_iter()
        .filter_map(|e| match e.event {
            TimelineEvent::Diverged { description, .. } => Some(description),
            _ => None,
        })
        .collect();
    assert_eq!(diverged.len(), 1, "{diverged:?}");
    assert!(diverged[0].contains("VAL 2"), "{diverged:?}");
    assert_eq!(session.active_version(), dsu::v(kvstore::V1));

    // The same commands one per read match the rules.
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    assert_eq!(ask(&mut c, "PUT-number x 1"), "ERR bad-cmd");
    assert_eq!(ask(&mut c, "GET b"), "VAL 2");
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    session.shutdown();
}
