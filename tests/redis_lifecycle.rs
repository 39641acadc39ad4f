//! Redis-specific lifecycle: the 2.0.0 -> 2.0.1 syscall-reorder rules
//! must hold in both directions under sustained load and under
//! pipelined batches.

use std::time::Duration;

use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent};
use servers::redis;
use workload::{run_kv, KvConfig, KvFlavor, LineClient};

#[test]
fn reorder_rules_survive_load_in_both_stages() {
    let port = 7900;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        redis::registry(&redis::RedisOptions::new(port)),
        dsu::v("2.0.0"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();

    // Load before, during, and after the update.
    let mut config = KvConfig::new(port, KvFlavor::Redis);
    config.clients = 2;
    config.duration = Duration::from_millis(400);
    let report = run_kv(session.kernel(), &config);
    assert!(report.ops > 100, "{}", report.summary());

    session
        .update_monitored(
            redis::update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
            Duration::from_millis(100),
        )
        .unwrap();
    let report = run_kv(session.kernel(), &config);
    assert!(report.ops > 100, "{}", report.summary());
    assert_eq!(
        session.stage(),
        Stage::OutdatedLeader,
        "forward rules held: {:?}",
        session
            .timeline()
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TimelineEvent::Diverged { .. }))
            .collect::<Vec<_>>()
    );

    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    let report = run_kv(session.kernel(), &config);
    assert!(report.ops > 100, "{}", report.summary());
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        session.stage(),
        Stage::UpdatedLeader,
        "reverse rules held: {:?}",
        session
            .timeline()
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TimelineEvent::Diverged { .. }))
            .collect::<Vec<_>>()
    );

    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    assert_eq!(session.active_version(), dsu::v("2.0.1"));
    let report = run_kv(session.kernel(), &config);
    assert!(report.ops > 100, "{}", report.summary());
    session.shutdown();
}

/// Diverged entries of the session's timeline.
fn divergences(session: &Mvedsua) -> Vec<TimelineEvent> {
    session
        .timeline()
        .entries()
        .into_iter()
        .map(|e| e.event)
        .filter(|e| matches!(e, TimelineEvent::Diverged { .. }))
        .collect()
}

/// Sends `pairs` pipelined `SET`/`GET` pairs tagged `tag` in one write
/// and checks the replies byte for byte.
fn pipelined_batch(client: &mut LineClient, tag: &str, pairs: usize) {
    let (mut batch, mut expected) = (String::new(), String::new());
    for i in 0..pairs {
        let value = format!("{tag}{i:03}");
        batch.push_str(&format!("SET k{i:03} {value}\r\nGET k{i:03}\r\n"));
        expected.push_str(&format!("+OK\r\n${}\r\n{value}\r\n", value.len()));
    }
    client.send(batch.as_bytes()).unwrap();
    let got = client.recv_exact(expected.len()).unwrap();
    assert_eq!(String::from_utf8_lossy(&got), expected);
}

/// A read carrying many commands makes one `write` and one clock read,
/// so the content-agnostic reorder rules match one pair per read, in
/// both stages.
#[test]
fn pipelined_batches_match_the_reorder_rules() {
    let port = 7901;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        redis::registry(&redis::RedisOptions::new(port)),
        dsu::v("2.0.0"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut client =
        LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    pipelined_batch(&mut client, "a", 64);

    session
        .update_monitored(
            redis::update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
            Duration::from_millis(100),
        )
        .unwrap();
    pipelined_batch(&mut client, "b", 64);
    // The updated follower drains the backlog before it leads, so a
    // batch it could not match would roll the update back here.
    session.promote().unwrap();
    assert!(
        session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)),
        "forward rules held: {:?}",
        divergences(&session)
    );

    pipelined_batch(&mut client, "c", 64);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        session.stage(),
        Stage::UpdatedLeader,
        "reverse rules held: {:?}",
        divergences(&session)
    );
    session.shutdown();
}
