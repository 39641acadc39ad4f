//! Memcached under MVEDSUA with a live workload: the full 1.2.2 → 1.2.3
//! → 1.2.4 chain, promotion under load, and the version-string
//! divergence the monitoring workload must avoid.

use std::time::{Duration, Instant};

use dsu::FaultPlan;
use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent};
use servers::memcached;
use workload::{run_kv, KvConfig, KvFlavor, LineClient};

fn launch(port: u16) -> Mvedsua {
    Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        memcached::registry(port, 4),
        dsu::v("1.2.2"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap()
}

#[test]
fn two_chained_updates_under_load() {
    let port = 8000;
    let session = launch(port);
    let mut config = KvConfig::new(port, KvFlavor::Memcached);
    config.clients = 2;
    config.duration = Duration::from_millis(300);

    for to in ["1.2.3", "1.2.4"] {
        let report = run_kv(session.kernel(), &config);
        assert!(report.ops > 100, "{}", report.summary());
        session
            .update_monitored(
                memcached::update_package(&dsu::v(to), FaultPlan::none()),
                Duration::from_millis(100),
            )
            .unwrap();
        // Load while monitoring.
        let report = run_kv(session.kernel(), &config);
        assert!(report.ops > 100, "{}", report.summary());
        assert_eq!(session.stage(), Stage::OutdatedLeader, "-> {to}");
        // Promote while the load continues on another thread.
        let kernel = session.kernel();
        let bg_config = config.clone();
        let bg = std::thread::spawn(move || run_kv(kernel, &bg_config));
        session.promote().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(10)));
        session.finalize().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(10)));
        let report = bg.join().unwrap();
        assert!(report.ops > 100, "{}", report.summary());
        assert_eq!(session.active_version(), dsu::v(to));
    }
    let report = session.shutdown();
    assert!(!report.contains(|e| matches!(e, TimelineEvent::RolledBack)));
}

#[test]
fn cache_contents_survive_the_update() {
    let port = 8001;
    let session = launch(port);
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    c.send_line("set greeting 7 0 5").unwrap();
    c.send_line("hello").unwrap();
    assert_eq!(c.recv_line().unwrap(), "STORED");

    session
        .update_monitored(
            memcached::update_package(&dsu::v("1.2.3"), FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));

    // Same connection, same cache, new version — flags included.
    c.send_line("get greeting").unwrap();
    assert_eq!(c.recv_line().unwrap(), "VALUE greeting 7 5");
    assert_eq!(c.recv_line().unwrap(), "hello");
    assert_eq!(c.recv_line().unwrap(), "END");
    c.send_line("version").unwrap();
    assert_eq!(c.recv_line().unwrap(), "VERSION 1.2.3");
    session.shutdown();
}

#[test]
fn version_command_is_an_inherent_divergence() {
    // The paper's monitoring workloads never issue `version` — here is
    // why: the reply embeds the release string, so the two versions
    // genuinely disagree and MVE (correctly) kills the update.
    let port = 8002;
    let session = launch(port);
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    session
        .update_monitored(
            memcached::update_package(&dsu::v("1.2.3"), FaultPlan::none()),
            Duration::from_millis(100),
        )
        .unwrap();
    c.send_line("version").unwrap();
    assert_eq!(c.recv_line().unwrap(), "VERSION 1.2.2", "old version leads");
    assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
        es.iter()
            .any(|e| matches!(e.event, TimelineEvent::Diverged { .. }))
    }));
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    assert_eq!(session.active_version(), dsu::v("1.2.2"));
    session.shutdown();
}

#[test]
fn quiescence_defers_the_fork_past_a_mid_set() {
    // A connection stuck half-way through a storage command blocks the
    // update (timing safety); completing the command unblocks it.
    let port = 8003;
    let session = launch(port);
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    c.send_line("set k 0 0 3").unwrap(); // first half only

    // Wait until the leader has read that line: it checks for an update
    // only between steps, so from here on it holds the pending set.
    let sent = "set k 0 0 3\r\n".len() as u64;
    let deadline = Instant::now() + Duration::from_secs(5);
    while session.metrics().counter("syscalls.bytes_read") < sent {
        assert!(Instant::now() < deadline, "the leader never read the line");
        std::thread::sleep(Duration::from_millis(1));
    }

    session
        .request_update(memcached::update_package(
            &dsu::v("1.2.3"),
            FaultPlan::none(),
        ))
        .unwrap();
    // The fork must not happen while the set is pending.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(session.stage(), Stage::SingleLeader, "update deferred");
    assert!(!session
        .timeline()
        .entries()
        .iter()
        .any(|e| { matches!(e.event, TimelineEvent::Forked { .. }) }));

    // Complete the command: the update point becomes safe and the fork
    // goes through.
    c.send_line("abc").unwrap();
    assert_eq!(c.recv_line().unwrap(), "STORED");
    assert!(session.timeline().wait_for(Duration::from_secs(5), |es| {
        es.iter()
            .any(|e| matches!(e.event, TimelineEvent::Forked { .. }))
    }));
    assert_eq!(session.stage(), Stage::OutdatedLeader);
    session.shutdown();
}
