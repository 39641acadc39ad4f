//! Redis-specific lifecycle: the 2.0.0 -> 2.0.1 syscall-reorder rules
//! must hold in both directions under sustained load.

use std::time::Duration;

use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent};
use servers::redis;
use workload::{run_kv, KvConfig, KvFlavor};

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
