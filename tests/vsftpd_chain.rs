//! Chains all 13 Vsftpd updates (Table 1) through MVEDSUA with a live
//! FTP session, exercising every generated rule set.

use std::time::Duration;

use mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent};
use servers::vsftpd;
use workload::LineClient;

fn ftp_session(session: &Mvedsua, port: u16) -> LineClient {
    let mut c = LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).unwrap();
    let _banner = c.recv_line().unwrap();
    c.send_line("USER test").unwrap();
    c.recv_line().unwrap();
    c.send_line("PASS test").unwrap();
    assert_eq!(c.recv_line().unwrap(), "230 Login successful.");
    c
}

fn retr(c: &mut LineClient, file: &str) -> Vec<u8> {
    c.send_line(&format!("RETR {file}")).unwrap();
    c.recv_until(b"226 Transfer complete.\r\n").unwrap()
}

#[test]
fn thirteen_updates_with_live_session() {
    let port = 7700;
    let kernel = vos::VirtualKernel::new();
    kernel.fs().write_file("/motd.txt", b"welcome").unwrap();
    let session = Mvedsua::launch_observed(
        kernel,
        vsftpd::registry(port),
        dsu::v("1.1.0"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = ftp_session(&session, port);

    for (from, to) in vsftpd::version_pairs() {
        assert_eq!(session.active_version(), from, "before {from} -> {to}");
        session
            .update_monitored(
                vsftpd::update_package(&from, &to),
                Duration::from_millis(50),
            )
            .unwrap_or_else(|e| panic!("{from} -> {to}: {e}"));

        // Backward-compatible traffic while both versions run: the
        // generated rules absorb all wording/command divergences.
        let got = retr(&mut c, "motd.txt");
        assert!(String::from_utf8_lossy(&got).contains("welcome"));
        c.send_line("SIZE motd.txt").unwrap();
        assert_eq!(c.recv_line().unwrap(), "213 7");

        // Let the follower catch up, confirm it survived, then promote
        // and commit.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            session.stage(),
            Stage::OutdatedLeader,
            "{from} -> {to}: follower must survive the monitored traffic"
        );
        session.promote().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
        // Traffic under the new leader, reverse rules active.
        let got = retr(&mut c, "motd.txt");
        assert!(String::from_utf8_lossy(&got).contains("welcome"));
        session.finalize().unwrap();
        assert!(session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
        assert_eq!(session.active_version(), to);
    }

    assert_eq!(session.active_version(), dsu::v("2.0.6"));
    // The session survived 13 dynamic updates; the newest features work.
    c.send_line("MDTM motd.txt").unwrap();
    assert_eq!(c.recv_line().unwrap(), "213 20190413000000");
    let report = session.shutdown();
    assert!(!report.contains(|e| matches!(e, TimelineEvent::RolledBack)));
    let forks = report
        .entries
        .iter()
        .filter(|e| matches!(e.event, TimelineEvent::Forked { .. }))
        .count();
    assert_eq!(forks, 13);
}

#[test]
fn new_command_rejected_identically_by_both_versions_under_rules() {
    // During 1.1.3 -> 1.2.0 monitoring, STOU (new in 1.2.0) must be
    // rejected by both versions thanks to the Figure 5 redirect.
    let port = 7701;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        vsftpd::registry(port),
        dsu::v("1.1.3"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = ftp_session(&session, port);
    session
        .update_monitored(
            vsftpd::update_package(&dsu::v("1.1.3"), &dsu::v("1.2.0")),
            Duration::from_millis(100),
        )
        .unwrap();

    c.send_line("STOU").unwrap();
    assert_eq!(c.recv_line().unwrap(), "500 Unknown command.");
    // PWD is also rewritten (concise leader reply -> verbose follower).
    c.send_line("PWD").unwrap();
    assert_eq!(c.recv_line().unwrap(), "257 \"/\"");
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(session.stage(), Stage::OutdatedLeader, "no divergence");

    // After promotion + finalize, STOU works and creates a real file.
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));
    session.finalize().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5)));
    c.send_line("STOU").unwrap();
    assert_eq!(c.recv_line().unwrap(), "226 Transfer complete: unique.1.");
    assert!(session.kernel().fs().exists("/unique.1"));
    session.shutdown();
}

#[test]
fn stou_under_new_leader_is_tolerated_by_rev_rules() {
    // §5.1's "happy coincidence": with the new version leading, STOU's
    // whole handling sequence maps to the old follower's rejection, and
    // later downloads of the created file agree on both sides.
    let port = 7702;
    let session = Mvedsua::launch_observed(
        vos::VirtualKernel::new(),
        vsftpd::registry(port),
        dsu::v("1.1.3"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .unwrap();
    let mut c = ftp_session(&session, port);
    session
        .update_monitored(
            vsftpd::update_package(&dsu::v("1.1.3"), &dsu::v("1.2.0")),
            Duration::from_millis(100),
        )
        .unwrap();
    session.promote().unwrap();
    assert!(session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5)));

    c.send_line("STOU").unwrap();
    assert_eq!(c.recv_line().unwrap(), "226 Transfer complete: unique.1.");
    // Old follower saw the mapped rejection; both stay alive.
    let got = retr(&mut c, "unique.1");
    assert!(String::from_utf8_lossy(&got).contains("(0 bytes)"));
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(session.stage(), Stage::UpdatedLeader, "follower survived");
    session.finalize().unwrap();
    session.shutdown();
}
