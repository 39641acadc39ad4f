//! Rides the whole Vsftpd release train — 13 dynamic updates,
//! 1.1.0 → 2.0.6 — with one long-lived FTP session that never
//! disconnects (the workload rolling upgrades cannot serve, §1.1).
//!
//! Prints the per-pair rewrite-rule counts, reproducing Table 1.
//!
//! ```text
//! cargo run --example vsftpd_release_train
//! ```

use std::time::Duration;

use mvedsua_suite::dsu;
use mvedsua_suite::mvedsua::{Mvedsua, MvedsuaConfig, Stage};
use mvedsua_suite::servers::vsftpd;
use mvedsua_suite::vos::VirtualKernel;
use mvedsua_suite::workload::LineClient;

fn main() {
    const PORT: u16 = 21;

    let kernel = VirtualKernel::new();
    kernel
        .fs()
        .write_file("/motd.txt", b"do not interrupt the session")
        .expect("seed fs");

    let session = Mvedsua::launch_observed(
        kernel,
        vsftpd::registry(PORT),
        dsu::v("1.1.0"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");

    let mut client =
        LineClient::connect_retry(session.kernel(), PORT, Duration::from_secs(5)).expect("connect");
    println!("banner: {}", client.recv_line().expect("banner"));
    client.send_line("USER demo").expect("send");
    client.recv_line().expect("recv");
    client.send_line("PASS demo").expect("send");
    println!("login:  {}", client.recv_line().expect("recv"));

    println!("\n{:<18} {:>6}   session activity", "update", "rules");
    for (from, to) in vsftpd::version_pairs() {
        let rules = vsftpd::updates::rule_count(&from, &to);
        session
            .update_monitored(
                vsftpd::update_package(&from, &to),
                Duration::from_millis(40),
            )
            .unwrap_or_else(|e| panic!("{from} -> {to}: {e}"));

        // Keep the session busy while both versions are checked.
        client.send_line("RETR motd.txt").expect("send");
        let data = client
            .recv_until(b"226 Transfer complete.\r\n")
            .expect("download");

        session.promote().expect("promote");
        session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5));
        session.finalize().expect("finalize");
        session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));

        println!(
            "{from:>7} -> {to:<7} {rules:>5}   downloaded {} bytes mid-update",
            data.len()
        );
    }

    println!(
        "\nsame TCP session, now served by vsftpd {} — 13 updates later",
        session.active_version()
    );
    client.send_line("SYST").expect("send");
    println!("SYST:  {}", client.recv_line().expect("recv"));
    client.send_line("MDTM motd.txt").expect("send");
    println!("MDTM:  {}", client.recv_line().expect("recv"));
    client.send_line("QUIT").expect("send");
    println!("QUIT:  {}", client.recv_line().expect("recv"));

    session.shutdown();
}
