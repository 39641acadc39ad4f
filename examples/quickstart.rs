//! Quickstart: dynamically update the paper's running-example key-value
//! store (Figure 1) with MVEDSUA — zero downtime, monitored, reversible.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use mvedsua_suite::dsu::{self, FaultPlan};
use mvedsua_suite::mvedsua::{Mvedsua, MvedsuaConfig, Stage};
use mvedsua_suite::servers::kvstore;
use mvedsua_suite::vos::VirtualKernel;
use mvedsua_suite::workload::LineClient;

fn ask(client: &mut LineClient, req: &str) -> String {
    client.send_line(req).expect("send");
    let reply = client.recv_line().expect("recv");
    println!("    -> {req}\n    <- {reply}");
    reply
}

fn main() {
    const PORT: u16 = 4000;

    println!("== boot v1 under MVEDSUA (single-leader stage) ==");
    let session = Mvedsua::launch_observed(
        VirtualKernel::new(),
        kvstore::registry(PORT),
        dsu::v(kvstore::V1),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");
    let mut client =
        LineClient::connect_retry(session.kernel(), PORT, Duration::from_secs(5)).expect("connect");

    ask(&mut client, "PUT balance 1000");
    ask(&mut client, "GET balance");

    println!("\n== dynamic update v1 -> v2 (typed values), leader keeps serving ==");
    session
        .update_monitored(
            kvstore::update_package(FaultPlan::none()),
            Duration::from_millis(200),
        )
        .expect("update");
    println!("    stage: {}", session.stage());
    assert_eq!(session.stage(), Stage::OutdatedLeader);

    println!("\n== outdated-leader stage: old semantics enforced, both versions checked ==");
    ask(&mut client, "PUT rate 7");
    ask(&mut client, "GET rate");
    println!("    (the Figure 4 rules make BOTH versions reject the new commands)");
    ask(&mut client, "PUT-number balance 1001");
    ask(&mut client, "TYPE balance");

    println!("\n== operator promotes the new version ==");
    session.promote().expect("promote");
    session
        .timeline()
        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5));
    println!(
        "    stage: {}, serving: v{}",
        session.stage(),
        session.active_version()
    );
    ask(&mut client, "PUT-string motto updates");
    ask(&mut client, "GET motto");

    println!("\n== operator commits; old version retires ==");
    session.finalize().expect("finalize");
    session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
    println!("    stage: {}", session.stage());
    ask(&mut client, "TYPE balance");
    ask(&mut client, "PUT-number debt 17");
    ask(&mut client, "GET debt");
    ask(&mut client, "GET balance");

    println!("\n== session timeline ==");
    let report = session.shutdown();
    print!("{}", report.render());
}
