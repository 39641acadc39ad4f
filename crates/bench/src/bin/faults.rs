//! Regenerates the §6.2 fault-tolerance experiments as console demos:
//!
//! ```text
//! cargo run -p mvedsua-bench --bin faults            # all three
//! cargo run -p mvedsua-bench --bin faults -- new-code
//! cargo run -p mvedsua-bench --bin faults -- xform
//! cargo run -p mvedsua-bench --bin faults -- timing
//! ```

use std::time::Duration;

use dsu::{FaultPlan, XformFault};
use mvedsua::{Mvedsua, MvedsuaConfig, MvedsuaError, Stage, TimelineEvent};
use servers::{memcached, redis};
use vos::VirtualKernel;
use workload::LineClient;

fn ask(client: &mut LineClient, req: &str) -> String {
    client.send_line(req).expect("send");
    client.recv_line().expect("recv")
}

/// §6.2 "Error in the New Code": the Redis HMGET crash.
fn new_code() {
    println!("== error in the new code (Redis HMGET crash, revision 7fb16bac) ==");
    let options = redis::RedisOptions::new(6379).with_hmget_bug_from(dsu::v("2.0.1"));
    let session = Mvedsua::launch_observed(
        VirtualKernel::new(),
        redis::registry(&options),
        dsu::v("2.0.0"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");
    let mut c =
        LineClient::connect_retry(session.kernel(), 6379, Duration::from_secs(5)).expect("client");
    println!(
        "  SET txt hello           -> {}",
        ask(&mut c, "SET txt hello")
    );
    session
        .update_monitored(
            redis::update_package(&dsu::v("2.0.0"), &dsu::v("2.0.1")),
            Duration::from_millis(150),
        )
        .expect("update");
    println!("  update 2.0.0 -> 2.0.1 installed, monitoring");
    let reply = ask(&mut c, "HMGET txt field");
    println!("  HMGET txt field (bad)   -> {reply}   [leader answers; follower crashes]");
    session
        .timeline()
        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
    println!(
        "  rolled back automatically; serving = {} ; GET txt -> {}",
        session.active_version(),
        ask(&mut c, "GET txt")
    );
    let report = session.shutdown();
    let crashed = report.contains(|e| matches!(e, TimelineEvent::Crashed { variant: 1, .. }));
    let rolled = report.contains(|e| matches!(e, TimelineEvent::RolledBack));
    println!("  result: follower crash detected = {crashed}, rollback = {rolled}\n");
}

/// §6.2 "Error in the State Transformation": Memcached's delayed crash.
fn xform() {
    println!("== error in the state transformation (Memcached, delayed crash) ==");
    let session = Mvedsua::launch_observed(
        VirtualKernel::new(),
        memcached::registry(11211, 4),
        dsu::v("1.2.2"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");
    let mut c =
        LineClient::connect_retry(session.kernel(), 11211, Duration::from_secs(5)).expect("client");
    c.send_line("set k 0 0 5").expect("send");
    c.send_line("hello").expect("send");
    println!(
        "  seed store              -> {}",
        c.recv_line().expect("recv")
    );

    let plan = FaultPlan::with_xform(XformFault::PoisonLater { after_steps: 10 });
    match session.update_monitored(
        memcached::update_package(&dsu::v("1.2.3"), plan),
        Duration::from_secs(10),
    ) {
        Err(MvedsuaError::RolledBack(reason)) => {
            println!("  buggy transformer freed live memory; follower died later:");
            println!("    {reason}");
        }
        other => println!("  unexpected: {other:?}"),
    }
    c.send_line("get k").expect("send");
    println!(
        "  clients never noticed   -> {}",
        c.recv_line().expect("recv")
    );
    // Retry with the fixed transformer succeeds.
    session
        .update_monitored(
            memcached::update_package(&dsu::v("1.2.3"), FaultPlan::none()),
            Duration::from_millis(200),
        )
        .expect("fixed update");
    println!("  retried with the fixed transformer: installed, monitoring\n");
    session.shutdown();
}

/// §6.2 "Timing Error": the LibEvent dispatch-memory divergence,
/// retried until the update lands (paper: max 8 tries, median 2).
fn timing() {
    println!("== timing error (LibEvent dispatch memory, retry until installed) ==");
    let session = Mvedsua::launch_observed(
        VirtualKernel::new(),
        memcached::registry(11212, 4),
        dsu::v("1.2.2"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");
    let mut clients: Vec<LineClient> = (0..2)
        .map(|_| {
            let mut c = LineClient::connect_retry(session.kernel(), 11212, Duration::from_secs(5))
                .expect("client");
            c.timeout = Duration::from_millis(300);
            c
        })
        .collect();
    clients[0].send_line("set k 0 0 1").expect("send");
    clients[0].send_line("x").expect("send");
    clients[0].recv_line().expect("recv");

    let mut stress = |session: &Mvedsua, rounds: usize| -> bool {
        let base = session.timeline().len();
        for _ in 0..rounds {
            for c in clients.iter_mut() {
                let _ = c.send_line("get k");
            }
            for c in clients.iter_mut() {
                loop {
                    match c.recv_line() {
                        Ok(line) if line == "END" => break,
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
            }
            if session.timeline().entries()[base..]
                .iter()
                .any(|e| matches!(e.event, TimelineEvent::Diverged { .. }))
            {
                return true;
            }
        }
        false
    };

    let plan = FaultPlan {
        skip_ephemeral_reset: true,
        ..FaultPlan::none()
    };
    let mut attempts = 0;
    loop {
        attempts += 1;
        match session.update_monitored(
            memcached::update_package(&dsu::v("1.2.3"), plan),
            Duration::from_millis(40),
        ) {
            Err(e) => println!("  attempt {attempts}: rolled back during update ({e})"),
            Ok(()) => {
                if stress(&session, 25) {
                    println!("  attempt {attempts}: diverged under load, rolled back");
                    session
                        .timeline()
                        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
                } else {
                    println!("  attempt {attempts}: survived the load — installed");
                    break;
                }
            }
        }
        if attempts >= 16 {
            println!("  stopped after {attempts} attempts");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("  (paper: always installed eventually; max 8 retries, median 2)\n");
    session.shutdown();
}

fn main() {
    let which = std::env::args().nth(1);
    match which.as_deref() {
        Some("new-code") => new_code(),
        Some("xform") => xform(),
        Some("timing") => timing(),
        _ => {
            new_code();
            xform();
            timing();
        }
    }
}
