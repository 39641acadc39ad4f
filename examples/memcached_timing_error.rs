//! The §5.3/§6.2 Memcached timing error, live: skipping the leader's
//! LibEvent reset at fork time makes the two variants dispatch ready
//! connections in different orders — a divergence MVEDSUA catches and
//! rolls back. Retrying (the paper needed a median of 2 tries) or
//! keeping the reset callback both lead to a successful update.
//!
//! ```text
//! cargo run --example memcached_timing_error
//! ```

use std::time::Duration;

use mvedsua_suite::dsu::{self, FaultPlan};
use mvedsua_suite::mvedsua::{Mvedsua, MvedsuaConfig, Stage, TimelineEvent};
use mvedsua_suite::servers::memcached;
use mvedsua_suite::vos::VirtualKernel;
use mvedsua_suite::workload::LineClient;

fn connect(session: &Mvedsua, port: u16) -> LineClient {
    let mut c =
        LineClient::connect_retry(session.kernel(), port, Duration::from_secs(5)).expect("connect");
    c.timeout = Duration::from_millis(400);
    c
}

/// Fires requests on both connections so they are ready in the same
/// event-loop round; returns true if the session recorded a divergence.
fn stress(session: &Mvedsua, a: &mut LineClient, b: &mut LineClient, rounds: usize) -> bool {
    let base = session.timeline().len();
    for _ in 0..rounds {
        let _ = a.send_line("get k");
        let _ = b.send_line("get k");
        for client in [&mut *a, &mut *b] {
            loop {
                match client.recv_line() {
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
}

fn main() {
    const PORT: u16 = 11211;
    let session = Mvedsua::launch_observed(
        VirtualKernel::new(),
        memcached::registry(PORT, 4),
        dsu::v("1.2.2"),
        MvedsuaConfig::default(),
        obs::Obs::disabled(),
    )
    .expect("launch");
    let mut c1 = connect(&session, PORT);
    let mut c2 = connect(&session, PORT);

    c1.send_line("set k 0 0 5").expect("send");
    c1.send_line("hello").expect("send");
    println!("seed: {}", c1.recv_line().expect("recv"));

    // Advance the leader's round-robin memory off zero.
    stress(&session, &mut c2, &mut c1, 3);

    println!("\n== buggy update: reset_ephemeral skipped (paper's timing error) ==");
    let mut attempts = 0;
    loop {
        attempts += 1;
        let faulty = FaultPlan {
            skip_ephemeral_reset: true,
            ..FaultPlan::none()
        };
        match session.update_monitored(
            memcached::update_package(&dsu::v("1.2.3"), faulty),
            Duration::from_millis(40),
        ) {
            Err(e) => {
                println!("  attempt {attempts}: rolled back during update ({e})");
            }
            Ok(()) => {
                if stress(&session, &mut c1, &mut c2, 25) {
                    println!("  attempt {attempts}: diverged under load, rolled back");
                    session
                        .timeline()
                        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
                } else {
                    println!("  attempt {attempts}: survived the load — installed");
                    session.promote().expect("promote");
                    session
                        .timeline()
                        .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5));
                    session.finalize().expect("finalize");
                    session
                        .timeline()
                        .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
                    break;
                }
            }
        }
        if attempts >= 16 {
            println!("  giving up after {attempts} attempts (unlucky run)");
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    println!(
        "update installed after {attempts} attempt(s); serving memcached {}",
        session.active_version()
    );

    println!("\n== control: with the reset callback the same load never diverges ==");
    if session.active_version() == dsu::v("1.2.3") {
        session
            .update_monitored(
                memcached::update_package(&dsu::v("1.2.4"), FaultPlan::none()),
                Duration::from_millis(40),
            )
            .expect("clean update");
        let diverged = stress(&session, &mut c1, &mut c2, 25);
        println!("  diverged: {diverged}");
        session.promote().expect("promote");
        session
            .timeline()
            .wait_for_stage(Stage::UpdatedLeader, Duration::from_secs(5));
        session.finalize().expect("finalize");
        session
            .timeline()
            .wait_for_stage(Stage::SingleLeader, Duration::from_secs(5));
    }
    println!("final version: {}", session.active_version());
    session.shutdown();
}
