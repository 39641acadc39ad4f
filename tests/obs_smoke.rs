//! Observability smoke tier: the flight recorder's end-to-end contract.
//!
//! * Attaching the recorder must not change scenario outcomes or traces.
//! * Two replays of the same seed must produce **byte-identical**
//!   canonical forensics JSON (`RunReport::obs_json`) — the property
//!   that makes a dump attachable to a bug report. Every one of the 200
//!   smoke seeds is replayed twice.
//! * A seed whose plan injects a state-transformation fault must yield a
//!   dump whose divergence point is identified and whose peer-lane event
//!   at the same stream position is flagged.

use harness::engine::{run_plan, RunOptions};
use harness::plan::ScenarioPlan;

fn observed() -> RunOptions {
    RunOptions {
        obs: true,
        ..RunOptions::default()
    }
}

/// Seed 2's sampled plan includes a state-transformation fault that the
/// follower's replay exposes as a divergence (see the scan in
/// `two_replays_dump_identical_divergence_forensics`; asserted below).
const DIVERGING_SEED: u64 = 2;

#[test]
fn recorder_does_not_change_outcomes_or_traces() {
    for seed in [0, DIVERGING_SEED, 7] {
        let plan = ScenarioPlan::from_seed(seed);
        let plain = run_plan(&plan, &RunOptions::default());
        let observed = run_plan(&plan, &observed());
        assert!(plain.ok(), "seed {seed} failed unobserved");
        assert!(observed.ok(), "seed {seed} failed observed");
        assert_eq!(
            plain.render_trace(),
            observed.render_trace(),
            "seed {seed}: attaching the recorder changed the trace"
        );
        assert!(plain.obs_json.is_none(), "recorder off yields no dump");
        assert!(observed.obs_json.is_some(), "recorder on yields a dump");
        assert!(observed.metrics_text.is_some());
    }
}

#[test]
fn two_replays_dump_identical_divergence_forensics() {
    let plan = ScenarioPlan::from_seed(DIVERGING_SEED);
    let first = run_plan(&plan, &observed());
    let second = run_plan(&plan, &observed());
    assert!(first.ok() && second.ok());
    let a = first.obs_json.expect("dump");
    let b = second.obs_json.expect("dump");
    assert_eq!(a, b, "forensics dump is not replay-stable");
    // The injected transformation fault was recorded as a divergence,
    // with expected (leader record) and attempted (follower call) sides.
    assert!(
        a.contains("\"divergence\":{\"variant\":"),
        "divergence missing: {a}"
    );
    assert!(a.contains("\"expected\":"), "{a}");
    assert!(a.contains("\"attempted\":"), "{a}");
    // The peer lane's record at the divergence position is flagged.
    assert!(a.contains("\"at_divergence\":true"), "{a}");
    // Canonical dumps never leak raw timing or role labels.
    assert!(!a.contains("at_nanos"), "{a}");
}

/// Two replays of every smoke seed must dump byte-identical forensics.
/// How long a wait polls before it parks, and whether a reply lands
/// inside the poll, changes only how many idle rounds a server makes
/// (empty `epoll_wait`s, timed-out reads); the dump keeps the semantic
/// stream only, so no such round may appear in it. A run spends most of
/// its time waiting, not computing, so eight threads share the seeds.
#[test]
fn every_smoke_seed_dumps_identical_forensics() {
    const THREADS: u64 = 8;
    let unstable: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|first| {
                scope.spawn(move || {
                    let mut unstable = Vec::new();
                    for seed in (first..200).step_by(THREADS as usize) {
                        let plan = ScenarioPlan::from_seed(seed);
                        let a = run_plan(&plan, &observed()).obs_json.expect("dump");
                        let b = run_plan(&plan, &observed()).obs_json.expect("dump");
                        if a != b {
                            unstable.push(format!("seed {seed}: two replays differ"));
                        }
                        for idle in ["EpollWait", "TimedOut", "WouldBlock", "at_nanos"] {
                            if a.contains(idle) {
                                unstable.push(format!("seed {seed}: {idle} in the dump"));
                            }
                        }
                    }
                    unstable
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker"))
            .collect()
    });
    assert!(unstable.is_empty(), "{unstable:#?}");
}

#[test]
fn planted_bug_failure_exports_violations_in_the_dump() {
    let options = RunOptions {
        planted_model_bug: true,
        obs: true,
        ..RunOptions::default()
    };
    let plan = ScenarioPlan::from_seed(0); // seed 0's trace contains GET hits
    let report = run_plan(&plan, &options);
    assert!(!report.ok(), "planted oracle bug went undetected");
    let json = report.obs_json.expect("dump");
    assert!(json.contains("\"violations\":[\""), "{json}");
    assert!(json.contains("reply mismatch"), "{json}");
    let text = report.obs_text.expect("text dump");
    assert!(text.contains("=== lane:"), "{text}");
    // The session timeline heads the text dump.
    assert!(
        text.contains("Launched") && text.contains("final stage"),
        "{text}"
    );
    // The metrics are taken after shutdown, so they count every entry
    // the timeline shows, `SessionShutdown` included.
    let timeline_entries = text
        .lines()
        .take_while(|l| !l.starts_with("final stage"))
        .filter(|l| l.starts_with('['))
        .count();
    let metrics = report.metrics_text.expect("metrics");
    assert!(
        metrics.contains(&format!("session.timeline_entries {timeline_entries}\n")),
        "{timeline_entries} timeline entries in the dump:\n{text}\n{metrics}"
    );
}
