//! End-to-end tests of the `harness lint` subcommand: exit codes and
//! output over the embedded corpus and the planted fixture files.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/rules")
        .join(name)
}

fn harness_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("lint")
        .args(args)
        .output()
        .expect("spawn harness")
}

#[test]
fn corpus_lints_clean_and_exits_zero() {
    let out = harness_lint(&["--corpus"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("kvstore/fwd"), "{stdout}");
    assert!(stdout.contains("redis/fwd"), "{stdout}");
    assert!(stdout.contains("vsftpd/"), "{stdout}");
}

#[test]
fn planted_unknown_event_fixture_fails() {
    let path = fixture("bad_unknown_event.rules");
    let out = harness_lint(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "planted fixture must fail: {stdout}");
    assert!(stdout.contains("RC0201"), "{stdout}");
    assert!(stdout.contains("RC0101"), "{stdout}");
}

#[test]
fn planted_unreachable_fixture_fails_with_json() {
    let path = fixture("bad_unreachable.rules");
    let out = harness_lint(&["--json", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("\"code\":\"RC0501\""), "{stdout}");
    assert!(stdout.contains("\"target\""), "{stdout}");
}

#[test]
fn planted_overflow_fixture_fails_with_exit_1_not_a_panic() {
    let path = fixture("bad_overflow.rules");
    let out = harness_lint(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("RC0401"), "{stdout}");
}

#[test]
fn clean_fixture_exits_zero() {
    let path = fixture("good_wording.rules");
    let out = harness_lint(&[path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn unknown_flag_exits_with_usage() {
    let out = harness_lint(&["--nope"]);
    assert_eq!(out.status.code(), Some(2));
}
