//! Command-line contract of the `repro` binary: usage errors exit 2
//! before any experiment runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

fn assert_usage_error(args: &[&str], stderr_has: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(stderr_has), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} printed figure data");
}

#[test]
fn full_with_explicit_caps_is_a_usage_error() {
    // `--full` used to override the caps silently, whichever came first.
    for args in [
        &["fig15", "--max-scenarios", "50", "--full"][..],
        &["fig15", "--full", "--max-scenarios", "50"],
        &["--full", "fig15", "--max-pairs", "4"],
        &["fig15", "--max-pairs", "4", "--full", "--max-scenarios", "50"],
    ] {
        assert_usage_error(args, "--full");
    }
}

#[test]
fn retired_experiments_are_unknown() {
    for name in ["slo", "warm_restart", "bench-check", "lp_basis"] {
        assert_usage_error(&[name], "unknown experiment");
    }
}

#[test]
fn retired_flags_are_unknown() {
    for (flag, value) in
        [("--serve", "127.0.0.1:7077"), ("--baseline", "."), ("--tolerance", "0.1")]
    {
        assert_usage_error(&["motivation", flag, value], "unknown argument");
    }
}

#[test]
fn motivation_runs() {
    let out = repro(&["motivation", "--quiet"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty());
}
