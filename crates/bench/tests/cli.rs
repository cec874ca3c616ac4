//! Command-line contract of the `repro` binary.

use std::process::Command;

/// Runs `repro` with `args` and holds it to the rejection contract: exit
/// code 2, the reason on stderr, and nothing on stdout — the check must
/// come before any figure is computed or written.
fn assert_rejected(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "args {args:?}");
    assert!(out.stdout.is_empty(), "args {args:?}: nothing may run before the check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(reason), "args {args:?}: stderr: {err}");
}

/// A flag can stop existing (the execution-mode switch did when the live
/// tap became the only resolution path), and a script still passing it must
/// fail loudly rather than have it taken for a figure id.
#[test]
fn unknown_flag_exits_2() {
    assert_rejected(&["table1", "--no-such-flag"], "unknown flag \"--no-such-flag\"");
}

/// An unknown id used to print a note and exit 0 — after every valid id
/// ahead of it had already run.
#[test]
fn unknown_id_exits_2_before_any_work() {
    assert_rejected(&["nosuchfig"], "unknown id \"nosuchfig\"");
    assert_rejected(&["fig2", "nosuchfig", "--csv", "unused"], "unknown id \"nosuchfig\"");
}

/// The trace-tuning flags only mean something with `--trace-dir`; without
/// it they used to be ignored silently.
#[test]
fn trace_flags_without_trace_dir_exit_2() {
    assert_rejected(&["fig2", "--trace-anomalies"], "require --trace-dir");
    assert_rejected(&["fig2", "--trace-cap", "4096"], "require --trace-dir");
}
