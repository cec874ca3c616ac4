//! Command-line contract of the `repro` binary.

use std::process::Command;

/// A flag `repro` does not know must stop the run with exit code 2 before
/// any figure is computed. A flag can stop existing (the execution-mode
/// switch did when the live tap became the only resolution path), and a
/// script still passing it must fail loudly rather than have it taken for
/// a figure id.
#[test]
fn unknown_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--no-such-flag"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the flag check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag \"--no-such-flag\""), "stderr: {err}");
}
