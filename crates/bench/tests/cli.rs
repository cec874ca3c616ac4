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

/// `--trace-cap 0` used to run a one-event ring (the recorder rounds the
/// capacity up) and report `"ring_capacity":1` in every dump.
#[test]
fn zero_trace_cap_exits_2() {
    let dir = std::env::temp_dir().join(format!("vstream-cli-cap0-{}", std::process::id()));
    assert_rejected(
        &["fig2", "--trace-dir", dir.to_str().unwrap(), "--trace-cap", "0"],
        "invalid value \"0\" for --trace-cap",
    );
    assert!(!dir.exists(), "a rejected run must not create its trace directory");
}

/// The planner's flags used to be ignored on figure runs (`repro fig1
/// --viewers 5 --max-shards 2` exited 0), and `--max-shards` without
/// `--ledger` computed its shards, threw them away and claimed they were
/// checkpointed.
#[test]
fn campaign_flags_without_campaign_or_ledger_exit_2() {
    for flag in [
        &["--viewers", "5"][..],
        &["--packet-sessions", "8"],
        &["--shard-size", "4"],
        &["--window", "60"],
        &["--ledger", "unused"],
        &["--max-shards", "2"],
    ] {
        let args: Vec<&str> = ["fig1"].iter().chain(flag).copied().collect();
        assert_rejected(&args, "require 'campaign'");
    }
    assert_rejected(&["fig1", "--viewers", "5", "--max-shards", "2"], "require 'campaign'");
    assert_rejected(&["campaign", "--viewers", "10000", "--max-shards", "1"], "--max-shards requires --ledger");
}

/// `--window 397` used to simulate every shard and then panic (exit 101):
/// the report's steady state starts ceil(360 x 1.1) = 397 s in (the f64
/// product is just above 396), and the window was checked against it only
/// after the shard loop.
#[test]
fn campaign_window_shorter_than_the_warm_up_exits_2_before_any_shard() {
    let ledger = std::env::temp_dir().join(format!("vstream-cli-window-{}", std::process::id()));
    let ledger_arg = ledger.to_str().unwrap();
    for window in ["0", "396", "397"] {
        assert_rejected(
            &["campaign", "--viewers", "10000", "--window", window, "--ledger", ledger_arg],
            "too short for a steady state",
        );
    }
    assert!(!ledger.exists(), "a rejected campaign must not create its ledger directory");
}

/// `--n 0` used to exit 0 with `NaN` rows (`ext-stalls`) and `[inf, -inf]`
/// CDFs (`fig4` and the other sampled figures); it is rejected before the
/// CSV directory is created.
#[test]
fn zero_sample_size_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("vstream-cli-n0-{}", std::process::id()));
    assert_rejected(&["fig4", "--n", "0"], "invalid value \"0\" for --n");
    assert_rejected(
        &["ext-stalls", "--n", "0", "--csv", dir.to_str().unwrap()],
        "invalid value \"0\" for --n",
    );
    assert!(!dir.exists(), "a rejected run must not create its CSV directory");
}

/// An ablation harness is bracketed by the flight recorder like any other
/// session: `ext-cc` dumps its Reno and CUBIC runs (one seed, so the stem
/// carries the controller), the dump set and bytes do not depend on
/// `--jobs`, and the flag leaves stdout alone.
#[test]
fn harness_sessions_dump_identically_at_any_jobs() {
    let root = std::env::temp_dir().join(format!("vstream-cli-ext-cc-{}", std::process::id()));
    let run = |extra: &[&str]| -> Vec<u8> {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("ext-cc")
            .args(extra)
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "args {extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let dump_tree = |name: &str, jobs: &str| -> (Vec<u8>, Vec<(String, Vec<u8>)>) {
        let dir = root.join(name);
        let stdout = run(&["--trace-dir", dir.to_str().expect("utf-8 temp path"), "--jobs", jobs]);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("dump directory")
            .map(|e| {
                let e = e.expect("directory entry");
                (e.file_name().into_string().expect("utf-8 name"), std::fs::read(e.path()).expect("dump"))
            })
            .collect();
        files.sort();
        (stdout, files)
    };
    let plain = run(&[]);
    let (stdout_serial, serial) = dump_tree("a", "1");
    let (stdout_pool, pool) = dump_tree("b", "4");
    std::fs::remove_dir_all(&root).ok();

    let names: Vec<&str> = serial.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "ext-cc-cubic-s2026.trace.json",
            "ext-cc-cubic-s2026.txt",
            "ext-cc-reno-s2026.trace.json",
            "ext-cc-reno-s2026.txt",
        ]
    );
    assert!(serial == pool, "dump files differ between --jobs 1 and --jobs 4");
    assert_eq!(plain, stdout_serial, "--trace-dir changed stdout");
    assert_eq!(plain, stdout_pool, "--trace-dir --jobs 4 changed stdout");
}
