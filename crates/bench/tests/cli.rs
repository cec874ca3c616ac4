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

/// A window beyond the 30-day bound used to crash: `--window 100000000000`
/// aborted on a 800 GB timeline allocation (exit 134), and `u64::MAX`
/// wrapped the horizon, simulated every shard and then panicked (exit 101).
#[test]
fn campaign_window_beyond_the_bound_exits_2_before_any_shard() {
    let ledger = std::env::temp_dir().join(format!("vstream-cli-window-max-{}", std::process::id()));
    let ledger_arg = ledger.to_str().unwrap();
    for window in ["2592001", "100000000000", "18446744073709551615"] {
        assert_rejected(
            &["campaign", "--viewers", "10000", "--window", window, "--ledger", ledger_arg],
            "exceeds the 2592000 s (30-day) bound",
        );
    }
    assert!(!ledger.exists(), "a rejected campaign must not create its ledger directory");
}

/// A temp directory holding one regular file, `file`: an output path
/// through it cannot be created.
fn regular_file(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("vstream-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("temp dir");
    let file = root.join("file");
    std::fs::write(&file, b"not a directory").expect("temp file");
    (root, file)
}

/// An unusable output location used to be found only when written: `--csv`
/// and `--trace-dir` below a regular file panicked (exit 101) before the
/// first session, and `--metrics` did so after simulating the whole
/// selection. Each now exits 2 before any session runs.
#[test]
fn unusable_figure_outputs_exit_2_before_any_session() {
    let (root, file) = regular_file("outputs");
    let under = file.join("out");
    let under = under.to_str().unwrap();
    assert_rejected(&["fig1", "--csv", under], "cannot create --csv output");
    assert_rejected(&["fig1", "--trace-dir", under], "cannot create --trace-dir output");
    assert_rejected(&["fig1", "--metrics", under], "cannot create --metrics output");
    std::fs::remove_dir_all(&root).ok();
}

/// `repro campaign --ledger F`, with `F` a regular file, used to panic
/// (exit 101) creating the checkpoint directory.
#[test]
fn unusable_campaign_ledger_exits_2_before_any_shard() {
    let (root, file) = regular_file("ledger");
    assert_rejected(
        &["campaign", "--viewers", "10000", "--ledger", file.to_str().unwrap()],
        "cannot create --ledger output",
    );
    assert_eq!(std::fs::read(&file).expect("file kept"), b"not a directory");
    std::fs::remove_dir_all(&root).ok();
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

/// A dump's QoE footer describes the whole session, not the ring's tail: a
/// 64-event ring overflows on every `fig4` session, and each footer still
/// equals that session's `qoe_sessions.csv` row. The footer used to be
/// folded from the ring, so it read `startup_ns=-1` and the few blocks
/// requested in the last 64 events.
#[test]
fn dump_footer_matches_the_qoe_row_after_ring_overflow() {
    let root = std::env::temp_dir().join(format!("vstream-cli-footer-{}", std::process::id()));
    let (csv, dumps) = (root.join("c"), root.join("d"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig4", "--n", "1", "--csv", csv.to_str().unwrap()])
        .args(["--trace-dir", dumps.to_str().unwrap(), "--trace-cap", "64"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = std::fs::read_to_string(csv.join("qoe_sessions.csv")).expect("qoe table");
    let texts: Vec<String> = std::fs::read_dir(&dumps)
        .expect("dump directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| std::fs::read_to_string(p).expect("text dump"))
        .collect();
    std::fs::remove_dir_all(&root).ok();

    // Milliseconds with 3 decimals as integer microseconds.
    let us = |ms: &str| -> u64 { ms.replace('.', "").parse().expect("fixed-point ms") };
    let header: Vec<&str> = table.lines().next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|&h| h == name).expect("column");
    let (seed, startup, stalls, completed) =
        (col("seed"), col("startup_ms"), col("stalls"), col("stalls_completed"));
    let (total, max, blocks) = (col("stall_total_ms"), col("stall_max_ms"), col("blocks"));
    assert!(!texts.is_empty(), "fig4 dumps its sessions");
    for text in &texts {
        let session = text.lines().next().expect("session line");
        let events = text.lines().nth(1).expect("events line");
        assert!(!events.contains(" 0 overwritten"), "the ring must overflow: {events}");
        let footer = text.lines().last().expect("footer").strip_prefix("# qoe: ").expect("footer");
        let f: Vec<i64> = footer
            .split(' ')
            .map(|kv| kv.split_once('=').expect("key=value").1.parse().expect("integer"))
            .collect();
        assert_eq!(f.len(), 6, "{footer}");
        let row: Vec<&str> = table
            .lines()
            .map(|l| l.split(',').collect::<Vec<_>>())
            .find(|r| session.contains(&format!("-s{}-", r[seed])))
            .unwrap_or_else(|| panic!("no QoE row for {session}"));
        let row_startup = (!row[startup].is_empty()).then(|| us(row[startup]));
        assert_eq!((f[0] >= 0).then(|| f[0] as u64 / 1_000), row_startup, "{session}: startup");
        assert_eq!(f[1], row[stalls].parse::<i64>().unwrap(), "{session}: stalls");
        assert_eq!(f[2], row[completed].parse::<i64>().unwrap(), "{session}: completed");
        assert_eq!(f[3] as u64 / 1_000, us(row[total]), "{session}: stall total");
        assert_eq!(f[4] as u64 / 1_000, us(row[max]), "{session}: stall max");
        assert_eq!(f[5], row[blocks].parse::<i64>().unwrap(), "{session}: blocks");
    }
}
