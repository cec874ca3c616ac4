//! Campaign-mode integration: byte-identical resume across interrupts and
//! worker counts, the hybrid cross-validation gate, and ledger robustness.

use std::fs;
use std::path::PathBuf;

use vstream::campaign::{run_campaign, CampaignOptions, CampaignSpec, CampaignStrategy};
use vstream_net::NetworkProfile;

/// A campaign small enough for debug-mode CI but with several shards, all
/// three strategies, and two vantage points.
fn small_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        viewers: 50_000,
        packet_sessions: 9,
        shard_size: 3,
        seed,
        window_secs: 240,
        encoding_bps: (0.4e6, 0.8e6),
        duration_secs: (20.0, 40.0),
        strategy_mix: vec![
            (CampaignStrategy::ShortCycles, 3),
            (CampaignStrategy::LongCycles, 2),
            (CampaignStrategy::Bulk, 1),
        ],
        profile_mix: vec![(NetworkProfile::Research, 1), (NetworkProfile::Residence, 1)],
        scales: vec![10_000],
        tol_mean: 0.9,
        tol_var: 0.9,
    }
}

/// Fresh scratch directory for one test's ledger.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstream-campaign-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch ledger dir");
    dir
}

/// Renders everything a campaign emits — the text report and every CSV —
/// so equality means byte-identical user-visible output.
fn render(report: &vstream::campaign::CampaignReport) -> String {
    let mut s = report.to_text();
    for t in &report.tables {
        s.push_str(&t.to_csv());
    }
    s
}

#[test]
fn resume_is_byte_identical_across_interrupts_and_jobs() {
    for seed in [11, 71] {
        let spec = small_spec(seed);
        let baseline = render(
            &run_campaign(
                &spec,
                &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
            )
            .expect("uninterrupted run"),
        );

        // Same campaign, eight workers, no ledger.
        let wide = render(
            &run_campaign(
                &spec,
                &CampaignOptions { jobs: 8, ..CampaignOptions::default() },
            )
            .expect("uninterrupted run"),
        );
        assert_eq!(baseline, wide, "seed {seed}: output depends on --jobs");

        // Interrupt after every single shard, then finish: three runs at
        // jobs 8 against one ledger, each computing exactly one shard.
        let dir = scratch_dir(&format!("resume-{seed}"));
        let interrupted = CampaignOptions {
            jobs: 8,
            ledger_dir: Some(dir.clone()),
            max_shards: Some(1),
            ..CampaignOptions::default()
        };
        assert!(run_campaign(&spec, &interrupted).is_none(), "first shard-budget run must stop early");
        assert!(run_campaign(&spec, &interrupted).is_none(), "second shard-budget run must stop early");
        let resumed = run_campaign(&spec, &interrupted)
            .expect("third run holds the final shard and completes");
        assert_eq!(baseline, render(&resumed), "seed {seed}: resumed output differs");

        // A fourth run finds every shard checkpointed and recomputes none.
        let replay = run_campaign(
            &spec,
            &CampaignOptions {
                jobs: 1,
                ledger_dir: Some(dir.clone()),
                max_shards: Some(0),
                ..CampaignOptions::default()
            },
        )
        .expect("fully-checkpointed campaign needs no shard budget");
        assert_eq!(baseline, render(&replay), "seed {seed}: ledger replay differs");

        // The ledger recorded the gate verdict.
        let key = spec.key();
        let summary = fs::read_to_string(dir.join(format!("campaign-{key:016x}")).join("summary.txt"))
            .expect("summary.txt written");
        assert!(summary.starts_with("vstream-campaign-summary v1"));
        assert!(summary.contains("gate "));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_or_foreign_checkpoints_are_recomputed() {
    let spec = small_spec(23);
    let dir = scratch_dir("corrupt");
    let opts = CampaignOptions {
        jobs: 2,
        ledger_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let baseline = render(&run_campaign(&spec, &opts).expect("first run"));

    let key = spec.key();
    let campaign_dir = dir.join(format!("campaign-{key:016x}"));
    // Truncate one checkpoint and scribble over another: both must be
    // rejected by the strict parser and silently recomputed.
    let shard0 = campaign_dir.join("shard-0000.ckpt");
    let text = fs::read_to_string(&shard0).expect("shard 0 exists");
    fs::write(&shard0, &text[..text.len() / 2]).expect("truncate shard 0");
    fs::write(campaign_dir.join("shard-0001.ckpt"), "not a checkpoint\n").expect("corrupt shard 1");
    let recovered = render(&run_campaign(&spec, &opts).expect("recovery run"));
    assert_eq!(baseline, recovered, "corrupted checkpoints changed the output");
    // The recovery run rewrote valid checkpoints in place.
    let rewritten = fs::read_to_string(&shard0).expect("shard 0 rewritten");
    assert_eq!(rewritten, text, "rewritten checkpoint differs from the original");

    // A different population in the same ledger root lands in its own
    // content-addressed directory and shares nothing.
    let other = CampaignSpec { seed: 24, ..spec.clone() };
    assert_ne!(spec.key(), other.key());
    let _ = run_campaign(&other, &opts).expect("foreign campaign");
    assert!(dir.join(format!("campaign-{:016x}", other.key())).is_dir());
    let _ = fs::remove_dir_all(&dir);
}

/// Increments the first digit on the line after the one starting with
/// `prefix` (9 wraps to 0), or on that line itself past the prefix when
/// `next_line` is false: the checkpoint still parses, only one number in it
/// changed.
fn flip_digit(text: &str, prefix: &str, next_line: bool) -> String {
    let mut at = text.find(&format!("\n{prefix}")).expect("prefix present") + 1 + prefix.len();
    if next_line {
        at += text[at..].find('\n').expect("line ends") + 1;
    }
    let i = at + text[at..].find(|c: char| c.is_ascii_digit()).expect("a digit follows");
    let d = text.as_bytes()[i] - b'0';
    format!("{}{}{}", &text[..i], (d + 1) % 10, &text[i + 1..])
}

#[test]
fn bit_flipped_checkpoints_are_recomputed() {
    let spec = small_spec(29);
    let one_shot = render(&run_campaign(&spec, &CampaignOptions::default()).expect("one-shot run"));
    let dir = scratch_dir("bitflip");
    let opts = CampaignOptions {
        jobs: 2,
        ledger_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let _ = run_campaign(&spec, &opts).expect("checkpointing run");

    // One digit of the timeline in shard 0 and one of a tally in shard 1:
    // each file still parses line by line, so only the checksum catches it.
    let campaign_dir = dir.join(format!("campaign-{:016x}", spec.key()));
    let mut originals = Vec::new();
    for (shard, prefix, next_line) in
        [("shard-0000.ckpt", "timeline ", true), ("shard-0001.ckpt", "profile 0 ", false)]
    {
        let path = campaign_dir.join(shard);
        let text = fs::read_to_string(&path).expect("checkpoint exists");
        let flipped = flip_digit(&text, prefix, next_line);
        assert_ne!(flipped, text);
        fs::write(&path, &flipped).expect("corrupt checkpoint");
        originals.push((path, text));
    }
    let resumed = render(&run_campaign(&spec, &opts).expect("resume over the corrupted ledger"));
    assert_eq!(one_shot, resumed, "a bit-flipped checkpoint changed the output");
    for (path, text) in originals {
        assert_eq!(fs::read_to_string(&path).expect("rewritten"), text, "{path:?} not recomputed");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cross_validation_gate_holds_on_the_default_population() {
    // The shipped defaults (what `repro campaign` and CI run) must pass
    // their own gate: Eq. (3) within ±10%, Eq. (4) on the bin grid within
    // ±35%. A scaled-down window keeps this debug-friendly while leaving
    // the population itself untouched.
    let spec = CampaignSpec {
        packet_sessions: 48,
        window_secs: 600,
        duration_secs: (60.0, 120.0),
        ..CampaignSpec::for_viewers(100_000)
    };
    let report = run_campaign(&spec, &CampaignOptions::default()).expect("uninterrupted");
    let v = &report.validation;
    assert!(
        v.pass(),
        "gate failed: mean ratio {:.3}, var ratio {:.3}",
        v.mean_ratio(),
        v.var_ratio()
    );
    assert!((v.mean_ratio() - 1.0).abs() <= spec.tol_mean);
    assert!((v.var_ratio() - 1.0).abs() <= spec.tol_var);
    // Calibration factors are physical: sessions download slightly more
    // than e·L (headers, resends), and far below the nominal downlink.
    assert!(v.kappa_size > 0.9 && v.kappa_size < 1.3, "kappa_size {:.3}", v.kappa_size);
    assert!(v.kappa_rate > 0.01 && v.kappa_rate < 1.0, "kappa_rate {:.3}", v.kappa_rate);
    // The report carries the verdict and the capacity curve.
    let text = report.to_text();
    assert!(text.contains("cross-validation gate: PASS"));
    assert!(report.tables.iter().any(|t| t.id == "campaign-capacity"));
}
