//! Campaign-mode integration: byte-identical resume across interrupts and
//! worker counts, the hybrid cross-validation gate, and ledger robustness.

use std::fs;
use std::path::PathBuf;

use vstream::campaign::{
    run_campaign, CampaignOptions, CampaignReport, CampaignSpec, CampaignStrategy,
};
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

/// [`run_campaign`] over a valid spec and a writable ledger: `None` when
/// `max_shards` interrupted it.
fn campaign(spec: &CampaignSpec, opts: &CampaignOptions) -> Option<CampaignReport> {
    run_campaign(spec, opts).expect("valid spec, writable ledger")
}

/// Fresh scratch directory for one test's ledger.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstream-campaign-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch ledger dir");
    dir
}

/// Renders everything `repro campaign` emits for a finished report — the
/// key and gate lines, every table as it prints it, and every CSV — so
/// equality means byte-identical user-visible output.
fn render(report: &CampaignReport) -> String {
    let mut s = format!("campaign {:016x}\n{}\n", report.key, report.validation.gate_line());
    for t in &report.tables {
        s.push_str(&t.to_text());
        s.push('\n');
    }
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
            &campaign(
                &spec,
                &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
            )
            .expect("uninterrupted run"),
        );

        // Same campaign, eight workers, no ledger.
        let wide = render(
            &campaign(
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
        assert!(campaign(&spec, &interrupted).is_none(), "first shard-budget run must stop early");
        assert!(campaign(&spec, &interrupted).is_none(), "second shard-budget run must stop early");
        let resumed = campaign(&spec, &interrupted)
            .expect("third run holds the final shard and completes");
        assert_eq!(baseline, render(&resumed), "seed {seed}: resumed output differs");

        // A fourth run finds every shard checkpointed and recomputes none.
        let replay = campaign(
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
    let baseline = render(&campaign(&spec, &opts).expect("first run"));

    let key = spec.key();
    let campaign_dir = dir.join(format!("campaign-{key:016x}"));
    // Truncate one checkpoint and scribble over another: both must be
    // rejected by the strict parser and silently recomputed.
    let shard0 = campaign_dir.join("shard-0000.ckpt");
    let text = fs::read_to_string(&shard0).expect("shard 0 exists");
    fs::write(&shard0, &text[..text.len() / 2]).expect("truncate shard 0");
    fs::write(campaign_dir.join("shard-0001.ckpt"), "not a checkpoint\n").expect("corrupt shard 1");
    let recovered = render(&campaign(&spec, &opts).expect("recovery run"));
    assert_eq!(baseline, recovered, "corrupted checkpoints changed the output");
    // The recovery run rewrote valid checkpoints in place.
    let rewritten = fs::read_to_string(&shard0).expect("shard 0 rewritten");
    assert_eq!(rewritten, text, "rewritten checkpoint differs from the original");

    // A different population in the same ledger root lands in its own
    // content-addressed directory and shares nothing.
    let other = CampaignSpec { seed: 24, ..spec.clone() };
    assert_ne!(spec.key(), other.key());
    let _ = campaign(&other, &opts).expect("foreign campaign");
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
    let one_shot = render(&campaign(&spec, &CampaignOptions::default()).expect("one-shot run"));
    let dir = scratch_dir("bitflip");
    let opts = CampaignOptions {
        jobs: 2,
        ledger_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let _ = campaign(&spec, &opts).expect("checkpointing run");

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
    let resumed = render(&campaign(&spec, &opts).expect("resume over the corrupted ledger"));
    assert_eq!(one_shot, resumed, "a bit-flipped checkpoint changed the output");
    for (path, text) in originals {
        assert_eq!(fs::read_to_string(&path).expect("rewritten"), text, "{path:?} not recomputed");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// FNV-1a (64-bit), the checkpoint checksum: a forged file must carry a
/// valid one, or the parser rejects it before reading the format line.
fn checksum(body: &str) -> u64 {
    body.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Rewrites a current checkpoint into the previous format: a `v2` header,
/// the shard totals (sessions; bits, ON bins and the ON-rate sum) in place
/// of the lone ON-rate line, and a fresh checksum. The totals are inflated
/// and so is every timeline bin, so a parser that trusted the file would
/// print different numbers.
fn as_v2_checkpoint(v3: &str) -> String {
    let body = &v3[..v3.rfind("\nchecksum ").expect("checksum line") + 1];
    let class_sums = body
        .lines()
        .filter(|l| l.starts_with("profile "))
        .map(|l| l.split(' ').skip(2).map(|w| w.parse::<u64>().unwrap()).collect::<Vec<_>>())
        .fold([0u64; 3], |acc, t| [acc[0] + t[0], acc[1] + t[1], acc[2] + t[2]]);
    let mut out = String::new();
    let mut lines = body.lines();
    while let Some(line) = lines.next() {
        if line == "vstream-campaign-shard v3" {
            out.push_str("vstream-campaign-shard v2\n");
        } else if let Some(on_rate) = line.strip_prefix("on_rate ") {
            let [sessions, bits, active] = class_sums;
            out.push_str(&format!("sessions {}\n", sessions * 2));
            out.push_str(&format!("totals {} {active} {on_rate}\n", bits * 2));
        } else if line.starts_with("timeline ") {
            out.push_str(line);
            out.push('\n');
            let bins = lines.next().expect("timeline values").split(' ');
            let doubled: Vec<String> = bins.map(|b| (b.parse::<u64>().unwrap() * 2).to_string()).collect();
            out.push_str(&doubled.join(" "));
            out.push('\n');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    let sum = checksum(&out);
    out.push_str(&format!("checksum {sum:016x}\nend\n"));
    out
}

/// A ledger written by the previous checkpoint format is not trusted: each
/// v2 shard is recomputed and rewritten as v3, and the output equals a
/// one-shot run — even though the v2 files are well-formed, carry valid
/// checksums and hold numbers that would change the report.
#[test]
fn previous_format_checkpoints_are_recomputed() {
    let spec = small_spec(31);
    let one_shot = render(&campaign(&spec, &CampaignOptions::default()).expect("one-shot run"));
    let dir = scratch_dir("v2");
    let opts = CampaignOptions {
        jobs: 2,
        ledger_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let _ = campaign(&spec, &opts).expect("checkpointing run");

    let campaign_dir = dir.join(format!("campaign-{:016x}", spec.key()));
    let mut originals = Vec::new();
    for k in 0..3 {
        let path = campaign_dir.join(format!("shard-{k:04}.ckpt"));
        let text = fs::read_to_string(&path).expect("checkpoint exists");
        assert!(text.starts_with("vstream-campaign-shard v3\n"), "shard {k}: {text:.40}");
        fs::write(&path, as_v2_checkpoint(&text)).expect("write v2 checkpoint");
        originals.push((path, text));
    }
    // Only a recomputing run may finish: a zero shard budget stops at the
    // first checkpoint it does not trust.
    let budget = CampaignOptions { max_shards: Some(0), ..opts.clone() };
    assert!(campaign(&spec, &budget).is_none(), "a v2 checkpoint was trusted");
    let resumed = render(&campaign(&spec, &opts).expect("resume over the v2 ledger"));
    assert_eq!(one_shot, resumed, "a v2 checkpoint changed the output");
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
    let report = campaign(&spec, &CampaignOptions::default()).expect("uninterrupted");
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
    assert!(render(&report).contains("cross-validation gate: PASS"));
    assert!(report.tables.iter().any(|t| t.id == "campaign-capacity"));
}

/// A spec that fails `CampaignSpec::validate` is an error before any shard
/// runs or the ledger directory is created, not a panic.
#[test]
fn invalid_spec_is_an_error_before_any_shard() {
    let mut spec = small_spec(5);
    spec.packet_sessions = 0;
    let dir = std::env::temp_dir().join(format!("vstream-campaign-invalid-{}", std::process::id()));
    let opts = CampaignOptions { ledger_dir: Some(dir.clone()), ..CampaignOptions::default() };
    match run_campaign(&spec, &opts) {
        Err(vstream::campaign::CampaignError::Spec(why)) => {
            assert!(why.contains("packet shard"), "{why}")
        }
        other => panic!("expected a spec error, got {:?}", other.map(|r| r.is_some())),
    }
    assert!(!dir.exists(), "a rejected campaign must not create its ledger directory");
}
