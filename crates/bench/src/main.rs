//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                       # everything, summaries to stdout
//! repro table1 fig4 fig9          # a selection
//! repro all --csv out/            # also write each figure/table as CSV
//! repro all --seed 7 --n 20       # change the seed / per-network sample size
//! repro all --jobs 4              # worker threads (default: all cores)
//! repro all --metrics m.json      # also write the telemetry ledger
//! repro all --metrics-summary     # print the ledger as human tables
//! repro all --progress            # per-figure timing lines on stderr
//! repro all --no-cache            # re-simulate duplicate sessions
//! repro fig4 --trace-dir traces/  # dump per-session flight-recorder files
//! repro all --trace-dir traces/ --trace-anomalies   # anomalous sessions only
//! repro campaign --viewers 1000000 --progress       # hybrid capacity plan
//! repro campaign --ledger runs/ --max-shards 4      # checkpoint + resume
//! ```
//!
//! The flags build one `vstream::figures::Run` — seed, worker count and,
//! with `--csv`, the QoE table — that every figure driver takes in turn.
//! Output is byte-identical for every `--jobs` value: session seeds derive
//! from each session's identity, never from execution order. The metrics
//! ledger is deterministic too once wall-clock timing is disabled
//! (`VSTREAM_WALL=off`), and enabling it never changes the figures —
//! instrumentation is output-neutral by construction.
//!
//! Every figure driver resolves its sessions through `vstream::query`:
//! analysis folds ride the engine's live packet tap, so no session retains
//! a packet trace (`peak_trace_bytes` reads 0 in the ledger; the fold state
//! is `peak_flowstate_bytes`). The finished replies — kilobytes each — are
//! memoized across figures by the `vstream::cache` session cache (on by
//! default; sessions are pure functions of their spec, so the figures are
//! byte-identical either way — `scripts/check_determinism.sh` holds this).
//! `--no-cache` re-simulates every duplicate instead.
//!
//! `--trace-dir` turns the `vstream::flight` recorder on: every simulated
//! session (the ablation harnesses' included) records structured events (TCP state/cwnd, queue drops, player
//! stalls, block requests) into a bounded ring and dumps them as Chrome
//! trace-event JSON plus a text timeline, named by session identity.
//! Tracing never changes figures, ledgers, or the QoE table — the
//! `scripts/ci.sh` trace-neutrality stage diffs them with the flag on and
//! off. `--trace-anomalies` restricts dumps to sessions that stalled hard
//! or hit a retransmit storm; `--trace-cap` resizes the ring.
//!
//! With `--csv`, the run also writes `qoe_sessions.csv` into the CSV tree:
//! one QoE row (startup delay, stalls, stall ratio, block cadence) per
//! spec-driven session, in deterministic figure/spec order.
//!
//! `repro campaign` is the hybrid fluid/packet capacity planner
//! (`vstream::campaign`): a deterministic packet-level shard calibrates the
//! §6 closed forms, which then price 10k → 1M+ concurrent viewers. It runs
//! alone (not part of `all`), reuses `--seed`, `--jobs`, `--csv` and
//! `--progress`, and adds `--viewers`, `--packet-sessions`, `--shard-size`,
//! `--window`, `--ledger DIR` (checkpoint every shard, resume for free) and
//! `--max-shards K` (stop after K computed shards — the scripted interrupt
//! CI uses to prove resumed output is byte-identical; it requires
//! `--ledger`, and every campaign-only flag requires `campaign`). A failed
//! cross-validation gate exits 1, an unwritable ledger 2. The campaign
//! builds no `Run`, so it has no QoE table: a resumed campaign skips
//! finished shards, whose rows a one-shot run would have.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vstream::campaign::{run_campaign, CampaignError, CampaignOptions, CampaignSpec};
use vstream::figures::{self as f, Run};
use vstream::flight;
use vstream::obs::{collector, ledger_json, ledger_summary};
use vstream::qoe::QoeTable;
use vstream::report::{FigureData, TableData};

struct Options {
    seed: u64,
    n: usize,
    jobs: usize,
    csv_dir: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    /// `--metrics`' file, opened before the first session.
    metrics_file: Option<fs::File>,
    metrics_summary: bool,
    progress: bool,
    no_cache: bool,
    trace_dir: Option<PathBuf>,
    trace_anomalies: bool,
    trace_cap: Option<usize>,
    viewers: Option<u64>,
    packet_sessions: Option<usize>,
    shard_size: Option<usize>,
    window_secs: Option<u64>,
    ledger_dir: Option<PathBuf>,
    max_shards: Option<usize>,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        seed: 2026,
        n: 12,
        jobs: 0,
        csv_dir: None,
        metrics_path: None,
        metrics_file: None,
        metrics_summary: false,
        progress: false,
        no_cache: false,
        trace_dir: None,
        trace_anomalies: false,
        trace_cap: None,
        viewers: None,
        packet_sessions: None,
        shard_size: None,
        window_secs: None,
        ledger_dir: None,
        max_shards: None,
    };
    let mut selected: Vec<String> = Vec::new();
    while let Some(arg) = args.first().cloned() {
        args.remove(0);
        match arg.as_str() {
            "--seed" => opts.seed = take_value(&mut args, "--seed"),
            "--n" => opts.n = take_value(&mut args, "--n"),
            "--jobs" => opts.jobs = take_value(&mut args, "--jobs"),
            "--csv" => {
                let dir: String = take_value(&mut args, "--csv");
                opts.csv_dir = Some(PathBuf::from(dir));
            }
            "--metrics" => {
                let path: String = take_value(&mut args, "--metrics");
                opts.metrics_path = Some(PathBuf::from(path));
            }
            "--metrics-summary" => opts.metrics_summary = true,
            "--progress" => opts.progress = true,
            "--no-cache" => opts.no_cache = true,
            "--trace-dir" => {
                let dir: String = take_value(&mut args, "--trace-dir");
                opts.trace_dir = Some(PathBuf::from(dir));
            }
            "--trace-anomalies" => opts.trace_anomalies = true,
            "--trace-cap" => opts.trace_cap = Some(take_value(&mut args, "--trace-cap")),
            "--viewers" => opts.viewers = Some(take_value(&mut args, "--viewers")),
            "--packet-sessions" => {
                opts.packet_sessions = Some(take_value(&mut args, "--packet-sessions"))
            }
            "--shard-size" => opts.shard_size = Some(take_value(&mut args, "--shard-size")),
            "--window" => opts.window_secs = Some(take_value(&mut args, "--window")),
            "--ledger" => {
                let dir: String = take_value(&mut args, "--ledger");
                opts.ledger_dir = Some(PathBuf::from(dir));
            }
            "--max-shards" => opts.max_shards = Some(take_value(&mut args, "--max-shards")),
            "--help" | "-h" => {
                print_usage();
                return;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag:?} (try --help)");
                std::process::exit(2);
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        print_usage();
        return;
    }
    let campaign_mode = selected.iter().any(|s| s == "campaign");
    if campaign_mode && selected.len() > 1 {
        eprintln!("error: 'campaign' runs alone (it is a planner, not a figure)");
        std::process::exit(2);
    }
    // Every id is checked before any figure runs, so a typo at the end of
    // the list cannot cost the minutes the ids before it take.
    let known = |id: &str| id == "all" || id == "campaign" || ALL_IDS.contains(&id);
    if let Some(bad) = selected.iter().find(|id| !known(id)) {
        eprintln!("error: unknown id {bad:?} (try --help)");
        std::process::exit(2);
    }
    // A sample of zero sessions renders `NaN` rows and empty CDFs.
    if opts.n == 0 {
        eprintln!("error: invalid value \"0\" for --n");
        std::process::exit(2);
    }
    // A zero-event ring would record nothing; the recorder used to round
    // it up to one event without a word.
    if opts.trace_cap == Some(0) {
        eprintln!("error: invalid value \"0\" for --trace-cap");
        std::process::exit(2);
    }
    if opts.trace_dir.is_none() && (opts.trace_anomalies || opts.trace_cap.is_some()) {
        eprintln!("error: --trace-anomalies and --trace-cap require --trace-dir");
        std::process::exit(2);
    }
    let campaign_flags = opts.viewers.is_some()
        || opts.packet_sessions.is_some()
        || opts.shard_size.is_some()
        || opts.window_secs.is_some()
        || opts.ledger_dir.is_some()
        || opts.max_shards.is_some();
    if campaign_flags && !campaign_mode {
        eprintln!(
            "error: --viewers, --packet-sessions, --shard-size, --window, --ledger and \
             --max-shards require 'campaign'"
        );
        std::process::exit(2);
    }
    // Without a ledger the shards an interrupted run computed are lost.
    if opts.max_shards.is_some() && opts.ledger_dir.is_none() {
        eprintln!("error: --max-shards requires --ledger");
        std::process::exit(2);
    }
    if selected.iter().any(|s| s == "all") {
        selected = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    let campaign = campaign_mode.then(|| campaign_spec(&opts));
    // Every output location is created or opened before the first session,
    // so an unusable path costs no simulation.
    if let Some(dir) = &opts.csv_dir {
        output(fs::create_dir_all(dir), "--csv", dir);
    }
    if let Some(path) = &opts.metrics_path {
        opts.metrics_file = Some(output(fs::File::create(path), "--metrics", path));
    }
    if let Some(dir) = &opts.trace_dir {
        let ring_cap = opts.trace_cap.unwrap_or(if opts.trace_anomalies {
            flight::ANOMALY_RING
        } else {
            flight::DEFAULT_RING
        });
        let cfg = flight::TraceConfig {
            dir: dir.clone(),
            anomalies_only: opts.trace_anomalies,
            ring_cap,
        };
        output(flight::install(cfg), "--trace-dir", dir);
    }
    if let (Some(spec), Some(base)) = (&campaign, &opts.ledger_dir) {
        output(fs::create_dir_all(spec.ledger_dir(base)), "--ledger", base);
    }
    // `--progress` needs the span layer's session counts, so any of the
    // three observability flags activates the collector.
    let metered = opts.metrics_path.is_some() || opts.metrics_summary || opts.progress;
    if metered {
        collector::install(collector::wall_from_env());
    }
    if !opts.no_cache {
        vstream::cache::install();
    }
    let jobs = if opts.jobs == 0 { vstream_sim::default_jobs() } else { opts.jobs };
    if let Some(spec) = &campaign {
        run_campaign_cmd(spec, jobs, &opts);
        emit_metrics(&opts);
        return;
    }
    // The QoE table rides the CSV tree: collect it whenever CSVs are asked
    // for, so every `--csv` run (and every determinism diff of one) carries
    // `qoe_sessions.csv`.
    let mut run = Run { seed: opts.seed, jobs, qoe: opts.csv_dir.is_some().then(QoeTable::default) };
    let total = selected.len();
    let mut sessions_total: u64 = 0;
    let run_started = Instant::now();
    for (k, id) in selected.iter().enumerate() {
        if opts.progress {
            eprintln!("[repro] ({}/{total}) {id} ...", k + 1);
        }
        let started = Instant::now();
        collector::begin_span(id);
        run.qoe.iter_mut().for_each(|table| table.start_figure(id));
        run_one(id, &mut run, &opts);
        let span = collector::end_span();
        if opts.progress {
            let secs = started.elapsed().as_secs_f64();
            let sessions = span.as_ref().map_or(0, |s| s.sessions);
            sessions_total += sessions;
            let elapsed = run_started.elapsed().as_secs_f64();
            if secs > 0.0 && sessions > 0 {
                eprintln!(
                    "[repro] ({}/{total}) {id} done in {secs:.2}s ({sessions} sessions, \
                     {:.1} sessions/s; total {sessions_total} sessions, {elapsed:.2}s)",
                    k + 1,
                    sessions as f64 / secs
                );
            } else {
                eprintln!(
                    "[repro] ({}/{total}) {id} done in {secs:.2}s \
                     (total {sessions_total} sessions, {elapsed:.2}s)",
                    k + 1
                );
            }
        }
    }
    if let (Some(table), Some(dir)) = (&run.qoe, &opts.csv_dir) {
        let path = dir.join("qoe_sessions.csv");
        output(fs::write(&path, table.csv()), "--csv", &path);
        println!("  wrote {}", path.display());
    }
    emit_metrics(&opts);
}

/// The value of an output location's create, open or write, or `error: …`
/// and exit 2 when `flag`'s `path` cannot be used.
fn output<T>(result: std::io::Result<T>, flag: &str, path: &Path) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: cannot create {flag} output {}: {e}", path.display());
        std::process::exit(2);
    })
}

fn emit_metrics(opts: &Options) {
    if let Some(ledger) = collector::take() {
        if opts.metrics_summary {
            println!("{}", ledger_summary(&ledger));
        }
        if let (Some(path), Some(mut file)) = (&opts.metrics_path, opts.metrics_file.as_ref()) {
            output(file.write_all(ledger_json(&ledger).as_bytes()), "--metrics", path);
            eprintln!("wrote metrics ledger to {}", path.display());
        }
    }
}

/// The `repro campaign` spec from the shared and campaign-specific flags,
/// or `error: …` and exit 2 when it cannot run.
fn campaign_spec(opts: &Options) -> CampaignSpec {
    if opts.viewers == Some(0) {
        eprintln!("error: invalid value \"0\" for --viewers");
        std::process::exit(2);
    }
    if opts.packet_sessions == Some(0) || opts.shard_size == Some(0) {
        eprintln!("error: --packet-sessions and --shard-size must be nonzero");
        std::process::exit(2);
    }
    let mut spec = CampaignSpec::for_viewers(opts.viewers.unwrap_or(1_000_000));
    spec.seed = opts.seed;
    if let Some(n) = opts.packet_sessions {
        spec.packet_sessions = n;
    }
    if let Some(s) = opts.shard_size {
        spec.shard_size = s;
    }
    if let Some(w) = opts.window_secs {
        spec.window_secs = w;
    }
    if let Err(why) = spec.validate() {
        eprintln!("error: {why}");
        std::process::exit(2);
    }
    spec
}

/// The `repro campaign` subcommand: run (or resume) the campaign, print the
/// gate verdict and tables, and exit nonzero on a failed cross-validation
/// gate.
fn run_campaign_cmd(spec: &CampaignSpec, jobs: usize, opts: &Options) {
    let copts = CampaignOptions {
        jobs,
        ledger_dir: opts.ledger_dir.clone(),
        max_shards: opts.max_shards,
        progress: opts.progress,
    };
    println!("==> campaign");
    let outcome = run_campaign(spec, &copts).unwrap_or_else(|e| match e {
        CampaignError::Ledger(path, e) => output(Err(e), "--ledger", &path),
        CampaignError::Spec(why) => unreachable!("campaign_spec validated the spec: {why}"),
    });
    match outcome {
        Some(report) => {
            println!("campaign {:016x}", report.key);
            println!("{}", report.validation.gate_line());
            for table in &report.tables {
                emit_table(table, opts);
            }
            if !report.validation.pass() {
                emit_metrics(opts);
                std::process::exit(1);
            }
        }
        None => {
            println!(
                "campaign interrupted by --max-shards; completed shards are checkpointed \
                 (rerun with the same spec and --ledger to resume)"
            );
        }
    }
}

fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> T {
    if args.is_empty() || args[0].starts_with("--") {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    }
    let raw = args.remove(0);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid value {raw:?} for {flag}");
        std::process::exit(2);
    })
}

const ALL_IDS: [&str; 22] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "table1", "table2", "model-agg", "model-waste", "ext-stalls", "ext-sack", "ext-cc",
    "ext-m3", "ext-agg-pkt", "ext-qoe",
];

fn print_usage() {
    println!(
        "usage: repro [ids...|all] [--seed N] [--n N] [--jobs N] [--csv DIR] \
         [--metrics PATH] [--metrics-summary] [--progress] [--no-cache] \
         [--trace-dir DIR] [--trace-anomalies] [--trace-cap N]"
    );
    println!(
        "       repro campaign [--viewers N] [--packet-sessions N] [--shard-size N] \
         [--window SECS] [--ledger DIR] [--max-shards K] [shared flags]"
    );
    println!("ids: {}", ALL_IDS.join(" "));
}

fn run_one(id: &str, run: &mut Run, opts: &Options) {
    let n = opts.n;
    println!("==> {id}");
    match id {
        "fig1" => emit_fig(&f::fig1_phases(run), opts),
        "fig2" => {
            let (a, b) = f::fig2_short_onoff(run);
            emit_fig(&a, opts);
            emit_fig(&b, opts);
        }
        "fig3" => {
            let (a, corr_a) = f::fig3a_flash_buffering(run, n);
            emit_fig(&a, opts);
            println!("  buffering/rate correlation (Research): {corr_a:.2}  [paper: 0.85]");
            let (b, corr_b) = f::fig3b_html5_buffering(run, n);
            emit_fig(&b, opts);
            println!("  buffering/rate correlation (HTML5/IE): {corr_b:.2}  [paper: 0.41]");
        }
        "fig4" => {
            let (a, b) = f::fig4_flash_steady_state(run, n);
            emit_fig(&a, opts);
            emit_fig(&b, opts);
        }
        "fig5" => {
            let (a, b) = f::fig5_html5_steady_state(run, n);
            emit_fig(&a, opts);
            emit_fig(&b, opts);
        }
        "fig6" => {
            emit_fig(&f::fig6a_long_onoff(run), opts);
            emit_fig(&f::fig6b_long_blocks(run, n.min(8)), opts);
        }
        "fig7" => {
            emit_fig(&f::fig7a_ipad_traces(run), opts);
            emit_fig(&f::fig7b_ipad_block_vs_rate(run, n), opts);
        }
        "fig8" => {
            let (fig, corr) = f::fig8_bulk_rates(run, n);
            emit_fig(&fig, opts);
            println!("  download-rate/encoding-rate correlation: {corr:.2}  [paper: none visible]");
        }
        "fig9" => {
            emit_fig(&f::fig9_ack_clock(run), opts);
            let (no_reset, with_reset) = f::fig9_idle_reset_ablation(run);
            println!(
                "  ablation — median first-RTT burst: {no_reset:.0} kB without idle reset, \
                 {with_reset:.0} kB with RFC 5681 reset"
            );
        }
        "fig10" => {
            let (a, b) = f::fig10_netflix_traces(run);
            emit_fig(&a, opts);
            emit_fig(&b, opts);
        }
        "fig11" => {
            let (a, b) = f::fig11_netflix_buffering(run, n.min(6));
            emit_fig(&a, opts);
            emit_fig(&b, opts);
        }
        "fig12" => {
            let (a, b) = f::fig12_netflix_blocks(run, n.min(f::NETFLIX_BLOCK_SESSIONS));
            emit_fig(&a, opts);
            emit_fig(&b, opts);
        }
        "table1" => {
            let (table, cells) = f::table1_strategy_matrix(run);
            emit_table(&table, opts);
            let ok = cells.iter().filter(|c| c.matches()).count();
            println!("  {ok}/{} cells match the paper's Table 1", cells.len());
        }
        "table2" => emit_table(&f::table2_strategy_comparison(run), opts),
        "model-agg" => emit_table(&f::model_aggregate_moments(run), opts),
        "ext-stalls" => emit_fig(&f::ext_stall_vs_accumulation(run, n.min(8)), opts),
        "ext-sack" => emit_table(&f::ext_sack_ablation(run), opts),
        "ext-cc" => emit_table(&f::ext_congestion_ablation(run), opts),
        "ext-m3" => emit_table(&f::ext_third_moment(run), opts),
        "ext-agg-pkt" => emit_table(&f::ext_aggregate_packet_level(run, 40, 1200.0), opts),
        "ext-qoe" => {
            let (fig, table) = f::ext_qoe_load_sweep(run, n.min(6));
            emit_fig(&fig, opts);
            emit_table(&table, opts);
        }
        "model-waste" => {
            let (threshold, fig) = f::model_interruption_waste(run);
            println!(
                "  Eq. (7) example: Flash videos shorter than {threshold:.1} s are fully \
                 downloaded at beta = 0.2  [paper: 53.3 s]"
            );
            emit_fig(&fig, opts);
            emit_fig(&f::model_smoothing(), opts);
        }
        other => unreachable!("id {other:?} passed validation but has no driver"),
    }
}

fn emit_fig(fig: &FigureData, opts: &Options) {
    print!("{}", fig.summary());
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{}.csv", fig.id));
        output(fs::write(&path, fig.to_csv()), "--csv", &path);
        println!("  wrote {}", path.display());
    }
}

fn emit_table(table: &TableData, opts: &Options) {
    println!("{}", table.to_text());
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{}.csv", table.id));
        output(fs::write(&path, table.to_csv()), "--csv", &path);
        println!("  wrote {}", path.display());
    }
}
