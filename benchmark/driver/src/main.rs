//! The benchmark's Rust driver.
//!
//! ```text
//! driver passes --workload sessions_bulk --seed 2026 --seconds 20
//! driver traced --workload figures_all   --seed 2026 --seconds 20 --out benchmark/out
//! ```
//!
//! `passes` runs an in-process workload with all telemetry off and prints
//! raw timings and output digests; `traced` times calls into each crate's
//! public functions (the per-layer probes) and records a span per call
//! group. Both print one JSON object as the last line of stdout; the
//! orchestrator (`benchmark/run.py`) turns it into named metrics. Nothing
//! here runs more than two busy threads.

mod digest;
mod json;
mod probes;
mod spans;
mod specs;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use vstream::{query_many_jobs, SessionQuery, SessionSpec};

use crate::json::Json;
use crate::specs::{workload_specs, Workload};

/// Sessions per timed slice of an in-process pass. A slice is long enough
/// for the worker's scratch reuse to count (three of four sessions run on
/// a warm scratch, as in a figure's batch) and short enough (tens of
/// milliseconds) that on a shared host some pass usually runs it
/// undisturbed, which is what the orchestrator's per-slice minimum relies on.
const SLICE_SESSIONS: usize = 4;

/// Set-up repetitions per run (the orchestrator reports their median).
const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub per_cell: usize,
    pub min_passes: usize,
    pub out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: driver <passes|traced> --workload NAME [--seed N] [--seconds S] \
         [--per-cell K] [--min-passes P] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Args) {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_else(|| usage());
    let mut workload = None;
    let mut seed = 2026u64;
    let mut seconds = 20.0f64;
    let mut per_cell = None;
    let mut min_passes = 2usize;
    let mut out_dir = PathBuf::from("benchmark/out");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--per-cell" => per_cell = Some(value().parse().unwrap_or_else(|_| usage())),
            "--min-passes" => min_passes = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out_dir = PathBuf::from(value()),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let per_cell: usize = per_cell.unwrap_or(workload.default_per_cell());
    if per_cell == 0 || !seconds.is_finite() || seconds < 0.0 {
        usage();
    }
    (
        mode,
        Args {
            workload,
            seed,
            seconds,
            per_cell,
            min_passes,
            out_dir,
        },
    )
}

fn main() {
    let (mode, args) = parse_args();
    let result = match mode.as_str() {
        "passes" if args.workload.in_process() => passes(&args),
        "traced" => probes::traced(&args),
        _ => usage(),
    };
    println!("{}", result.render());
}

/// One pass over `specs`, slice by slice: the time of each
/// `query_many_jobs` call and the digest of each reply. Digests are taken
/// outside the timed region.
pub fn timed_pass(
    specs: &[SessionSpec],
    jobs: usize,
    query: &SessionQuery,
) -> (Vec<f64>, Vec<u64>) {
    let mut slice_s = Vec::with_capacity(specs.len().div_ceil(SLICE_SESSIONS));
    let mut digests = Vec::with_capacity(specs.len());
    for slice in specs.chunks(SLICE_SESSIONS) {
        let started = Instant::now();
        let replies = query_many_jobs(slice, jobs, query);
        slice_s.push(started.elapsed().as_secs_f64());
        digests.extend(replies.iter().map(|r| digest::reply_digest(r.as_ref())));
    }
    (slice_s, digests)
}

/// The untraced run of an in-process workload: set-up (input generation
/// plus a warm-up over every eighth spec) `SETUP_REPS` times, then timed
/// passes until `--seconds` have been measured, `--min-passes` at least.
fn passes(args: &Args) -> Json {
    let query = args.workload.query();
    let mut setup_s = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        specs = workload_specs(args.workload, args.seed, args.per_cell);
        let warm: Vec<SessionSpec> = specs.iter().step_by(8).copied().collect();
        std::hint::black_box(query_many_jobs(&warm, 1, &query));
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut slice_s: Vec<Json> = Vec::new();
    let mut digests: Vec<Json> = Vec::new();
    let mut failed = 0;
    let mut measured = 0.0;
    while slice_s.len() < args.min_passes || measured < args.seconds {
        let (times, pass_digests) = timed_pass(&specs, 1, &query);
        measured += times.iter().sum::<f64>();
        slice_s.push(Json::nums(&times));
        // A `None` reply for a valid matrix cell is a failed operation.
        failed += pass_digests.iter().filter(|&&d| d == 0).count();
        digests.push(Json::hex(&pass_digests));
    }
    Json::obj([
        ("sessions", Json::Int(specs.len() as u64)),
        ("failed", Json::Int(failed as u64)),
        ("setup_s", Json::nums(&setup_s)),
        ("slice_s", Json::Arr(slice_s)),
        ("digests", Json::Arr(digests)),
    ])
}
