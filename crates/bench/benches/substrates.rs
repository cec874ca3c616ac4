//! Micro-benchmarks of the substrates: raw TCP transfer throughput through
//! the simulator, session-engine event rates, and the analysis pipeline.
//! These guard the performance the figure regenerations depend on.

use std::hint::black_box;
use std::time::Duration;

use vstream::prelude::*;
use vstream_analysis::OnOffAnalysis;
use vstream_bench::harness::Criterion;
use vstream_bench::{criterion_group, criterion_main};

/// One bulk 180 s session: the most packet-dense workload (no pacing).
fn bulk_spec(seed: u64) -> SessionSpec {
    SessionSpec::new(
        Client::Firefox,
        Container::Html5,
        Video::new(1, 2_000_000, SimDuration::from_secs(120)),
        NetworkProfile::Research,
        seed,
        SimDuration::from_secs(180),
    )
}

/// A paced 180 s session: timer-heavy workload.
fn paced_spec(seed: u64) -> SessionSpec {
    SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        Video::new(1, 1_000_000, SimDuration::from_secs(2400)),
        NetworkProfile::Research,
        seed,
        SimDuration::from_secs(180),
    )
}

/// The paced 8-session fan-out the `parallel`, `query` and `tracing` groups
/// share, so their rows are comparable.
fn paced_fanout() -> Vec<SessionSpec> {
    (0..8u64)
        .map(|i| SessionSpec {
            video: Video::new(i, 1_000_000, SimDuration::from_secs(2400)),
            ..paced_spec(0x5E55 + i)
        })
        .collect()
}

fn bench_sessions(c: &mut Criterion) {
    let mut g = c.benchmark_group("sessions");
    g.sample_size(10).measurement_time(Duration::from_secs(20)).warm_up_time(Duration::from_secs(1));
    // One scratch per bench, reused across iterations — the same shape as a
    // batch worker running sessions back to back.
    g.bench_function("bulk_120s_video", |b| {
        let spec = bulk_spec(1);
        let mut scratch = SessionScratch::new();
        b.iter(|| {
            black_box(
                black_box(&spec)
                    .run_with_scratch(&mut scratch)
                    .unwrap()
                    .trace
                    .len(),
            )
        });
        scratch.flush_metrics();
    });
    g.bench_function("flash_paced_180s_capture", |b| {
        let spec = paced_spec(2);
        let mut scratch = SessionScratch::new();
        b.iter(|| {
            black_box(
                black_box(&spec)
                    .run_with_scratch(&mut scratch)
                    .unwrap()
                    .trace
                    .len(),
            )
        });
        scratch.flush_metrics();
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    // Pre-compute one trace, then benchmark the analysis passes alone.
    let out = run_cell(
        Client::Firefox,
        Container::Flash,
        Video::new(1, 1_000_000, SimDuration::from_secs(2400)),
        NetworkProfile::Research,
        3,
        SimDuration::from_secs(180),
    )
    .unwrap();
    let trace = out.trace;
    let cfg = AnalysisConfig::default();

    let mut g = c.benchmark_group("analysis");
    g.sample_size(30);
    g.bench_function("onoff_detection", |b| {
        b.iter(|| black_box(OnOffAnalysis::from_trace(&trace, &cfg)))
    });
    g.bench_function("phase_decomposition", |b| {
        b.iter(|| black_box(SessionPhases::from_trace(&trace, &cfg)))
    });
    g.bench_function("classification", |b| {
        b.iter(|| black_box(classify(&trace, &cfg)))
    });
    g.bench_function("download_series", |b| {
        b.iter(|| black_box(trace.download_series().len()))
    });
    g.bench_function("throughput_timeline", |b| {
        b.iter(|| black_box(trace.throughput_timeline(SimDuration::from_millis(100)).len()))
    });
    g.bench_function("total_downloaded", |b| {
        b.iter(|| black_box(trace.total_downloaded()))
    });
    g.finish();
}

/// Pack/unpack of the `PackedTrace` format (off the production path since
/// the session cache stores replies; kept while `benchmark/driver` probes
/// it): the same paced capture the analysis benches scan, through a full
/// compress/decompress cycle. The bytes-per-record line printed after the
/// group is the figure DESIGN.md quotes for the packed format.
fn bench_pack(c: &mut Criterion) {
    use vstream_capture::PackedTrace;
    let out = run_cell(
        Client::Firefox,
        Container::Flash,
        Video::new(1, 1_000_000, SimDuration::from_secs(2400)),
        NetworkProfile::Research,
        3,
        SimDuration::from_secs(180),
    )
    .unwrap();
    let trace = out.trace;
    let packed = PackedTrace::pack(&trace);

    let mut g = c.benchmark_group("pack");
    g.sample_size(20);
    g.bench_function("pack", |b| {
        b.iter(|| black_box(PackedTrace::pack(black_box(&trace)).packed_bytes()))
    });
    g.bench_function("unpack", |b| {
        b.iter(|| black_box(black_box(&packed).unpack().len()))
    });
    g.finish();
    println!(
        "pack/bytes_per_record: {:.3} ({} bytes / {} records)",
        packed.packed_bytes() as f64 / trace.len().max(1) as f64,
        packed.packed_bytes(),
        trace.len()
    );
}

/// Batch throughput of the parallel session executor: the same 8-session
/// fan-out serially and across all cores, traces retained. The jobs-N row
/// should beat jobs-1 by roughly the core count (the acceptance floor is 2x
/// at `--jobs 4`), while the per-worker sessions/s reported after the group
/// isolates intra-session gains (scratch reuse, event queue) from
/// parallelism.
fn bench_sessions_per_sec(c: &mut Criterion) {
    let specs = paced_fanout();
    let all = vstream::default_jobs();
    let mut cases: Vec<(String, usize)> = vec![("run_many_8_sessions_jobs1".to_string(), 1)];
    if all > 1 {
        cases.push((format!("run_many_8_sessions_jobs{all}"), all));
    }
    {
        let mut g = c.benchmark_group("parallel");
        g.sample_size(10).measurement_time(Duration::from_secs(30)).warm_up_time(Duration::from_secs(2));
        for (name, jobs) in &cases {
            let jobs = *jobs;
            g.bench_function(name, |b| {
                b.iter(|| black_box(run_many_jobs(black_box(&specs), jobs)))
            });
        }
        g.finish();
    }
    // Throughput report: sessions/s per worker is the number scratch-reuse
    // and event-queue work moves; the total is what parallelism moves.
    for (name, jobs) in &cases {
        let full = format!("parallel/{name}");
        if let Some(r) = c.results().iter().find(|r| r.name == full) {
            let total = specs.len() as f64 / (r.median_ns / 1e9);
            println!(
                "{full:<45} thrpt: {total:.2} sessions/s across {jobs} worker(s) \
                 = {:.2} sessions/s/worker",
                total / *jobs as f64
            );
        }
    }
}

/// The figure drivers' path over the same fan-out and the fold set the
/// steady-state figures use (ON/OFF + phases): folds on the live tap, no
/// trace. Against `parallel/run_many_8_sessions_*` the row shows what not
/// recording a trace saves; the peak-memory line printed after the group is
/// the `peak_trace_bytes` / `peak_flowstate_bytes` pair DESIGN.md quotes.
fn bench_query(c: &mut Criterion) {
    use vstream::{query_many_jobs, SessionQuery};
    use vstream_obs::{collector, Gauge};

    let specs = paced_fanout();
    let query = SessionQuery::default().onoff().phases();
    let jobs = vstream::default_jobs();
    let mut g = c.benchmark_group("query");
    g.sample_size(10).measurement_time(Duration::from_secs(20)).warm_up_time(Duration::from_secs(1));
    g.bench_function("query_8_sessions", |b| {
        b.iter(|| black_box(query_many_jobs(black_box(&specs), jobs, &query)))
    });
    g.finish();
    // `wall = true` keeps the execution-dependent gauges the byte-comparable
    // ledgers zero out.
    collector::install(true);
    black_box(query_many_jobs(&specs, jobs, &query));
    let ledger = collector::take().expect("collector installed");
    println!(
        "query/peak_bytes: trace={} flowstate={}",
        ledger.totals.gauge(Gauge::PeakTraceBytes),
        ledger.totals.gauge(Gauge::PeakFlowstateBytes),
    );
}

/// Flight-recorder overhead on the paced 8-session fan-out, through the
/// figure drivers' path. The `off` row prices the disabled switch — one
/// relaxed atomic load per emission site — and must sit within noise of
/// `query/query_8_sessions` at one worker. The `on` row prices full ring
/// recording: every cwnd sample, queue event, and player transition lands
/// in the per-session ring. Dumps are anomaly-only and these healthy
/// sessions trip no predicate, so no file I/O pollutes the measurement.
fn bench_tracing(c: &mut Criterion) {
    use vstream::{flight, query_many_jobs, SessionQuery};
    use vstream_obs::trace;

    let specs = paced_fanout();
    let query = SessionQuery::default().onoff().phases();
    let mut g = c.benchmark_group("tracing");
    g.sample_size(10).measurement_time(Duration::from_secs(30)).warm_up_time(Duration::from_secs(2));
    g.bench_function("query_8_sessions_trace_off", |b| {
        trace::set_enabled(false);
        b.iter(|| black_box(query_many_jobs(black_box(&specs), 1, &query)))
    });
    g.bench_function("query_8_sessions_trace_on", |b| {
        flight::install(flight::TraceConfig {
            dir: std::env::temp_dir().join("vstream-bench-traces"),
            anomalies_only: true,
            ring_cap: flight::DEFAULT_RING,
        })
        .expect("create temp trace dir");
        b.iter(|| black_box(query_many_jobs(black_box(&specs), 1, &query)));
        flight::uninstall();
    });
    g.finish();
}

/// The DASH adaptation loop, clean and under LRD cross-traffic. The clean
/// row prices the per-segment connection churn (one connection per 4 s
/// segment vs one long-lived connection for the Table 1 clients); the
/// loaded row adds the superposed on/off aggregate's timer events — the
/// densest event mix the ext-qoe sweep runs, so a regression here is a
/// regression in `repro ext-qoe` wall clock.
fn bench_abr(c: &mut Criterion) {
    let dash_spec = |seed: u64, cross: Option<LrdCrossConfig>| {
        let spec = SessionSpec::new(
            Client::Dash,
            Container::Html5,
            Video::new(1, 1_000_000, SimDuration::from_secs(2400)),
            NetworkProfile::Home,
            seed,
            SimDuration::from_secs(180),
        );
        match cross {
            Some(c) => spec.with_lrd_cross(c),
            None => spec,
        }
    };
    let down = NetworkProfile::Home.down_bps();

    let mut g = c.benchmark_group("abr");
    g.sample_size(10).measurement_time(Duration::from_secs(20)).warm_up_time(Duration::from_secs(1));
    g.bench_function("dash_180s_clean", |b| {
        let spec = dash_spec(0xD5A1, None);
        let mut scratch = SessionScratch::new();
        b.iter(|| {
            black_box(
                black_box(&spec)
                    .run_with_scratch(&mut scratch)
                    .unwrap()
                    .trace
                    .len(),
            )
        });
        scratch.flush_metrics();
    });
    g.bench_function("dash_180s_lrd_load_700", |b| {
        let spec = dash_spec(0xD5A2, Some(LrdCrossConfig::for_load(down, 700)));
        let mut scratch = SessionScratch::new();
        b.iter(|| {
            black_box(
                black_box(&spec)
                    .run_with_scratch(&mut scratch)
                    .unwrap()
                    .trace
                    .len(),
            )
        });
        scratch.flush_metrics();
    });
    g.finish();
}

fn bench_fluid_model(c: &mut Criterion) {
    use vstream_model::{FluidSim, FluidStrategy, PopulationModel};
    let pop = PopulationModel {
        lambda: 2.0,
        encoding_bps: (0.5e6, 1.5e6),
        duration_secs: (120.0, 360.0),
        bandwidth_bps: (5e6, 15e6),
    };
    let mut g = c.benchmark_group("fluid_model");
    g.sample_size(10);
    g.bench_function("superposition_1000s", |b| {
        let sim = FluidSim::new(pop.clone(), FluidStrategy::short_cycles());
        b.iter(|| black_box(sim.moments(black_box(4), 1000.0, 0.5)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sessions,
    bench_analysis,
    bench_pack,
    bench_sessions_per_sec,
    bench_query,
    bench_tracing,
    bench_abr,
    bench_fluid_model
);
criterion_main!(benches);
