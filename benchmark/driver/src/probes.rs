//! The traced run: per-layer unit costs, measured from outside the crates.
//!
//! Every number here comes from timing calls into a crate's public
//! functions — nothing under `crates/` is instrumented for it. A unit-cost
//! probe feeds one layer's API with the operation stream the workload
//! itself produced: the retained [`Trace`] of a deterministic sample of its
//! sessions gives the packet times, sizes and directions the queue, link,
//! capture and analysis probes replay. Counts come from the program's own
//! metrics ledger. Estimated busy time of a layer is count × unit cost; the
//! orchestrator does that arithmetic.

use std::collections::VecDeque;
use std::hint::black_box;

use vstream::campaign::CampaignSpec;
use vstream::obs::ledger_json;
use vstream::{cache, flight, query_many_jobs, SessionQuery, SessionScratch, SessionSpec};
use vstream_analysis::{
    AnalysisFold, DownloadFold, SummariesFold, ThroughputFold, TotalsFold, WindowFold,
};
use vstream_app::engine::Engine;
use vstream_capture::{NullSink, PackedTrace, PacketSink, TapDirection, TapPacket, Trace};
use vstream_model::{FluidSim, FluidStrategy};
use vstream_net::{Direction, LossModel};
use vstream_obs::{collector, Counter, Gauge, Ledger, Metrics};
use vstream_sim::{EventQueue, SimDuration, SimRng, SimTime};
use vstream_tcp::{Endpoint, Role, Segment, TcpConfig};
use vstream_workload::logic_for;

use crate::digest::reply_digest;
use crate::json::Json;
use crate::spans::Spans;
use crate::specs::{class_cells, draw, workload_specs, CLASSES};
use crate::stats::median;
use crate::Args;

/// Slices per pass in the traced run: the pass variants (warm-up, untraced,
/// metered, flight, jobs 2, engine only) alternate slice by slice, so host drift
/// hits all of them alike and their ratios stay meaningful.
const TRACED_SLICES: usize = 8;

/// Sessions whose traces feed the unit-cost probes.
const SAMPLE_SESSIONS: usize = 12;

/// Bytes one TCP probe transfer moves at most.
const TCP_PROBE_BYTES: u64 = 16 << 20;

/// One tapped packet of a sample session, in engine terms.
type Op = (SimTime, TapDirection, Segment);

struct Sample {
    spec: SessionSpec,
    trace: Trace,
    ops: Vec<Op>,
}

pub fn traced(args: &Args) -> Json {
    let w = args.workload;
    let query = w.query();
    let reps = ((args.seconds / 5.0) as usize).clamp(1, 5);
    let mut spans = Spans::new();
    let mut unit: Vec<(String, Json)> = Vec::new();
    spans.enter(&format!("driver:{}", w.name()));

    // workload: input generation.
    let build_s: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            spans
                .time("workload.spec_build", || {
                    black_box(workload_specs(w, args.seed, args.per_cell))
                })
                .1
        })
        .collect();
    let specs = workload_specs(w, args.seed, args.per_cell);
    unit.push(num(
        "workload.spec_build_us_per_spec",
        median(&build_s) * 1e6 / specs.len() as f64,
    ));

    // The pass variants, alternating slice by slice.
    let passes = pass_variants(&specs, &query, args, &mut spans);
    unit.push(num(
        "obs.metrics_overhead_ratio",
        passes.metered_s / passes.untraced_s,
    ));
    unit.push(num(
        "obs.flight_overhead_ratio",
        passes.flight_s / passes.untraced_s,
    ));
    unit.push(num(
        "sim.exec_speedup_jobs2",
        passes.untraced_s / passes.jobs2_s,
    ));
    unit.push(num(
        "app.engine_ns_per_event",
        passes.engine_s * 1e9 / passes.engine_events as f64,
    ));

    // app: one engine-only cost per strategy class, same path for all.
    spans.enter("app.class_probe");
    let class_specs = draw(args.seed, &class_cells(), 2);
    for class in CLASSES {
        let members: Vec<&SessionSpec> = class_specs
            .iter()
            .filter(|(c, _)| c.class == class)
            .map(|(_, s)| s)
            .collect();
        let per_event: Vec<f64> = (0..reps)
            .map(|_| {
                let mut scratch = SessionScratch::new();
                let mut events = 0;
                let ((), secs) = spans.time(&format!("app.class.{class}"), || {
                    for spec in &members {
                        events += engine_only(spec, &mut scratch);
                    }
                });
                secs * 1e9 / events as f64
            })
            .collect();
        unit.push(num(
            &format!("app.class_ns_per_event.{class}"),
            median(&per_event),
        ));
    }
    spans.exit();

    // The sample whose traces feed the unit-cost probes.
    spans.enter("sample");
    let step = specs.len().div_ceil(SAMPLE_SESSIONS).max(1);
    let samples: Vec<Sample> = specs
        .iter()
        .step_by(step)
        .map(|spec| {
            let out = spec
                .run()
                .expect("every benchmark spec is a valid matrix cell");
            let ops = out
                .trace
                .records()
                .map(|r| (r.at(), r.dir(), r.segment()))
                .collect();
            Sample {
                spec: *spec,
                trace: out.trace,
                ops,
            }
        })
        .collect();
    spans.exit();
    let packets: usize = samples.iter().map(|s| s.ops.len()).sum();
    let packets_f = packets as f64;

    let probe = |name: &str, spans: &mut Spans, f: &mut dyn FnMut() -> f64| -> f64 {
        let xs: Vec<f64> = (0..reps)
            .map(|_| spans.time(name, &mut *f))
            .map(|(ops, secs)| secs * 1e9 / ops)
            .collect();
        median(&xs)
    };

    let queue_ns = probe("sim.queue_probe", &mut spans, &mut || probe_queue(&samples));
    unit.push(num("sim.queue_ns_per_event", queue_ns));
    let link_ns = probe("net.link_probe", &mut spans, &mut || probe_link(&samples));
    unit.push(num("net.link_ns_per_packet", link_ns));

    let transfers: Vec<u64> = samples
        .iter()
        .map(|s| s.trace.total_downloaded().clamp(1 << 16, TCP_PROBE_BYTES))
        .collect();
    let clean_ns = probe("tcp.endpoint_probe", &mut spans, &mut || {
        transfers
            .iter()
            .map(|&b| tcp_transfer(b, None))
            .sum::<u64>() as f64
    });
    unit.push(num("tcp.endpoint_ns_per_segment", clean_ns));
    let lossy_ns = probe("tcp.lossy_probe", &mut spans, &mut || {
        transfers
            .iter()
            .map(|&b| tcp_transfer(b, Some(LossModel::every_nth(100))))
            .sum::<u64>() as f64
    });
    unit.push(num("tcp.lossy_ns_per_segment", lossy_ns));
    let setup_ns = probe("tcp.conn_setup_probe", &mut spans, &mut || {
        for _ in 0..2000 {
            black_box(tcp_transfer(0, None));
        }
        2000.0
    });
    unit.push(num("tcp.conn_setup_ns", setup_ns));

    let record_ns = probe("capture.record_probe", &mut spans, &mut || {
        for s in &samples {
            let mut t = Trace::with_capacity(s.ops.len());
            for &(at, dir, seg) in &s.ops {
                t.push(at, dir, seg);
            }
            black_box(t.len());
        }
        packets_f
    });
    unit.push(num("capture.record_ns_per_packet", record_ns));
    let pack_ns = probe("capture.pack_probe", &mut spans, &mut || {
        for s in &samples {
            black_box(PackedTrace::pack(&s.trace).packed_bytes());
        }
        packets_f
    });
    unit.push(num("capture.pack_ns_per_packet", pack_ns));
    let packed: Vec<PackedTrace> = samples
        .iter()
        .map(|s| PackedTrace::pack(&s.trace))
        .collect();
    let replay_ns = probe("capture.replay_probe", &mut spans, &mut || {
        for p in &packed {
            p.replay(&mut NullSink);
        }
        packets_f
    });
    unit.push(num("capture.replay_ns_per_packet", replay_ns));
    let packed_bytes: usize = packed.iter().map(PackedTrace::packed_bytes).sum();
    let resident_bytes: usize = samples.iter().map(|s| s.trace.resident_bytes()).sum();
    unit.push(num(
        "capture.packed_bytes_per_packet",
        packed_bytes as f64 / packets_f,
    ));
    unit.push(num(
        "capture.resident_bytes_per_packet",
        resident_bytes as f64 / packets_f,
    ));

    // analysis: the folds the workload's query selects, fed by replay (the
    // way the default batch path feeds them), then closed.
    let mut finish_s = Vec::new();
    let fold_ns = probe("analysis.fold_probe", &mut spans, &mut || {
        let mut folds: Vec<Folds> = samples
            .iter()
            .map(|s| Folds::new(&query, s.spec.profile.build_path().base_rtt()))
            .collect();
        for (s, f) in samples.iter().zip(&mut folds) {
            s.trace.replay(f);
        }
        let started = std::time::Instant::now();
        for f in folds {
            f.finish();
        }
        finish_s.push(started.elapsed().as_secs_f64());
        packets_f
    });
    // The probe's span covers replay and finish; report them apart.
    let finish_us = median(&finish_s) * 1e6 / samples.len() as f64;
    unit.push(num(
        "analysis.fold_ns_per_packet",
        fold_ns - finish_us * 1e3 * samples.len() as f64 / packets_f,
    ));
    unit.push(num("analysis.finish_us_per_session", finish_us));

    // model: the fluid Monte-Carlo on the campaign population.
    let fluid = FluidSim::new(
        CampaignSpec::for_viewers(1_000_000).fluid_population(2.0),
        FluidStrategy::short_cycles(),
    );
    let (horizon, dt) = (1000.0, 0.5);
    let fluid_ns = probe("model.fluid_probe", &mut spans, &mut || {
        black_box(fluid.moments(args.seed, horizon, dt));
        horizon / dt
    });
    unit.push(num("model.fluid_ns_per_step", fluid_ns));

    // core: the session cache, on the sample marked shared.
    let shared: Vec<SessionSpec> = samples.iter().map(|s| s.spec.shared()).collect();
    let n = shared.len() as f64;
    let timed_query = |name: &str, spans: &mut Spans| {
        spans
            .time(name, || {
                black_box(query_many_jobs(&shared, 1, &query)).len()
            })
            .1
    };
    let (mut uncached_s, mut miss_s, mut hit_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        uncached_s.push(timed_query("core.cache_probe.uncached", &mut spans));
        cache::install();
        miss_s.push(timed_query("core.cache_probe.miss", &mut spans));
        hit_s.push(timed_query("core.cache_probe.hit", &mut spans));
        cache::uninstall();
    }
    unit.push(num("core.cache_hit_us", median(&hit_s) * 1e6 / n));
    unit.push(num(
        "core.cache_miss_extra_us",
        (median(&miss_s) - median(&uncached_s)) * 1e6 / n,
    ));

    spans.exit();
    Json::obj([
        ("unit", Json::Obj(unit)),
        (
            "sample",
            Json::obj([
                ("sessions", Json::Int(samples.len() as u64)),
                ("events", Json::Int(packets as u64)),
            ]),
        ),
        ("sessions", Json::Int(specs.len() as u64)),
        ("failed", Json::Int(passes.failed)),
        ("untraced_s", Json::Num(passes.untraced_s)),
        ("metered_s", Json::Num(passes.metered_s)),
        ("digest_mismatches", Json::Int(passes.digest_mismatches)),
        ("session_digests", Json::hex(&passes.digests)),
        (
            "ledger_differences",
            Json::Arr(
                passes
                    .ledger_differences
                    .into_iter()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("ledger", Json::Raw(passes.ledger)),
        ("spans", spans.to_json()),
    ])
}

fn num(name: &str, value: f64) -> (String, Json) {
    (name.to_string(), Json::Num(value))
}

struct Passes {
    untraced_s: f64,
    metered_s: f64,
    flight_s: f64,
    jobs2_s: f64,
    engine_s: f64,
    engine_events: u64,
    failed: u64,
    /// Replies of the metered, flight and jobs-2 variants that differ from
    /// the untraced ones.
    digest_mismatches: u64,
    digests: Vec<u64>,
    /// The metered pass's ledger, as `repro --metrics` writes it.
    ledger: String,
    /// Deterministic ledger slots that differ between two metered passes.
    ledger_differences: Vec<String>,
}

/// Runs every variant of the pass over `specs`. Outputs must not depend on
/// the variant: telemetry is output-neutral and results are ordered by spec
/// index at any worker count.
fn pass_variants(
    specs: &[SessionSpec],
    query: &SessionQuery,
    args: &Args,
    spans: &mut Spans,
) -> Passes {
    let flight_dir = args
        .out_dir
        .join(format!("flight-{}", args.workload.name()));
    // Stale dumps would only waste disk; the recorder overwrites by name.
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mut p = Passes {
        untraced_s: 0.0,
        metered_s: 0.0,
        flight_s: 0.0,
        jobs2_s: 0.0,
        engine_s: 0.0,
        engine_events: 0,
        failed: 0,
        digest_mismatches: 0,
        digests: Vec::new(),
        ledger: String::new(),
        ledger_differences: Vec::new(),
    };
    let mut ledgers = [Metrics::new(), Metrics::new()];
    let mut scratch = SessionScratch::new();
    spans.enter("passes");
    for slice in specs.chunks(specs.len().div_ceil(TRACED_SLICES).max(1)) {
        let run = |jobs: usize| -> Vec<u64> {
            query_many_jobs(slice, jobs, query)
                .iter()
                .map(|r| reply_digest(r.as_ref()))
                .collect()
        };
        // The first run over a slice pays its cold caches; keep that out of
        // the comparison between the variants.
        spans.time("pass.warmup", || run(1));
        let (untraced, secs) = spans.time("pass.untraced", || run(1));
        p.untraced_s += secs;
        p.failed += untraced.iter().filter(|&&d| d == 0).count() as u64;

        let mut others: Vec<Vec<u64>> = Vec::new();
        for (k, ledger) in ledgers.iter_mut().enumerate() {
            collector::install(true);
            let (digests, secs) = spans.time("pass.metered", || run(1));
            let taken = collector::take().expect("collector was installed above");
            ledger.merge(&taken.totals);
            if k == 0 {
                p.metered_s += secs;
            }
            others.push(digests);
        }

        flight::install(flight::TraceConfig {
            dir: flight_dir.clone(),
            anomalies_only: true,
            ring_cap: flight::ANOMALY_RING,
        })
        .expect("create the flight-recorder dump directory");
        let (digests, secs) = spans.time("pass.flight", || run(1));
        flight::uninstall();
        p.flight_s += secs;
        others.push(digests);

        let (digests, secs) = spans.time("pass.jobs2", || run(2));
        p.jobs2_s += secs;
        others.push(digests);

        let ((), secs) = spans.time("pass.engine_only", || {
            for spec in slice {
                p.engine_events += engine_only(spec, &mut scratch);
            }
        });
        p.engine_s += secs;

        for other in &others {
            p.digest_mismatches +=
                other.iter().zip(&untraced).filter(|(a, b)| a != b).count() as u64;
        }
        p.digests.extend(untraced);
    }
    spans.exit();

    let [first, second] = ledgers;
    for c in Counter::ALL {
        if !Counter::EXECUTION_DEPENDENT.contains(&c) && first.counter(c) != second.counter(c) {
            p.ledger_differences.push(c.name().to_string());
        }
    }
    for g in Gauge::ALL {
        if !Gauge::EXECUTION_DEPENDENT.contains(&g) && first.gauge(g) != second.gauge(g) {
            p.ledger_differences.push(g.name().to_string());
        }
    }
    p.ledger = ledger_json(&Ledger {
        totals: first,
        spans: Vec::new(),
    })
    .trim_end()
    .to_string();
    p
}

/// sim + net + tcp + app and nothing else: the session through
/// `logic_for` + `build_path` + `Engine::run_observed` into a null sink
/// with no trace retained — no capture, no analysis. Returns the events
/// the session scheduled.
fn engine_only(spec: &SessionSpec, scratch: &mut SessionScratch) -> u64 {
    assert!(
        spec.watch_time.is_none(),
        "benchmark specs are never interrupted"
    );
    let mut logic = logic_for(spec.client, spec.container, spec.video)
        .expect("every benchmark spec is a valid matrix cell");
    let mut eng = Engine::with_scratch(
        spec.profile.build_path(),
        spec.seed,
        spec.capture,
        std::mem::take(scratch),
    );
    if let Some(cfg) = spec.cross {
        eng.set_lrd_cross_traffic(cfg, spec.seed);
    }
    eng.run_observed(&mut logic, &mut NullSink, false);
    let events = eng.queue_stats().scheduled;
    let (_, recycled) = eng.into_parts();
    *scratch = recycled;
    events
}

/// `EventQueue::schedule`/`pop_before` over the sample's event-time
/// pattern: each tapped packet is scheduled one propagation delay ahead of
/// its capture time and popped when the clock reaches it, so queue depth
/// tracks the packets in flight. Returns the events pushed (each is also
/// popped).
fn probe_queue(samples: &[Sample]) -> f64 {
    let mut events = 0u64;
    for s in samples {
        let delay = s.spec.profile.one_way_delay();
        let mut queue: EventQueue<(usize, Segment)> = EventQueue::new();
        for &(at, _, seg) in &s.ops {
            while let Some(ev) = queue.pop_before(at) {
                black_box(ev);
            }
            queue.schedule(at + delay, (0, seg));
            events += 1;
        }
        while let Some(ev) = queue.pop() {
            black_box(ev);
        }
    }
    events as f64
}

/// `DuplexPath::send` over the sample's size/direction sequence, on the
/// path of each session's own vantage point. Returns the packets sent.
fn probe_link(samples: &[Sample]) -> f64 {
    let mut packets = 0u64;
    for s in samples {
        let mut path = s.spec.profile.build_path();
        let mut rng = SimRng::new(s.spec.seed);
        for (at, dir, seg) in &s.ops {
            let dir = match dir {
                TapDirection::Incoming => Direction::Down,
                TapDirection::Outgoing => Direction::Up,
            };
            black_box(path.send(dir, *at, seg, &mut rng));
            packets += 1;
        }
    }
    packets as f64
}

/// A client/server [`Endpoint`] pair over an ideal pipe: fixed 1 ms
/// propagation, unlimited rate, and (optionally) a loss model on the data
/// direction. The client application reads everything as it arrives.
struct Pipe {
    client: Endpoint,
    server: Endpoint,
    down: VecDeque<(SimTime, Segment)>,
    up: VecDeque<(SimTime, Segment)>,
    now: SimTime,
    loss: Option<LossModel>,
    rng: SimRng,
    buf: Vec<Segment>,
    handled: u64,
}

impl Pipe {
    const DELAY: SimDuration = SimDuration::from_millis(1);

    fn new(loss: Option<LossModel>) -> Pipe {
        Pipe {
            client: Endpoint::new(Role::Client, 0, TcpConfig::default()),
            server: Endpoint::new(Role::Server, 0, TcpConfig::default()),
            down: VecDeque::new(),
            up: VecDeque::new(),
            now: SimTime::ZERO,
            loss,
            rng: SimRng::new(1),
            buf: Vec::new(),
            handled: 0,
        }
    }

    fn flush(&mut self, from_client: bool) {
        let at = self.now + Pipe::DELAY;
        for seg in self.buf.drain(..) {
            if from_client {
                self.up.push_back((at, seg));
            } else if seg.has_payload()
                && self
                    .loss
                    .as_mut()
                    .is_some_and(|l| l.should_drop(&mut self.rng))
            {
                // Dropped on the wire.
            } else {
                self.down.push_back((at, seg));
            }
        }
    }

    /// Processes the earliest pending delivery or timer. False when
    /// nothing is pending.
    fn step(&mut self) -> bool {
        let due = [
            self.down.front().map(|d| d.0),
            self.up.front().map(|d| d.0),
            self.client.next_timer(),
            self.server.next_timer(),
        ];
        let Some((which, at)) = due
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (i, t)))
            .min_by_key(|&(i, t)| (t, i))
        else {
            return false;
        };
        self.now = self.now.max(at);
        match which {
            0 => {
                let (_, seg) = self.down.pop_front().expect("front was Some");
                self.client.on_segment_into(self.now, seg, &mut self.buf);
                self.handled += 1;
                self.flush(true);
                let available = self.client.available_to_read();
                if available > 0 {
                    self.client.read_into(self.now, available, &mut self.buf);
                    self.flush(true);
                }
            }
            1 => {
                let (_, seg) = self.up.pop_front().expect("front was Some");
                self.server.on_segment_into(self.now, seg, &mut self.buf);
                self.handled += 1;
                self.flush(false);
            }
            2 => {
                self.client.on_timer_into(self.now, &mut self.buf);
                self.flush(true);
            }
            _ => {
                self.server.on_timer_into(self.now, &mut self.buf);
                self.flush(false);
            }
        }
        true
    }

    fn run_until(&mut self, done: impl Fn(&Pipe) -> bool) {
        // Far above any probe's segment count; a stuck state machine must
        // fail the benchmark, not hang it.
        for _ in 0..50_000_000u64 {
            if done(self) {
                return;
            }
            assert!(self.step(), "TCP probe stalled with nothing pending");
        }
        panic!("TCP probe did not finish");
    }
}

/// connect → handshake → `bytes` of data → server FIN → client EOF over a
/// [`Pipe`]. Returns the segments the two endpoints handled.
fn tcp_transfer(bytes: u64, loss: Option<LossModel>) -> u64 {
    let mut pipe = Pipe::new(loss);
    pipe.buf = pipe.client.connect(pipe.now);
    pipe.flush(true);
    pipe.run_until(|p| p.client.is_established() && p.server.is_established());
    if bytes > 0 {
        let now = pipe.now;
        pipe.server.write_into(now, bytes, &mut pipe.buf);
        pipe.flush(false);
        pipe.run_until(|p| p.server.all_acked());
    }
    let now = pipe.now;
    pipe.server.close_into(now, &mut pipe.buf);
    pipe.flush(false);
    pipe.run_until(|p| p.client.at_eof());
    pipe.handled
}

/// The folds a query selects, built from the analysis crate's public fold
/// types (the composite the query layer uses is private to it).
struct Folds {
    download: Option<DownloadFold>,
    window: Option<WindowFold>,
    throughput: Option<ThroughputFold>,
    analysis: Option<AnalysisFold>,
    summaries: Option<SummariesFold>,
    totals: Option<TotalsFold>,
}

impl Folds {
    fn new(query: &SessionQuery, base_rtt: SimDuration) -> Folds {
        let analysis = (query.onoff || query.phases || query.ack_clock).then(|| {
            let mut a = AnalysisFold::new(query.config.clone());
            if query.phases {
                a = a.with_phases();
            }
            if query.ack_clock {
                a = a.with_ack_clock(base_rtt);
            }
            a
        });
        Folds {
            download: query.download_step.map(DownloadFold::new),
            window: query.window_conn.map(WindowFold::new),
            throughput: query.throughput_bin.map(ThroughputFold::new),
            analysis,
            summaries: query.summaries.then(SummariesFold::new),
            totals: query.totals.then(TotalsFold::new),
        }
    }

    fn finish(self) {
        black_box(self.download.map(DownloadFold::finish));
        black_box(self.window.map(WindowFold::finish));
        black_box(self.throughput.map(ThroughputFold::finish));
        black_box(self.analysis.map(AnalysisFold::finish));
        black_box(self.summaries.map(SummariesFold::finish));
        black_box(self.totals.map(TotalsFold::finish));
    }
}

impl PacketSink for Folds {
    fn packet(&mut self, p: &TapPacket) {
        if let Some(f) = &mut self.download {
            f.packet(p);
        }
        if let Some(f) = &mut self.window {
            f.packet(p);
        }
        if let Some(f) = &mut self.throughput {
            f.packet(p);
        }
        if let Some(f) = &mut self.analysis {
            f.packet(p);
        }
        if let Some(f) = &mut self.summaries {
            f.packet(p);
        }
        if let Some(f) = &mut self.totals {
            f.packet(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_transfer_handles_every_segment_once() {
        // 100 full segments: each is handled by the client and acknowledged
        // to the server, plus the handshake and the FIN exchange.
        let handled = tcp_transfer(146_000, None);
        assert!((200..230).contains(&handled), "handled {handled}");
    }

    #[test]
    fn lossy_transfer_recovers_and_costs_more_segments() {
        let clean = tcp_transfer(1 << 20, None);
        let lossy = tcp_transfer(1 << 20, Some(LossModel::every_nth(100)));
        assert!(
            lossy > clean,
            "retransmissions and duplicate ACKs add segments: {lossy} vs {clean}"
        );
    }

    #[test]
    fn empty_transfer_is_handshake_and_close() {
        let handled = tcp_transfer(0, None);
        assert!((3..10).contains(&handled), "handled {handled}");
    }

    #[test]
    fn engine_only_repeats_exactly_on_a_reused_scratch() {
        let specs = draw(3, &class_cells(), 1);
        let spec = specs[0].1;
        let mut scratch = SessionScratch::new();
        let a = engine_only(&spec, &mut scratch);
        let b = engine_only(&spec, &mut scratch);
        assert_eq!(a, b, "scratch reuse must not change the simulation");
        assert!(a > 1000);
    }
}
