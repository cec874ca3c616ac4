//! Running streaming sessions for any Table 1 cell — one at a time, or as a
//! parallel batch.
//!
//! Each session is an independent single-threaded deterministic simulation
//! fully described by a [`SessionSpec`]. The batch entry points fan a slice
//! of specs out across a worker pool and return results **ordered by spec
//! index**, so the output of a batch is byte-identical for any worker count.
//! The invariant callers must hold up in exchange: a spec's `seed` must be a
//! function of the session's identity (use [`vstream_sim::derive_seed`]),
//! never drawn from a shared RNG while iterating.
//!
//! `batch_resolve` is the one batch entrance — the figure drivers reach it
//! through [`Run::query`](crate::figures::Run::query), the campaign and
//! [`query_many_jobs`](crate::query_many_jobs) directly: analysis folds on
//! the live packet tap, no trace, replies memoized by the
//! [session cache](crate::cache). [`SessionSpec::run`] runs one session
//! with a [`Trace`] as its packet sink, retaining the capture for consumers
//! of raw packets (pcap export, trace inspection, test oracles); it always
//! simulates and never touches the cache.

use vstream_app::engine::{Engine, SessionLogic, SessionScratch};
use vstream_app::strategies::InterruptAfter;
use vstream_app::{Video, Viewer};
use vstream_capture::{PacketSink, Trace};
use vstream_net::{CrossTraffic, DuplexPath, LrdCrossConfig, NetworkProfile};
use vstream_obs::trace::Recorder;
use vstream_obs::{collector, Counter, Gauge, HistId};
use vstream_sim::{par_indexed_with_finish, SimDuration};
use vstream_tcp::EndpointStats;
use vstream_workload::{logic_for, Client, Container};

use crate::cache;
use crate::query::{CompositeFold, SessionQuery, SessionReply};
use crate::flight;

/// A complete, self-contained description of one streaming session.
///
/// Running a spec is a pure function of its fields: two equal specs produce
/// bit-identical outcomes, on any thread, in any order.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    pub client: Client,
    pub container: Container,
    pub video: Video,
    pub profile: NetworkProfile,
    pub seed: u64,
    pub capture: SimDuration,
    /// When set, the viewer abandons the session after this watch time
    /// (§6.2 experiments).
    pub watch_time: Option<SimDuration>,
    /// When set, a long-range-dependent cross-traffic aggregate shares the
    /// downlink for the whole session (the `ext-qoe` load sweeps). Part of
    /// the cache key: the aggregate changes every packet arrival time.
    pub cross: Option<LrdCrossConfig>,
    /// Opts this spec's query replies into [session cache](crate::cache)
    /// retention. Set by [`SessionSpec::shared`] for the cell-stream
    /// sessions a later figure re-reads (the `figures::re_read` table behind
    /// `figures::cell_specs`); every other session leaves it false so the
    /// cache never retains memory no later driver reads. Not part of the
    /// cache key — it changes where the result lives, never what it is.
    pub shared: bool,
}

impl SessionSpec {
    /// Spec for a full (uninterrupted) session.
    pub fn new(
        client: Client,
        container: Container,
        video: Video,
        profile: NetworkProfile,
        seed: u64,
        capture: SimDuration,
    ) -> Self {
        SessionSpec {
            client,
            container,
            video,
            profile,
            seed,
            capture,
            watch_time: None,
            cross: None,
            shared: false,
        }
    }

    /// Marks the session as abandoned after `watch_time`.
    pub fn interrupted(mut self, watch_time: SimDuration) -> Self {
        self.watch_time = Some(watch_time);
        self
    }

    /// Puts a long-range-dependent cross-traffic aggregate on the downlink
    /// for the whole session. The aggregate's randomness derives from the
    /// spec's seed (never the engine's main RNG), so the session stays a
    /// pure function of the spec.
    pub fn with_lrd_cross(mut self, cfg: LrdCrossConfig) -> Self {
        self.cross = Some(cfg);
        self
    }

    /// Marks the session as shared across figure drivers: while the
    /// [session cache](crate::cache) is installed, the reply to each query
    /// asked of it is retained and a later identical request clones it
    /// instead of re-simulating. Mark only a session some later driver asks
    /// again: the figures' `re_read` table (`figures::cell_specs`) lists the
    /// cells `repro all` re-reads, and a one-off session marked shared only
    /// retains memory.
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Runs the session, retaining its packet trace: a [`Trace`] is the
    /// session's packet sink. `None` for inapplicable Table 1 cells (mobile
    /// clients have no Flash). Always simulates: the
    /// [session cache](crate::cache) stores query replies, not traces.
    pub fn run(&self) -> Option<CellOutcome> {
        let mut scratch = SessionScratch::new();
        let mut trace = Trace::new();
        let out = self.simulate(&mut scratch, &mut trace);
        if collector::is_active() {
            let bytes = trace.resident_bytes() as u64;
            scratch.metrics_mut().gauge_max(Gauge::PeakTraceBytes, bytes);
        }
        scratch.flush_metrics();
        out.map(|o| CellOutcome { trace, ..o })
    }

    /// [`run_engine`] for a spec: builds the Table 1 logic ([`InterruptAfter`]
    /// around it for an abandoned session), books the run under its vantage
    /// point's `profiles/*` ledger row and packages the [`CellOutcome`] with
    /// the logic's [`Viewer`]. The packets stream into `sink`; the outcome
    /// carries an empty [`Trace`].
    fn simulate(
        &self,
        scratch: &mut SessionScratch,
        sink: &mut dyn PacketSink,
    ) -> Option<CellOutcome> {
        let mut logic = logic_for(self.client, self.container, self.video)?;
        if let Some(w) = self.watch_time {
            logic = Box::new(InterruptAfter::new(logic, w));
        }
        let path = self.path();
        let base_rtt = path.base_rtt();
        let stem = || flight::file_stem(self);
        let run = run_engine(path, self.seed, self.capture, scratch, &mut logic, sink, stem);
        if collector::is_active() {
            let p = scratch.metrics_mut().profile_mut(self.profile as usize);
            p.sessions += 1;
            p.events_scheduled += run.events_scheduled;
        }
        Some(CellOutcome {
            trace: Trace::new(),
            logic: logic.viewer().expect("every Table 1 logic has a player").clone(),
            connections: run.connection_stats.len(),
            connection_stats: run.connection_stats,
            base_rtt,
        })
    }

    /// The session's path: its vantage point's, with the spec's LRD
    /// aggregate competing on the downlink, seeded from the spec's seed.
    fn path(&self) -> DuplexPath {
        let path = self.profile.build_path();
        match self.cross {
            Some(cfg) => path.with_cross_traffic(CrossTraffic::Lrd(cfg), self.seed),
            None => path,
        }
    }

    /// Resolves the session straight to the features `query` asks for: the
    /// query's composite fold rides the engine's live packet tap, no trace
    /// is ever allocated, and peak analysis state is the fold itself
    /// (recorded under [`Gauge::PeakFlowstateBytes`]).
    ///
    /// When the spec is cacheable (active cache and
    /// [`shared`](Self::shared)) the reply is memoized under
    /// `(spec, query)`, so the engine runs once per distinct question per
    /// run: a **miss** stores a copy of the reply it computed and a **hit**
    /// clones the stored one.
    ///
    /// Metrics bookkeeping keeps a metered ledger independent of the cache
    /// configuration. On a miss, the engine run is bracketed by two
    /// registry takes so the session's exact metrics delta is captured and
    /// stored with the reply; the taken registries are merged straight back
    /// (merge is commutative, counters sum, gauges max), so the worker's
    /// registry ends up exactly as if nothing had been taken. On a hit,
    /// the stored delta is merged in as if the engine had run. The
    /// `cache_*` counters themselves are [`Counter::EXECUTION_DEPENDENT`],
    /// so byte-comparable ledgers (`VSTREAM_WALL=off`) zero them and
    /// cache-on vs `--no-cache` runs serialize identically.
    pub(crate) fn obtain_reply(
        &self,
        scratch: &mut SessionScratch,
        query: &SessionQuery,
    ) -> Option<SessionReply> {
        let key = (cache::is_active() && self.shared).then(|| cache::key_of(self));
        if let Some(cell) = key.as_ref().and_then(|k| cache::lookup(k, query)) {
            let m = scratch.metrics_mut();
            m.merge(&cell.metrics);
            m.add(Counter::CacheHits, 1);
            return cell.reply.clone();
        }
        let bracket = key.map(|k| (k, scratch.metrics_mut().take()));
        let mut fold = CompositeFold::new(query, self.fold_rtt(query));
        let out = self.simulate(scratch, &mut fold);
        scratch
            .metrics_mut()
            .gauge_max(Gauge::PeakFlowstateBytes, fold.approx_bytes() as u64);
        let reply = out.map(|o| SessionReply::assemble(fold, query, o));
        let Some((key, before)) = bracket else {
            return reply;
        };
        let delta = scratch.metrics_mut().take();
        let m = scratch.metrics_mut();
        m.merge(&before);
        m.merge(&delta);
        m.add(Counter::CacheMisses, 1);
        if let Some(bytes) = cache::insert(key, query, reply.clone(), delta) {
            m.add(Counter::CacheBytesRetained, bytes);
        }
        reply
    }

    /// The RTT the ack-clock fold is parameterised with. Reads the path
    /// description directly (not a completed engine), so the fold can be
    /// built before the run; the engine's path is built from the same
    /// profile, so it has the same base RTT.
    fn fold_rtt(&self, query: &SessionQuery) -> SimDuration {
        if query.ack_clock {
            self.profile.build_path().base_rtt()
        } else {
            SimDuration::from_nanos(0)
        }
    }
}

/// What [`run_engine`] hands back besides the logic it ran in place:
/// `(client, server)` endpoint statistics per connection, and the events the
/// session scheduled.
pub(crate) struct EngineRun {
    pub(crate) connection_stats: Vec<(EndpointStats, EndpointStats)>,
    pub(crate) events_scheduled: u64,
}

/// The one place an engine is built, bracketed, run and retired: a
/// [`SessionSpec`] comes through [`SessionSpec::simulate`], an ablation
/// harness with its own [`SessionLogic`] straight from its figure driver, so
/// a sink or classifier attached here sees every engine run. The engine runs
/// over `path` (which carries any competing traffic of its own) from `seed`
/// until `capture`.
///
/// The worker's [`SessionScratch`] is taken for the run and handed back
/// replenished, so back-to-back sessions skip their warm-up allocations —
/// scratch carries capacity, never state. Tapped packets stream into
/// `sink`; a caller that wants the capture passes a [`Trace`].
///
/// The flight recorder brackets the session here: with a dump policy
/// installed (read once, as the bracket opens), a fresh event ring rides the
/// scratch into the engine and back out for a dump decision, the files named
/// by `stem` (built only for a dump). Cache hits never reach here, so they
/// record no events and never rewrite a dump — the miss that filled the
/// entry wrote those bytes.
///
/// The finished logic's [`SessionLogic::viewer`] (`None` without a player)
/// fills the ledger's `app_*` slots and the dump's anomaly header and QoE
/// footer; [`Engine::into_parts`] harvests the layers below.
pub(crate) fn run_engine<L: SessionLogic, S: PacketSink + ?Sized>(
    path: DuplexPath,
    seed: u64,
    capture: SimDuration,
    scratch: &mut SessionScratch,
    logic: &mut L,
    sink: &mut S,
    stem: impl FnOnce() -> String,
) -> EngineRun {
    let policy = flight::policy();
    if let Some(cfg) = &policy {
        scratch.attach_recorder(Recorder::new(cfg.ring_cap));
    }
    let mut eng = Engine::with_scratch(path, seed, capture, std::mem::take(scratch));
    eng.run_observed(logic, sink, false);
    let connection_stats: Vec<_> =
        (0..eng.connection_count()).map(|c| eng.connection_stats(c)).collect();
    // Read before `into_parts` consumes the engine.
    let events_scheduled = eng.queue_stats().scheduled;
    *scratch = eng.into_parts().1;
    let dump = policy.zip(scratch.take_recorder());
    let viewer = logic.viewer();
    debug_assert!(
        viewer.is_none_or(|v| v.read_total() <= servers_sent(&connection_stats)),
        "the application read more bytes than the servers sent"
    );
    if let (true, Some(v)) = (collector::is_active(), viewer) {
        let stats = v.player().stats();
        let m = scratch.metrics_mut();
        m.add(Counter::AppPlayerStalls, stats.stalls as u64);
        m.merge_hist(HistId::AppStallMs, &stats.stall_hist);
        if let Some(delay) = stats.startup_delay {
            m.add(Counter::AppPlaybackStarted, 1);
            m.record(HistId::AppStartupDelayMs, delay.as_nanos() / 1_000_000);
        }
        m.gauge_max(Gauge::AppPeakBufferBytes, stats.peak_buffer_bytes);
        m.add(Counter::AppBlocks, v.blocks());
    }
    if let Some((cfg, ring)) = &dump {
        flight::session_end(cfg, ring, stem, viewer, &connection_stats);
    }
    EngineRun { connection_stats, events_scheduled }
}

/// Payload bytes the session's servers put on the wire — new, retransmitted
/// and zero-window probes (one byte each at most) — an upper bound on what
/// the client application can read. `data_bytes_sent` alone is not one: a
/// segment resent across the highest byte sent so far (after a probe or a
/// timeout rewinds the sender) counts wholly as a retransmission, so the
/// new bytes it carries are missing from it.
pub(crate) fn servers_sent(connection_stats: &[(EndpointStats, EndpointStats)]) -> u64 {
    connection_stats
        .iter()
        .map(|(_, s)| s.data_bytes_sent + s.retx_bytes + s.probes_sent)
        .sum()
}

/// The one session fan-out: `f(scratch, i)` for `i < n` on up to `jobs`
/// workers, results by index. A worker recycles one [`SessionScratch`]
/// through the whole batch and flushes its metrics registry once, at the end.
pub(crate) fn par_sessions<T: Send>(
    n: usize,
    jobs: usize,
    f: impl Fn(&mut SessionScratch, usize) -> T + Sync,
) -> Vec<T> {
    par_indexed_with_finish(n, jobs, SessionScratch::new, f, |mut s| s.flush_metrics())
}

/// The batch path: fan every spec out across the worker pool and reduce
/// each reply to `f(index, reply)` **inside the worker**, so peak memory
/// stays at one live reply per worker. The reducer takes the reply by
/// value: a caller that wants it whole keeps it without a second copy.
///
/// Each spec resolves through [`SessionSpec::obtain_reply`] on its worker's
/// scratch, so shared specs hit (or fill) the session cache and the rest
/// simulate uncached. A spec repeated within one batch takes the same road
/// as one repeated across batches: the later occurrence hits the entry the
/// earlier one stored, or — when two workers miss it at once — both
/// simulate the identical reply and the first insert wins. Either way each
/// index sees the reply it would have computed itself, so output is
/// bit-identical to the uncached path at any worker count.
///
/// It collects no QoE rows: a figure run's `Run::resolve` reads them off
/// the replies in its reducer and appends them to the run's own table.
pub(crate) fn batch_resolve<T, F>(
    specs: &[SessionSpec],
    jobs: usize,
    query: &SessionQuery,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, SessionReply) -> T + Sync,
{
    par_sessions(specs.len(), jobs, |scratch, i| {
        specs[i].obtain_reply(scratch, query).map(|reply| f(i, reply))
    })
}

/// Everything measured from one simulated streaming session.
#[derive(Clone)]
pub struct CellOutcome {
    /// The packet capture taken at the client.
    pub trace: Trace,
    /// The client application's outcome: player, bytes read, blocks and
    /// switches.
    pub logic: Viewer,
    /// Number of TCP connections the session opened.
    pub connections: usize,
    /// Per-connection endpoint statistics `(client, server)`.
    pub connection_stats: Vec<(EndpointStats, EndpointStats)>,
    /// The base round-trip time of the path (needed by the ack-clock
    /// analysis).
    pub base_rtt: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_analysis::{classify, AnalysisConfig, Strategy, TotalsFold};
    use vstream_capture::NullSink;

    fn video() -> Video {
        Video::new(1, 1_000_000, SimDuration::from_secs(600))
    }

    #[test]
    fn spec_run_produces_trace_and_stats() {
        let out = SessionSpec::new(
            Client::Firefox,
            Container::Flash,
            video(),
            NetworkProfile::Research,
            1,
            SimDuration::from_secs(60),
        )
        .run()
        .unwrap();
        assert!(!out.trace.is_empty());
        assert_eq!(out.connections, 1);
        assert!(out.logic.read_total() > 0);
        assert_eq!(
            classify(&out.trace, &AnalysisConfig::default()),
            Strategy::ShortCycles
        );
    }

    #[test]
    fn inapplicable_cell_is_none() {
        assert!(SessionSpec::new(
            Client::Android,
            Container::Flash,
            video(),
            NetworkProfile::Research,
            1,
            SimDuration::from_secs(10),
        )
        .run()
        .is_none());
    }

    #[test]
    fn interrupted_cell_stops_early() {
        let full = SessionSpec::new(
            Client::Firefox,
            Container::Html5,
            video(),
            NetworkProfile::Research,
            2,
            SimDuration::from_secs(120),
        )
        .run()
        .unwrap();
        let cut = SessionSpec::new(
            Client::Firefox,
            Container::Html5,
            video(),
            NetworkProfile::Research,
            2,
            SimDuration::from_secs(120),
        )
        .interrupted(SimDuration::from_secs(3))
        .run()
        .unwrap();
        assert!(cut.trace.total_downloaded() <= full.trace.total_downloaded());
        let mut totals = TotalsFold::new();
        cut.trace.replay(&mut totals);
        assert!(totals.finish().duration <= SimDuration::from_secs(3));
    }

    fn batch(client: Client, container: Container, seed0: u64, secs: u64) -> Vec<SessionSpec> {
        (0..4)
            .map(|i| {
                SessionSpec::new(
                    client,
                    container,
                    video(),
                    NetworkProfile::Research,
                    seed0 + i,
                    SimDuration::from_secs(secs),
                )
            })
            .collect()
    }

    /// What a trace-retaining single run of `spec` reports for the digest
    /// the batch tests compare: downloaded bytes and application reads.
    fn run_digest(spec: &SessionSpec) -> (u64, u64) {
        let one = spec.run().unwrap();
        (one.trace.total_downloaded(), one.logic.read_total())
    }

    #[test]
    fn query_batch_matches_single_runs_and_is_jobs_invariant() {
        let specs = batch(Client::Firefox, Container::Html5, 100, 30);
        let query = SessionQuery::default().totals();
        let digest = |jobs: usize| -> Vec<(u64, u64)> {
            crate::query::query_many_jobs(&specs, jobs, &query)
                .iter()
                .map(|r| {
                    let r = r.as_ref().unwrap();
                    (r.answer.totals.unwrap().total_downloaded, r.logic.read_total())
                })
                .collect()
        };
        let serial = digest(1);
        assert_eq!(serial, digest(4));
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(run_digest(spec), serial[i]);
        }
    }

    #[test]
    fn batch_resolve_reduces_in_worker_and_keeps_order() {
        let specs = batch(Client::Firefox, Container::Flash, 200, 20);
        let query = SessionQuery::default().totals();
        let reduced = batch_resolve(&specs, 3, &query, |i, reply| {
            (i, reply.answer.totals.unwrap().total_downloaded)
        });
        for (i, item) in reduced.iter().enumerate() {
            let (idx, downloaded) = item.unwrap();
            assert_eq!(idx, i);
            assert_eq!(downloaded, run_digest(&specs[i]).0);
        }
    }

    #[test]
    fn batch_preserves_inapplicable_cells_as_none() {
        let ok = SessionSpec::new(
            Client::Firefox,
            Container::Flash,
            video(),
            NetworkProfile::Research,
            1,
            SimDuration::from_secs(10),
        );
        // Mobile clients have no Flash: must stay None, in position.
        let bad = SessionSpec {
            client: Client::Android,
            ..ok
        };
        let outs = crate::query::query_many_jobs(&[ok, bad, ok], 3, &SessionQuery::default());
        assert!(outs[0].is_some());
        assert!(outs[1].is_none());
        assert!(outs[2].is_some());
    }

    /// A harness-style logic without a player goes through the same
    /// bracket: the engine-level harvest counts the session, the app-layer
    /// one adds nothing, and the flight dump is written under the caller's
    /// stem without a QoE footer. A spec session dumped in the same window
    /// ends in a footer that parses to its player's counters.
    ///
    /// The flight policy and the collector are process-wide, so unit tests
    /// running beside this one record and flush into them while it holds
    /// them; both are output-neutral, and the test reads only its own
    /// scratch registry and its own stem's files.
    #[test]
    fn bracket_without_a_player_harvests_no_app_numbers_and_still_dumps() {
        struct Download {
            size: u64,
            read: u64,
        }
        impl SessionLogic for Download {
            fn on_start(&mut self, eng: &mut Engine) {
                let cfg = vstream_tcp::TcpConfig::default();
                eng.open_connection(cfg.clone(), cfg);
            }
            fn on_established(&mut self, eng: &mut Engine, conn: usize) {
                eng.server_write(conn, self.size);
                eng.server_close(conn);
            }
            fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
                self.read += eng.client_read(conn, u64::MAX);
            }
        }
        let dir = std::env::temp_dir().join(format!("vstream-bracket-test-{}", std::process::id()));
        flight::install(flight::TraceConfig {
            dir: dir.clone(),
            anomalies_only: false,
            ring_cap: 256,
        })
        .expect("temp dir is writable");
        collector::install(false);

        let mut scratch = SessionScratch::new();
        let mut logic = Download { size: 300_000, read: 0 };
        let path = NetworkProfile::Research.build_path();
        let stem = "bracket-test-noplayer";
        let capture = SimDuration::from_secs(30);
        let run = run_engine(path, 5, capture, &mut scratch, &mut logic, &mut NullSink, || {
            stem.to_string()
        });
        let spec = SessionSpec::new(
            Client::Dash,
            Container::Html5,
            video(),
            NetworkProfile::Residence,
            4242,
            SimDuration::from_secs(60),
        );
        let played = spec.run().expect("DASH/HTML5 is an applicable cell");
        flight::uninstall();
        let m = scratch.metrics_mut().take();
        collector::take();

        assert_eq!(logic.read, 300_000);
        assert_eq!(run.connection_stats.len(), 1);
        assert_eq!(m.counter(Counter::SimSessions), 1);
        assert_eq!(m.counter(Counter::TcpConnections), 1);
        assert_eq!(m.counter(Counter::SimEventsScheduled), run.events_scheduled);
        assert_eq!(m.counter(Counter::AppPlaybackStarted), 0);
        assert_eq!(m.counter(Counter::AppPlayerStalls), 0);
        assert_eq!(m.counter(Counter::AppBlocks), 0);
        assert_eq!(m.hist(HistId::AppStartupDelayMs).count(), 0);
        assert_eq!(m.gauge(Gauge::AppPeakBufferBytes), 0);

        let text = std::fs::read_to_string(dir.join(format!("{stem}.txt"))).expect("text dump");
        let json = std::fs::read_to_string(dir.join(format!("{stem}.trace.json"))).expect("json dump");
        let played_text = std::fs::read_to_string(dir.join(format!("{}.txt", flight::file_stem(&spec))))
            .expect("spec session dump");
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.starts_with("# session bracket-test-noplayer\n"));
        assert!(text.contains("# anomaly: no (stall_max 0 ms, timeouts 0)\n"), "{text}");
        assert!(!text.contains("# qoe"), "a session without a player has no QoE footer");
        assert!(json.contains("\"session\":\"bracket-test-noplayer\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let footer = played_text.lines().last().expect("footer line");
        let fields: Vec<(&str, u64)> = footer
            .strip_prefix("# qoe: ")
            .expect("footer prefix")
            .split(' ')
            .map(|kv| kv.split_once('=').expect("key=value"))
            .map(|(k, v)| (k, v.parse().expect("a started player has nonnegative fields")))
            .collect();
        let p = played.logic.player().stats();
        assert_eq!(
            fields,
            [
                ("startup_ns", p.startup_delay.expect("playback started").as_nanos()),
                ("stalls", p.stalls as u64),
                ("completed", p.stalls_completed as u64),
                ("stall_total_ns", p.stall_time.as_nanos()),
                ("stall_max_ns", p.stall_max.as_nanos()),
                ("blocks", played.logic.blocks()),
            ],
            "{footer}"
        );
    }

    /// A 0 % LRD load has a zero peak rate: the path has no source for the
    /// engine to schedule, so the session is the cross-free one, event for
    /// event.
    #[test]
    fn zero_load_lrd_aggregate_is_the_cross_free_session() {
        let spec = SessionSpec::new(
            Client::Dash,
            Container::Html5,
            video(),
            NetworkProfile::Home,
            9,
            SimDuration::from_secs(60),
        );
        let lrd = |permille| {
            spec.with_lrd_cross(LrdCrossConfig::for_load(NetworkProfile::Home.down_bps(), permille))
        };
        let query = SessionQuery::default().totals().qoe().summaries();
        let render = |s: &SessionSpec| {
            let r = crate::query::query_many_jobs(&[*s], 1, &query).remove(0).unwrap();
            format!("{:?} {:?} {:?}", r.answer, r.logic.player().stats(), r.connection_stats)
        };
        assert_eq!(render(&spec), render(&lrd(0)));
        let events = |s: &SessionSpec| {
            let mut logic = logic_for(s.client, s.container, s.video).unwrap();
            let (mut scratch, sink) = (SessionScratch::new(), &mut NullSink);
            let stem = || "zero-load-lrd-test".to_string();
            let (path, seed, capture) = (s.path(), s.seed, s.capture);
            run_engine(path, seed, capture, &mut scratch, &mut logic, sink, stem).events_scheduled
        };
        assert_eq!(events(&spec), events(&lrd(0)));
        assert_ne!(events(&spec), events(&lrd(250)), "a nonzero load schedules its sources");
    }

    /// A capture retained through the sink ([`SessionSpec::run`], a
    /// [`Trace`] as the sink) round-trips through the packed form. Netflix
    /// PC on the lossy Residence path opens several connections and sends
    /// SACKs, so every field is exercised.
    #[test]
    fn sink_retention_packs_multi_connection_sack_captures() {
        let spec = SessionSpec::new(
            Client::Firefox,
            Container::Silverlight,
            Video::new(0, 3_000_000, SimDuration::from_secs(2400)),
            NetworkProfile::Residence,
            11,
            SimDuration::from_secs(60),
        );
        let sunk = spec.run().unwrap().trace;
        let conns: std::collections::BTreeSet<u32> = sunk.records().map(|p| p.conn).collect();
        assert!(conns.len() > 1, "{} connection(s)", conns.len());
        let sacks = sunk.records().filter(|p| p.flags & vstream_capture::FLAG_SACK != 0);
        assert!(sacks.count() > 0, "the lossy path carried SACKs");
        assert_eq!(vstream_capture::PackedTrace::pack(&sunk).unpack(), sunk);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let out = SessionSpec::new(
                Client::InternetExplorer,
                Container::Html5,
                video(),
                NetworkProfile::Residence,
                7,
                SimDuration::from_secs(60),
            )
            .run()
            .unwrap();
            (out.trace.len(), out.logic.read_total())
        };
        assert_eq!(run(), run());
    }
}
