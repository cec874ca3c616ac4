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
//! [`query_many`](crate::query::query_many) (through [`batch_resolve`]) is
//! the one batch entrance and what the figure drivers use: analysis folds on
//! the live packet tap, no trace, replies memoized by the
//! [session cache](crate::cache). [`SessionSpec::run`] runs one session and
//! retains its packet [`Trace`] for consumers of raw packets (pcap export,
//! trace inspection, test oracles); it always simulates and never touches
//! the cache.

use std::sync::atomic::{AtomicUsize, Ordering};

use vstream_app::engine::Engine;
pub use vstream_app::engine::SessionScratch;
use vstream_app::strategies::InterruptAfter;
use vstream_app::{PlayerStats, Video};
use vstream_capture::{NullSink, PacketSink, Trace};
use vstream_net::{LrdCrossConfig, NetworkProfile};
use vstream_obs::{collector, Counter, Gauge, HistId};
use vstream_sim::{exec, SimDuration};
use vstream_tcp::EndpointStats;
use vstream_workload::{logic_for, Client, Container, StrategyLogic};

use crate::cache;
use crate::query::{CompositeFold, SessionQuery, SessionReply};
use crate::{flight, qoe};

/// Worker count used by the figure/table drivers; `0` selects the host's
/// available parallelism.
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count used by batch runs that do not pass an explicit
/// count (the figure and table drivers). `0` restores the default: one
/// worker per available core. Results do not depend on this value — only
/// wall-clock time does.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count batch runs use when not given one explicitly.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => exec::default_jobs(),
        n => n,
    }
}

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
    /// retention. Set by [`SessionSpec::shared`] for the cross-figure cell
    /// stream (`figures::cell_specs`); one-off sessions leave it false so
    /// the cache never retains memory no later driver reads. Not part of
    /// the cache key — it changes where the result lives, never what it is.
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
    /// instead of re-simulating.
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Runs the session, retaining its packet trace. `None` for
    /// inapplicable Table 1 cells (mobile clients have no Flash). Always
    /// simulates: the [session cache](crate::cache) stores query replies,
    /// not traces.
    pub fn run(&self) -> Option<CellOutcome> {
        let mut scratch = self.fresh_scratch();
        let out = self.simulate(&mut scratch, None);
        scratch.flush_metrics();
        out
    }

    /// The engine path. The worker's [`SessionScratch`] is taken for the
    /// run and handed back replenished, so back-to-back sessions skip their
    /// warm-up allocations — scratch carries capacity, never state. With a
    /// `tap`, every emitted packet is pushed into it as the simulation
    /// runs, the session never allocates trace columns and the returned
    /// outcome carries an empty [`Trace`]; without one the capture is
    /// retained.
    ///
    /// This is where the flight recorder brackets a session: a fresh
    /// per-session event ring before the engine, a dump decision after.
    /// Cache hits never reach here, so they record no events and never
    /// rewrite a dump — the miss that populated the entry already wrote the
    /// identical bytes.
    fn simulate(
        &self,
        scratch: &mut SessionScratch,
        tap: Option<&mut dyn PacketSink>,
    ) -> Option<CellOutcome> {
        let logic = logic_for(self.client, self.container, self.video)?;
        let bracket = flight::session_begin();
        let mut eng = Engine::with_scratch(
            self.profile.build_path(),
            self.seed,
            self.capture,
            std::mem::take(scratch),
        );
        if let Some(cfg) = self.cross {
            eng.set_lrd_cross_traffic(cfg, self.seed);
        }
        let keep_trace = tap.is_none();
        let mut null = NullSink;
        let sink = tap.unwrap_or(&mut null);
        let logic = match self.watch_time {
            Some(w) => {
                let mut wrapped = InterruptAfter::new(logic, w);
                eng.run_observed(&mut wrapped, sink, keep_trace);
                wrapped.inner
            }
            None => {
                let mut logic = logic;
                eng.run_observed(&mut logic, sink, keep_trace);
                logic
            }
        };
        let connections = eng.connection_count();
        let connection_stats = (0..connections).map(|c| eng.connection_stats(c)).collect();
        let base_rtt = eng.base_rtt();
        // Per-profile attribution must read the queue before `into_parts`
        // consumes the engine; the engine-level harvest happens inside it.
        let obs_active = collector::is_active();
        let events_scheduled = if obs_active { eng.queue_stats().scheduled } else { 0 };
        let (trace, recycled) = eng.into_parts();
        *scratch = recycled;
        if obs_active {
            let m = scratch.metrics_mut();
            let p = m.profile_mut(self.profile as usize);
            p.sessions += 1;
            p.events_scheduled += events_scheduled;
            let stats = logic.player().stats();
            m.add(Counter::AppPlayerStalls, stats.stalls as u64);
            m.merge_hist(HistId::AppStallMs, &stats.stall_hist);
            if let Some(delay) = stats.startup_delay {
                m.add(Counter::AppPlaybackStarted, 1);
                m.record(HistId::AppStartupDelayMs, delay.as_nanos() / 1_000_000);
            }
            m.gauge_max(Gauge::AppPeakBufferBytes, stats.peak_buffer_bytes);
            m.add(Counter::AppBlocks, logic.blocks());
        }
        let out = CellOutcome {
            trace,
            logic,
            connections,
            connection_stats,
            base_rtt,
        };
        if bracket {
            flight::session_end(self, &out);
        }
        Some(out)
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
        let out = self.simulate(scratch, Some(&mut fold));
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
    /// built before the run; equals
    /// [`Engine::base_rtt`](vstream_app::engine::Engine) by construction.
    fn fold_rtt(&self, query: &SessionQuery) -> SimDuration {
        if query.ack_clock {
            self.profile.build_path().base_rtt()
        } else {
            SimDuration::from_nanos(0)
        }
    }

    /// A scratch pre-sized for this spec: the trace buffer starts at the
    /// profile's line-rate packet bound, clamped so a 180 s capture at
    /// 100 Mbps does not allocate millions of slots up front.
    fn fresh_scratch(&self) -> SessionScratch {
        SessionScratch::with_trace_capacity(
            self.profile.expected_capture_packets(self.capture).min(1 << 16),
        )
    }
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
/// When the [QoE collector](crate::qoe) is installed, each worker also
/// derives a [`qoe::QoeRow`] per applicable spec during the fan-out; the
/// rows come back by index and are pushed to the collector in ascending
/// spec order, so the table never sees worker interleaving.
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
    let collect_qoe = qoe::is_active();
    let (results, rows): (Vec<Option<T>>, Vec<Option<qoe::QoeRow>>) =
        exec::par_indexed_with_finish(
            specs.len(),
            jobs,
            || batch_scratch(specs),
            |scratch, i| {
                let reply = specs[i].obtain_reply(scratch, query);
                let row = if collect_qoe {
                    reply.as_ref().map(|r| qoe::QoeRow::of(&specs[i], &r.logic))
                } else {
                    None
                };
                (reply.map(|r| f(i, r)), row)
            },
            |mut scratch| scratch.flush_metrics(),
        )
        .into_iter()
        .unzip();
    if collect_qoe {
        qoe::push_batch(rows);
    }
    results
}

/// The scratch a batch worker starts with: pre-sized from the first spec,
/// since a batch is typically homogeneous in profile and capture length.
fn batch_scratch(specs: &[SessionSpec]) -> SessionScratch {
    specs
        .first()
        .map(SessionSpec::fresh_scratch)
        .unwrap_or_default()
}

/// Everything measured from one simulated streaming session.
#[derive(Clone)]
pub struct CellOutcome {
    /// The packet capture taken at the client.
    pub trace: Trace,
    /// The strategy logic after the run (player stats, read counters).
    pub logic: StrategyLogic,
    /// Number of TCP connections the session opened.
    pub connections: usize,
    /// Per-connection endpoint statistics `(client, server)`.
    pub connection_stats: Vec<(EndpointStats, EndpointStats)>,
    /// The base round-trip time of the path (needed by the ack-clock
    /// analysis).
    pub base_rtt: SimDuration,
}

impl CellOutcome {
    /// The player statistics.
    pub fn player_stats(&self) -> PlayerStats {
        self.logic.player().stats()
    }
}

/// Streams `video` with the given client/container combination over
/// `profile`, capturing for `capture` seconds (the paper used 180 s).
///
/// Returns `None` for inapplicable Table 1 cells (mobile clients have no
/// Flash).
pub fn run_cell(
    client: Client,
    container: Container,
    video: Video,
    profile: NetworkProfile,
    seed: u64,
    capture: SimDuration,
) -> Option<CellOutcome> {
    SessionSpec::new(client, container, video, profile, seed, capture).run()
}

/// Like [`run_cell`], but the viewer abandons the session after
/// `watch_time` (§6.2 experiments).
pub fn run_cell_interrupted(
    client: Client,
    container: Container,
    video: Video,
    profile: NetworkProfile,
    seed: u64,
    capture: SimDuration,
    watch_time: SimDuration,
) -> Option<CellOutcome> {
    SessionSpec::new(client, container, video, profile, seed, capture)
        .interrupted(watch_time)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_analysis::{classify, AnalysisConfig, Strategy};

    fn video() -> Video {
        Video::new(1, 1_000_000, SimDuration::from_secs(600))
    }

    #[test]
    fn run_cell_produces_trace_and_stats() {
        let out = run_cell(
            Client::Firefox,
            Container::Flash,
            video(),
            NetworkProfile::Research,
            1,
            SimDuration::from_secs(60),
        )
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
        assert!(run_cell(
            Client::Android,
            Container::Flash,
            video(),
            NetworkProfile::Research,
            1,
            SimDuration::from_secs(10),
        )
        .is_none());
    }

    #[test]
    fn interrupted_cell_stops_early() {
        let full = run_cell(
            Client::Firefox,
            Container::Html5,
            video(),
            NetworkProfile::Research,
            2,
            SimDuration::from_secs(120),
        )
        .unwrap();
        let cut = run_cell_interrupted(
            Client::Firefox,
            Container::Html5,
            video(),
            NetworkProfile::Research,
            2,
            SimDuration::from_secs(120),
            SimDuration::from_secs(3),
        )
        .unwrap();
        assert!(cut.trace.total_downloaded() <= full.trace.total_downloaded());
        assert!(cut.trace.duration() <= SimDuration::from_secs(3));
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

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let out = run_cell(
                Client::InternetExplorer,
                Container::Html5,
                video(),
                NetworkProfile::Residence,
                7,
                SimDuration::from_secs(60),
            )
            .unwrap();
            (out.trace.len(), out.logic.read_total())
        };
        assert_eq!(run(), run());
    }
}
