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
//! Two families of entry points. [`query_many`](crate::query::query_many)
//! (through [`batch_resolve`]) is what the figure drivers use: analysis
//! folds on the live packet tap, no trace, replies memoized by the
//! [session cache](crate::cache). [`SessionSpec::run`], [`run_many`] and
//! [`map_many`] retain the packet [`Trace`] for consumers of raw packets
//! (pcap export, trace inspection, test oracles); they always simulate and
//! never touch the cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vstream_app::engine::Engine;
pub use vstream_app::engine::SessionScratch;
use vstream_app::strategies::InterruptAfter;
use vstream_app::{PlayerStats, Video};
use vstream_capture::{PacketSink, Trace};
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
        let out = self.run_with_scratch(&mut scratch);
        scratch.flush_metrics();
        out
    }

    /// Like [`SessionSpec::run`], but reusing (and replenishing) a worker's
    /// [`SessionScratch`] so back-to-back sessions skip their warm-up
    /// allocations. The outcome is bit-identical to [`SessionSpec::run`] —
    /// scratch carries capacity, never state.
    pub fn run_with_scratch(&self, scratch: &mut SessionScratch) -> Option<CellOutcome> {
        self.simulate(scratch, None)
    }

    /// The engine path. With a `tap`, every emitted packet is pushed into
    /// it as the simulation runs, the session never allocates trace columns
    /// and the returned outcome carries an empty [`Trace`]; without one the
    /// capture is retained.
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
        let logic = match self.watch_time {
            Some(w) => {
                let mut wrapped = InterruptAfter::new(logic, w);
                match tap {
                    Some(sink) => eng.run_observed(&mut wrapped, sink, false),
                    None => eng.run(&mut wrapped),
                }
                wrapped.inner
            }
            None => {
                let mut logic = logic;
                match tap {
                    Some(sink) => eng.run_observed(&mut logic, sink, false),
                    None => eng.run(&mut logic),
                }
                logic
            }
        };
        let connections = eng.connection_count();
        let connection_stats = (0..connections).map(|c| eng.connection_stats(c)).collect();
        let base_rtt = eng.base_rtt();
        // Per-profile attribution must read the queue before `into_parts`
        // consumes the engine; the engine-level harvest happens inside it.
        let obs_active = collector::is_active();
        let (events_scheduled, wheel_spills) = if obs_active {
            let q = eng.queue_stats();
            (q.scheduled, q.spill_pushes)
        } else {
            (0, 0)
        };
        let (trace, recycled) = eng.into_parts();
        *scratch = recycled;
        if obs_active {
            let m = scratch.metrics_mut();
            let p = m.profile_mut(self.profile as usize);
            p.sessions += 1;
            p.events_scheduled += events_scheduled;
            p.wheel_spills += wheel_spills;
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
    /// clones the stored one. The retained entry is handed back so
    /// [`batch_resolve`] can replay its metrics for in-batch duplicates.
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
    ) -> (Option<SessionReply>, Option<Arc<cache::CachedReply>>) {
        let key = (cache::is_active() && self.shared).then(|| cache::key_of(self));
        if let Some(cell) = key.as_ref().and_then(|k| cache::lookup(k, query)) {
            let m = scratch.metrics_mut();
            m.merge(&cell.metrics);
            m.add(Counter::CacheHits, 1);
            return (cell.reply.clone(), Some(cell));
        }
        let bracket = key.map(|k| (k, scratch.metrics_mut().take()));
        let mut fold = CompositeFold::new(query, self.fold_rtt(query));
        let out = self.simulate(scratch, Some(&mut fold));
        scratch
            .metrics_mut()
            .gauge_max(Gauge::PeakFlowstateBytes, fold.approx_bytes() as u64);
        let reply = out.map(|o| SessionReply::assemble(fold, query, o));
        let Some((key, before)) = bracket else {
            return (reply, None);
        };
        let delta = scratch.metrics_mut().take();
        let m = scratch.metrics_mut();
        m.merge(&before);
        m.merge(&delta);
        m.add(Counter::CacheMisses, 1);
        let (cell, inserted) = cache::insert(key, query, reply.clone(), delta);
        if inserted {
            m.add(Counter::CacheBytesRetained, cell.bytes);
        }
        (reply, Some(cell))
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

/// Runs every spec, up to [`default_jobs`] sessions in parallel, and returns
/// the outcomes — traces included — ordered by spec index.
pub fn run_many(specs: &[SessionSpec]) -> Vec<Option<CellOutcome>> {
    run_many_jobs(specs, default_jobs())
}

/// [`run_many`] with an explicit worker count.
///
/// Each worker keeps one [`SessionScratch`] alive across the sessions it
/// runs, so only a worker's first session pays the queue/buffer/trace
/// warm-up allocations. Scratch reuse never changes results — the
/// jobs-invariance test below and `scripts/check_determinism.sh` hold this.
pub fn run_many_jobs(specs: &[SessionSpec], jobs: usize) -> Vec<Option<CellOutcome>> {
    batch_run(specs, jobs, |_, out| out)
}

/// Runs every spec and reduces each outcome to `f(index, &outcome)` **inside
/// the worker**, so a session's packet trace is dropped before the next
/// session on that worker starts. Prefer this over [`run_many`] for large
/// batches: it keeps peak memory at one trace per worker instead of one per
/// session.
pub fn map_many<T, F>(specs: &[SessionSpec], f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, &CellOutcome) -> T + Sync,
{
    batch_run(specs, default_jobs(), |i, out| f(i, &out))
}

/// The trace-retaining batch path: every spec simulates on a worker's
/// scratch and is reduced in-worker.
fn batch_run<T, F>(specs: &[SessionSpec], jobs: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, CellOutcome) -> T + Sync,
{
    exec::par_indexed_with_finish(
        specs.len(),
        jobs,
        || batch_scratch(specs),
        |scratch, i| specs[i].run_with_scratch(scratch).map(|out| f(i, out)),
        |mut scratch| scratch.flush_metrics(),
    )
}

/// The query batch path: dedup before dispatch, reduce in-worker.
///
/// Duplicate cacheable specs within the batch are computed once —
/// [`exec::dedup_by_key`] picks each distinct spec's first occurrence as
/// its *leader*, only the leaders fan out across the worker pool (each
/// resolving through [`SessionSpec::obtain_reply`], so cross-figure hits
/// short-circuit too), and the worker that resolves a leader immediately
/// reduces every duplicate's `f` against the same reply, replaying the
/// entry's metrics delta per duplicate exactly like any other cache hit.
/// Non-shared specs get per-index sentinel keys, so they never dedup and
/// follow the plain uncached path inside [`SessionSpec::obtain_reply`].
///
/// Results are scattered back by original index and each index sees the
/// same reply it would have computed itself, so output is bit-identical
/// to the uncached path at any worker count. Peak memory stays at one
/// live reply per worker.
///
/// When the [QoE collector](crate::qoe) is installed, each worker also
/// derives a [`qoe::QoeRow`] per applicable member during the fan-out; the
/// rows are scattered back by index and pushed to the collector in
/// ascending spec order, so the table never sees worker interleaving.
pub(crate) fn batch_resolve<T, F>(
    specs: &[SessionSpec],
    jobs: usize,
    query: &SessionQuery,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, &SessionReply) -> T + Sync,
{
    let cacheable = cache::is_active();
    let keys: Vec<cache::SessionKey> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if cacheable && s.shared {
                cache::key_of(s)
            } else {
                // Sentinel: real keys start with a small client
                // discriminant, so `u64::MAX` cannot collide.
                let mut k = [0u64; 14];
                k[0] = u64::MAX;
                k[1] = i as u64;
                k
            }
        })
        .collect();
    let (leaders, owner) = exec::dedup_by_key(&keys);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); leaders.len()];
    for (i, &o) in owner.iter().enumerate() {
        members[o].push(i);
    }
    let collect_qoe = qoe::is_active();
    let per_leader: Vec<Vec<(usize, Option<T>, Option<qoe::QoeRow>)>> =
        exec::par_indexed_with_finish(
            leaders.len(),
            jobs,
            || batch_scratch(specs),
            |scratch, u| {
                let leader = leaders[u];
                let (out, cell) = specs[leader].obtain_reply(scratch, query);
                members[u]
                    .iter()
                    .map(|&i| {
                        if i != leader {
                            if let Some(cell) = &cell {
                                let m = scratch.metrics_mut();
                                m.merge(&cell.metrics);
                                m.add(Counter::CacheHits, 1);
                            }
                        }
                        let row = if collect_qoe {
                            out.as_ref().map(|o| qoe::QoeRow::of(&specs[i], &o.logic))
                        } else {
                            None
                        };
                        (i, out.as_ref().map(|o| f(i, o)), row)
                    })
                    .collect()
            },
            |mut scratch| scratch.flush_metrics(),
        );
    let mut results: Vec<Option<T>> = Vec::with_capacity(specs.len());
    results.resize_with(specs.len(), || None);
    let mut rows: Vec<Option<qoe::QoeRow>> = Vec::new();
    if collect_qoe {
        rows.resize_with(specs.len(), || None);
    }
    for group in per_leader {
        for (i, r, row) in group {
            results[i] = r;
            if collect_qoe {
                rows[i] = row;
            }
        }
    }
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

    /// Sum of server-side retransmitted bytes across connections.
    pub fn total_retx_bytes(&self) -> u64 {
        self.connection_stats.iter().map(|(_, s)| s.retx_bytes).sum()
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

    #[test]
    fn run_many_matches_run_cell_and_is_jobs_invariant() {
        let specs: Vec<SessionSpec> = (0..4)
            .map(|i| {
                SessionSpec::new(
                    Client::Firefox,
                    Container::Html5,
                    video(),
                    NetworkProfile::Research,
                    100 + i,
                    SimDuration::from_secs(30),
                )
            })
            .collect();
        let digest = |outs: Vec<Option<CellOutcome>>| -> Vec<(usize, u64)> {
            outs.iter()
                .map(|o| {
                    let o = o.as_ref().unwrap();
                    (o.trace.len(), o.logic.read_total())
                })
                .collect()
        };
        let serial = digest(run_many_jobs(&specs, 1));
        let parallel = digest(run_many_jobs(&specs, 4));
        assert_eq!(serial, parallel);
        for (i, spec) in specs.iter().enumerate() {
            let one = spec.run().unwrap();
            assert_eq!((one.trace.len(), one.logic.read_total()), serial[i]);
        }
    }

    #[test]
    fn map_many_reduces_in_worker_and_keeps_order() {
        let specs: Vec<SessionSpec> = (0..3)
            .map(|i| {
                SessionSpec::new(
                    Client::Firefox,
                    Container::Flash,
                    video(),
                    NetworkProfile::Research,
                    200 + i,
                    SimDuration::from_secs(20),
                )
            })
            .collect();
        let lens = map_many(&specs, |i, out| (i, out.trace.len()));
        for (i, item) in lens.iter().enumerate() {
            let (idx, len) = item.unwrap();
            assert_eq!(idx, i);
            assert_eq!(len, specs[i].run().unwrap().trace.len());
        }
    }

    #[test]
    fn run_many_preserves_inapplicable_cells_as_none() {
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
        let outs = run_many_jobs(&[ok, bad, ok], 3);
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
