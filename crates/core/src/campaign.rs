//! Million-user campaign mode: the hybrid fluid/packet executor.
//!
//! The paper's §6 model prices an ISP-scale aggregate analytically (Eqs.
//! 3/4); the packet engine prices one session exactly, at ~milliseconds
//! each. A **campaign** pairs the two: it deterministically samples a
//! packet-level shard of N sessions from a population spec (strategy mix,
//! vantage-point mix, encoding/duration distributions), reduces each shard
//! to constant-size counters and a binned aggregate-rate timeline, then
//! scales to millions of viewers through the closed forms — with the packet
//! shard *calibrating* the model (empirical session size and ON-rate) and
//! *cross-validating* it (superposed-timeline moments vs. Eq. 3/4, a
//! tolerance gate recorded in the output ledger).
//!
//! Determinism and resumability are the design constraints:
//!
//! * Every session's parameters derive from its identity
//!   ([`vstream_sim::derive_seed`] over `(campaign seed, index)`), never
//!   from execution order, so output is byte-identical at any `--jobs`.
//! * Sessions run in fixed-size shards ([`vstream_sim::ShardPlan`]); each
//!   shard's reduction is integer-only (bits per 1 s bin, µs QoE sums) and
//!   folds in index order, so a shard's state has exactly one value.
//! * A completed shard checkpoints its reduction (plus the resume cursor —
//!   its position in the plan) to a content-addressed ledger directory:
//!   `<dir>/campaign-<key>/shard-NNNN.ckpt`, where `key` hashes the full
//!   [`CampaignSpec`]. An interrupted campaign resumes by loading finished
//!   shards and computing only the rest; because checkpoint state is
//!   integer and merged in shard order, a resumed run's output is
//!   byte-identical to an uninterrupted one.
//!
//! Memory stays constant per shard: sessions resolve through the
//! [`query`](crate::query) layer (the PR 7 fold machinery — in streaming
//! mode no trace is ever retained), each reply is reduced in-worker to a
//! few hundred bytes, and the shard fold owns the only timeline.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vstream_model::{mix_aggregate_moments, provisioned_capacity, MixComponent, PopulationModel};
use vstream_net::NetworkProfile;
use vstream_sim::{derive_seed, ShardPlan, SimDuration, SimRng};
use vstream_workload::{Client, Container};

use crate::qoe::QoeSummary;
use crate::query::{SessionQuery, SessionReply};
use crate::report::TableData;
use crate::session::{batch_resolve, SessionSpec};

/// Identity tag for campaign session seeds (cf. `figures::STREAM_CELL`).
const CAMPAIGN_TAG: u64 = 0xCA59;

/// Extra capture beyond the sampled video duration: startup plus headroom
/// for stall-stretched sessions.
const CAPTURE_SLACK_SECS: f64 = 60.0;

/// Checkpoint format version; bumping it invalidates old ledgers.
const SHARD_FORMAT: &str = "vstream-campaign-shard v1";

/// The longest arrival window [`CampaignSpec::validate`] accepts, seconds
/// (30 days). Each shard's aggregate timeline holds one `u64` bin per second
/// of the window, so an unbounded window is an unbounded allocation.
pub const MAX_WINDOW_SECS: u64 = 30 * 86_400;

/// The default capacity-table scales (concurrent viewers).
pub const DEFAULT_SCALES: [u64; 3] = [10_000, 100_000, 1_000_000];

/// The three traffic shapes a campaign population mixes, each mapped to the
/// Table 1 cell that produces it at packet level and to its fluid-model
/// counterpart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignStrategy {
    /// Server-paced 64 kB blocks (YouTube Flash in a desktop browser).
    ShortCycles,
    /// Client-pulled multi-megabyte ranges (HTML5 on Chrome).
    LongCycles,
    /// One continuous transfer, no ON-OFF structure (HTML5 on Firefox).
    Bulk,
}

impl CampaignStrategy {
    /// All shapes, in mix/tally order.
    pub const ALL: [CampaignStrategy; 3] = [
        CampaignStrategy::ShortCycles,
        CampaignStrategy::LongCycles,
        CampaignStrategy::Bulk,
    ];

    /// Stable label for tables and ledgers.
    pub fn label(self) -> &'static str {
        match self {
            CampaignStrategy::ShortCycles => "short-cycles",
            CampaignStrategy::LongCycles => "long-cycles",
            CampaignStrategy::Bulk => "bulk",
        }
    }

    /// The Table 1 cell simulated for this shape.
    pub fn cell(self) -> (Client, Container) {
        match self {
            CampaignStrategy::ShortCycles => (Client::Firefox, Container::Flash),
            CampaignStrategy::LongCycles => (Client::Chrome, Container::Html5),
            CampaignStrategy::Bulk => (Client::Firefox, Container::Html5),
        }
    }

    /// The fluid-model shape of this strategy.
    pub fn fluid(self) -> vstream_model::FluidStrategy {
        match self {
            CampaignStrategy::ShortCycles => vstream_model::FluidStrategy::short_cycles(),
            CampaignStrategy::LongCycles => vstream_model::FluidStrategy::long_cycles(),
            CampaignStrategy::Bulk => vstream_model::FluidStrategy::Bulk,
        }
    }

    fn index(self) -> usize {
        match self {
            CampaignStrategy::ShortCycles => 0,
            CampaignStrategy::LongCycles => 1,
            CampaignStrategy::Bulk => 2,
        }
    }
}

/// A campaign population: who arrives, over what networks, watching what —
/// plus the packet-shard sampling parameters and the cross-validation
/// tolerances. Every field is part of the campaign's identity
/// ([`CampaignSpec::key`]); two equal specs resolve to the same ledger.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Headline concurrent-viewer count (the top capacity-table scale).
    pub viewers: u64,
    /// Packet-level sessions sampled for the calibration shard.
    pub packet_sessions: usize,
    /// Sessions per shard (the checkpoint/resume granularity).
    pub shard_size: usize,
    /// Root seed; every session seed derives from `(seed, index)`.
    pub seed: u64,
    /// Arrival window of the packet shard, seconds (sessions arrive
    /// uniformly over it — a Poisson process conditioned on its count).
    pub window_secs: u64,
    /// Encoding-rate range (uniform), bits/second.
    pub encoding_bps: (f64, f64),
    /// Video-duration range (uniform), seconds.
    pub duration_secs: (f64, f64),
    /// Strategy mix as `(shape, integer weight)`.
    pub strategy_mix: Vec<(CampaignStrategy, u32)>,
    /// Vantage-point mix as `(profile, integer weight)`.
    pub profile_mix: Vec<(NetworkProfile, u32)>,
    /// Viewer counts for the capacity table (the headline count is added
    /// automatically).
    pub scales: Vec<u64>,
    /// Cross-validation gate: max relative error of the empirical aggregate
    /// mean vs. the Eq. 3 prediction.
    pub tol_mean: f64,
    /// Gate tolerance for the variance vs. Eq. 4. Looser than the mean:
    /// the variance estimator sees roughly `window / duration` independent
    /// aggregate states, so small shards carry real estimator noise.
    pub tol_var: f64,
}

impl CampaignSpec {
    /// The default campaign at a given scale: the `model-agg` population
    /// (0.5–1.5 Mbps encodings, 2–6 minute videos) over all four vantage
    /// points, mixing short cycles, long cycles, and bulk no-cycle
    /// sessions 5:3:2. The packet shard grows sublinearly with the viewer
    /// count — the analytic half absorbs the rest.
    pub fn for_viewers(viewers: u64) -> CampaignSpec {
        // Below ~128 sessions the steady window holds too few correlation
        // times for the moment estimates to gate meaningfully, so the
        // packet shard never shrinks past that even for small campaigns.
        let packet_sessions = (viewers / 1_000).clamp(128, 384) as usize;
        CampaignSpec {
            viewers,
            packet_sessions,
            shard_size: 32,
            seed: 2026,
            window_secs: 900,
            encoding_bps: (0.5e6, 1.5e6),
            duration_secs: (120.0, 360.0),
            strategy_mix: vec![
                (CampaignStrategy::ShortCycles, 5),
                (CampaignStrategy::LongCycles, 3),
                (CampaignStrategy::Bulk, 2),
            ],
            profile_mix: NetworkProfile::ALL.iter().map(|&p| (p, 1)).collect(),
            scales: DEFAULT_SCALES.to_vec(),
            tol_mean: 0.10,
            tol_var: 0.35,
        }
    }

    /// The campaign's content address: a hash of every identity field.
    /// Checkpoints carry it, so a ledger directory can never resume a
    /// different population.
    pub fn key(&self) -> u64 {
        let mut words: Vec<u64> = vec![
            self.viewers,
            self.packet_sessions as u64,
            self.shard_size as u64,
            self.seed,
            self.window_secs,
            self.encoding_bps.0.to_bits(),
            self.encoding_bps.1.to_bits(),
            self.duration_secs.0.to_bits(),
            self.duration_secs.1.to_bits(),
            self.tol_mean.to_bits(),
            self.tol_var.to_bits(),
        ];
        for &(s, w) in &self.strategy_mix {
            words.push(s.index() as u64);
            words.push(w as u64);
        }
        for &(p, w) in &self.profile_mix {
            words.push(p as u64);
            words.push(w as u64);
        }
        words.extend(self.scales.iter().copied());
        derive_seed(CAMPAIGN_TAG, &words)
    }

    /// The shard plan over the packet sessions.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.packet_sessions, self.shard_size)
    }

    /// The equivalent fluid-model population at arrival rate `lambda`,
    /// for driving [`vstream_model::FluidSim`] Monte-Carlo comparisons.
    pub fn fluid_population(&self, lambda: f64) -> PopulationModel {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &(p, _) in &self.profile_mix {
            lo = lo.min(p.down_bps());
            hi = hi.max(p.down_bps());
        }
        PopulationModel {
            lambda,
            encoding_bps: self.encoding_bps,
            duration_secs: self.duration_secs,
            bandwidth_bps: (lo as f64, hi as f64),
        }
    }

    /// The population as closed-form mix components — one per vantage
    /// point, each with the nominal downlink as `E[G]` (the calibration
    /// factor reported by the run maps nominal to TCP-achieved).
    pub fn mix_components(&self) -> Vec<MixComponent> {
        let e = (self.encoding_bps.0 + self.encoding_bps.1) / 2.0;
        let l = (self.duration_secs.0 + self.duration_secs.1) / 2.0;
        self.profile_mix
            .iter()
            .map(|&(p, w)| MixComponent {
                weight: w as f64,
                mean_encoding_bps: e,
                mean_duration_secs: l,
                mean_download_rate_bps: p.down_bps() as f64,
            })
            .collect()
    }

    /// Why the spec cannot run, if it cannot. [`run_campaign`] checks this
    /// before any shard runs. The window checks come first: the timeline is
    /// sized from the window before the first shard, and the report needs
    /// the steady state only after every shard has been simulated.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_secs > MAX_WINDOW_SECS {
            return Err(format!(
                "arrival window of {} s exceeds the {MAX_WINDOW_SECS} s (30-day) bound: the \
                 aggregate timeline holds one bin per second",
                self.window_secs
            ));
        }
        let (skip, end) = self.steady_bins();
        if skip >= end {
            return Err(format!(
                "arrival window of {end} s too short for a steady state: it must exceed \
                 the {skip} s warm-up (1.1 x the longest video)"
            ));
        }
        let (e, d) = (self.encoding_bps, self.duration_secs);
        [
            (self.viewers > 0, "campaign needs viewers"),
            (self.packet_sessions > 0, "campaign needs a packet shard"),
            (e.0 > 0.0 && e.0 <= e.1, "bad encoding range"),
            (d.0 > 0.0 && d.0 <= d.1, "bad duration range"),
            (self.strategy_mix.iter().any(|&(_, w)| w > 0), "strategy mix needs positive weight"),
            (self.profile_mix.iter().any(|&(_, w)| w > 0), "profile mix needs positive weight"),
            (!self.scales.is_empty(), "capacity table needs scales"),
        ]
        .into_iter()
        .find(|&(ok, _)| !ok)
        .map_or(Ok(()), |(_, why)| Err(why.to_string()))
    }

    /// Aggregate-timeline length in 1 s bins: the arrival window plus the
    /// longest possible session and its capture slack. [`Self::validate`]
    /// bounds the window, so the sum cannot overflow a checked spec.
    fn horizon_bins(&self) -> usize {
        usize::try_from(self.window_secs)
            .ok()
            .and_then(|w| w.checked_add(self.duration_secs.1.ceil() as usize))
            .and_then(|b| b.checked_add(120))
            .expect("validate bounds the arrival window")
    }

    /// The campaign's content-addressed subdirectory of the ledger
    /// directory `base`: `<base>/campaign-<key>`.
    pub fn ledger_dir(&self, base: &Path) -> PathBuf {
        base.join(format!("campaign-{:016x}", self.key()))
    }

    /// The stationary slice of the timeline: after one warmed-up maximum
    /// duration (the fluid simulator's convention), up to the arrival
    /// window's end. Empty when the window is no longer than the warm-up,
    /// which [`Self::validate`] rejects.
    fn steady_bins(&self) -> (usize, usize) {
        ((self.duration_secs.1 * 1.1).ceil() as usize, self.window_secs as usize)
    }

    /// The identity-derived parameters of packet session `i` — a pure
    /// function of `(spec, i)`, recomputed wherever needed (spec building,
    /// shard folding) instead of being threaded through the executor.
    fn session_params(&self, i: usize) -> SessionParams {
        let mut rng = SimRng::new(derive_seed(self.seed, &[CAMPAIGN_TAG, i as u64]));
        let strat_total: u64 = self.strategy_mix.iter().map(|&(_, w)| w as u64).sum();
        let mut mark = rng.uniform_u64(0, strat_total);
        let mut strategy = self.strategy_mix.last().expect("non-empty mix").0;
        for &(s, w) in &self.strategy_mix {
            if mark < w as u64 {
                strategy = s;
                break;
            }
            mark -= w as u64;
        }
        let prof_total: u64 = self.profile_mix.iter().map(|&(_, w)| w as u64).sum();
        let mut mark = rng.uniform_u64(0, prof_total);
        let mut profile = self.profile_mix.last().expect("non-empty mix").0;
        for &(p, w) in &self.profile_mix {
            if mark < w as u64 {
                profile = p;
                break;
            }
            mark -= w as u64;
        }
        let encoding_bps = rng.uniform_range(self.encoding_bps.0, self.encoding_bps.1) as u64;
        let duration_secs = rng.uniform_range(self.duration_secs.0, self.duration_secs.1);
        let offset_bins = rng.uniform_u64(0, self.window_secs) as usize;
        let engine_seed = rng.uniform_u64(0, u64::MAX);
        SessionParams {
            strategy,
            profile,
            encoding_bps: encoding_bps.max(1),
            duration_secs,
            offset_bins,
            engine_seed,
        }
    }

    /// The packet-level spec of session `i`.
    fn session_spec(&self, i: usize) -> SessionSpec {
        let p = self.session_params(i);
        let (client, container) = p.strategy.cell();
        SessionSpec::new(
            client,
            container,
            vstream_app::Video::new(
                i as u64,
                p.encoding_bps,
                SimDuration::from_secs_f64(p.duration_secs),
            ),
            p.profile,
            p.engine_seed,
            SimDuration::from_secs_f64(p.duration_secs + CAPTURE_SLACK_SECS),
        )
    }
}

/// Sampled identity of one packet session.
#[derive(Clone, Copy, Debug)]
struct SessionParams {
    strategy: CampaignStrategy,
    profile: NetworkProfile,
    encoding_bps: u64,
    duration_secs: f64,
    offset_bins: usize,
    engine_seed: u64,
}

/// Per-class (profile or strategy) integer tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Sessions of this class in the packet shard.
    pub sessions: u64,
    /// Total downloaded bits.
    pub bits: u64,
    /// Total 1 s bins with nonzero download (ON time).
    pub active_bins: u64,
}

impl ClassTally {
    fn merge(&mut self, o: &ClassTally) {
        self.sessions += o.sessions;
        self.bits += o.bits;
        self.active_bins += o.active_bins;
    }
}

/// One shard's (or the merged campaign's) reduction state. Strictly
/// integer-valued so checkpoints round-trip exactly and merging in shard
/// order is associative — the two properties the byte-identical-resume
/// guarantee rests on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reduction {
    /// Sessions folded in.
    pub sessions: u64,
    /// Total downloaded bits.
    pub bits: u64,
    /// Total ON bins (1 s bins with nonzero download).
    pub active_bins: u64,
    /// Sum over sessions of the per-session ON rate `bits / active_secs`.
    pub on_rate_sum_bps: u64,
    /// Sum over sessions of `size · ON-rate` (bits · bits/s) — the exact
    /// per-session `∫X²(u)du` of Eq. (4)'s derivation, which keeps the
    /// size/rate correlation that `E[S]·E[G]` would lose. `u128`: a single
    /// fast session can contribute ~2^56, so a big shard overflows `u64`.
    pub sg_sum: u128,
    /// Sum over sessions and bins of `b_k²` (bits² per 1 s bin) — Eq. (4)'s
    /// Campbell integral `∫X²(u)du` evaluated on the empirical timeline's
    /// own grid. Unlike [`sg_sum`](Self::sg_sum), this keeps within-session
    /// burstiness (the startup burst dwarfs steady-state blocks), so it is
    /// the prediction the variance gate compares against.
    pub sq_sum: u128,
    /// Sessions whose playback started.
    pub started: u64,
    /// Sum of startup delays, µs.
    pub startup_us_sum: u64,
    /// Player stalls across the shard.
    pub stalls: u64,
    /// Completed stalls.
    pub stalls_completed: u64,
    /// Total completed stall time, µs.
    pub stall_us_sum: u64,
    /// Total capture time, µs (the stall-ratio denominator).
    pub capture_us_sum: u64,
    /// Tallies per vantage point, `NetworkProfile::ALL` order.
    pub per_profile: [ClassTally; 4],
    /// Tallies per strategy shape, [`CampaignStrategy::ALL`] order.
    pub per_strategy: [ClassTally; 3],
    /// Aggregate downloaded bits per campaign-clock 1 s bin.
    pub timeline_bits: Vec<u64>,
}

impl Reduction {
    fn new(bins: usize) -> Reduction {
        Reduction {
            timeline_bits: vec![0; bins],
            ..Reduction::default()
        }
    }

    /// Folds one session in. `bins` is the session-relative 1 s download
    /// timeline in bits; the arrival offset places it on the campaign
    /// clock.
    fn absorb_session(&mut self, params: &SessionParams, bins: &[u64], qoe: &QoeSummary, capture_us: u64) {
        let mut bits = 0u64;
        let mut active = 0u64;
        for (j, &b) in bins.iter().enumerate() {
            if b == 0 {
                continue;
            }
            bits += b;
            active += 1;
            self.sq_sum += b as u128 * b as u128;
            let slot = params.offset_bins + j;
            if slot < self.timeline_bits.len() {
                self.timeline_bits[slot] += b;
            }
        }
        self.sessions += 1;
        self.bits += bits;
        self.active_bins += active;
        if active > 0 {
            let on_rate = bits / active;
            self.on_rate_sum_bps += on_rate;
            self.sg_sum += bits as u128 * on_rate as u128;
        }
        if let Some(us) = qoe.startup_us {
            self.started += 1;
            self.startup_us_sum += us;
        }
        self.stalls += qoe.stalls as u64;
        self.stalls_completed += qoe.stalls_completed as u64;
        self.stall_us_sum += qoe.stall_total_us;
        self.capture_us_sum += capture_us;
        let tally = ClassTally { sessions: 1, bits, active_bins: active };
        self.per_profile[params.profile as usize].merge(&tally);
        self.per_strategy[params.strategy.index()].merge(&tally);
    }

    fn merge(&mut self, o: &Reduction) {
        self.sessions += o.sessions;
        self.bits += o.bits;
        self.active_bins += o.active_bins;
        self.on_rate_sum_bps += o.on_rate_sum_bps;
        self.sg_sum += o.sg_sum;
        self.sq_sum += o.sq_sum;
        self.started += o.started;
        self.startup_us_sum += o.startup_us_sum;
        self.stalls += o.stalls;
        self.stalls_completed += o.stalls_completed;
        self.stall_us_sum += o.stall_us_sum;
        self.capture_us_sum += o.capture_us_sum;
        for (a, b) in self.per_profile.iter_mut().zip(&o.per_profile) {
            a.merge(b);
        }
        for (a, b) in self.per_strategy.iter_mut().zip(&o.per_strategy) {
            a.merge(b);
        }
        assert_eq!(self.timeline_bits.len(), o.timeline_bits.len(), "mismatched horizons");
        for (a, b) in self.timeline_bits.iter_mut().zip(&o.timeline_bits) {
            *a += b;
        }
    }
}

/// Execution knobs of one campaign run — none of them affect the output
/// (the byte-identical contract spans `jobs`, ledger presence, and any
/// interrupt/resume split; `max_shards` only decides *whether* output is
/// produced this run).
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Worker threads per shard (0 = the session layer's default).
    pub jobs: usize,
    /// Checkpoint ledger directory; `None` disables checkpointing.
    pub ledger_dir: Option<PathBuf>,
    /// Stop (returning `None`) after computing this many shards this run —
    /// the programmatic interrupt used by the resume tests and CI. Shards
    /// restored from the ledger are free and do not count.
    pub max_shards: Option<usize>,
    /// Per-shard progress lines on stderr.
    pub progress: bool,
}

/// Runs (or resumes) a campaign. Returns `None` when `max_shards`
/// interrupted the run before every shard was available — checkpoints for
/// the computed shards are on disk, and a later call with the same spec
/// and ledger resumes from them.
pub fn run_campaign(spec: &CampaignSpec, opts: &CampaignOptions) -> Option<CampaignReport> {
    if let Err(why) = spec.validate() {
        panic!("invalid campaign spec: {why}");
    }
    let key = spec.key();
    let plan = spec.plan();
    let shards = plan.shards();
    let ledger = opts.ledger_dir.as_ref().map(|d| spec.ledger_dir(d));
    if let Some(dir) = &ledger {
        fs::create_dir_all(dir).expect("create campaign ledger directory");
    }
    let jobs = if opts.jobs == 0 { crate::session::default_jobs() } else { opts.jobs };
    let query = SessionQuery::default().throughput(SimDuration::from_secs(1)).qoe();

    let mut merged = Reduction::new(spec.horizon_bins());
    let mut computed = 0usize;
    let started = Instant::now();
    for k in 0..shards {
        let (start, end) = plan.bounds(k);
        let from_ledger = ledger
            .as_ref()
            .and_then(|dir| load_shard(dir, key, k, start, end, spec.horizon_bins()));
        let reduction = match from_ledger {
            Some(r) => {
                if opts.progress {
                    eprintln!(
                        "[campaign] ({}/{shards}) shard restored from ledger ({} sessions)",
                        k + 1,
                        end - start
                    );
                }
                r
            }
            None => {
                if opts.max_shards.is_some_and(|m| computed >= m) {
                    if opts.progress {
                        eprintln!(
                            "[campaign] interrupted after {computed} computed shard(s); \
                             {} of {shards} checkpointed",
                            k
                        );
                    }
                    return None;
                }
                let shard_started = Instant::now();
                let r = compute_shard(spec, start, end, jobs, &query);
                computed += 1;
                if let Some(dir) = &ledger {
                    write_shard(dir, key, k, start, end, &r).expect("write shard checkpoint");
                }
                if opts.progress {
                    let secs = shard_started.elapsed().as_secs_f64();
                    let done = end;
                    let viewers_done =
                        spec.viewers.saturating_mul(done as u64) / spec.packet_sessions as u64;
                    let eta = if done > 0 {
                        started.elapsed().as_secs_f64() / done as f64
                            * (spec.packet_sessions - done) as f64
                    } else {
                        0.0
                    };
                    eprintln!(
                        "[campaign] ({}/{shards}) shard done in {secs:.2}s ({} sessions; \
                         {done}/{} packet sessions, ~{viewers_done} of {} viewers; ETA {eta:.0}s)",
                        k + 1,
                        end - start,
                        spec.packet_sessions,
                        spec.viewers
                    );
                }
                r
            }
        };
        merged.merge(&reduction);
    }
    let report = CampaignReport::build(spec, key, &merged);
    if let Some(dir) = &ledger {
        let path = dir.join("summary.txt");
        fs::write(&path, report.validation.ledger_text()).expect("write campaign summary");
    }
    Some(report)
}

/// Simulates sessions `[start, end)` and folds them, in index order, into
/// one shard reduction. Workers reduce each session to its 1 s bins and
/// QoE summary in-flight — no trace or reply outlives the scatter.
fn compute_shard(
    spec: &CampaignSpec,
    start: usize,
    end: usize,
    jobs: usize,
    query: &SessionQuery,
) -> Reduction {
    let specs: Vec<SessionSpec> = (start..end).map(|i| spec.session_spec(i)).collect();
    let lites: Vec<Option<SessionLite>> =
        batch_resolve(&specs, jobs, query, |_, reply| SessionLite::of(&reply));
    let mut r = Reduction::new(spec.horizon_bins());
    for (j, lite) in lites.into_iter().enumerate() {
        let lite = lite.expect("campaign cells are always applicable");
        let i = start + j;
        let params = spec.session_params(i);
        r.absorb_session(&params, &lite.bins, &lite.qoe, specs[j].capture.as_nanos() / 1_000);
    }
    r
}

/// The in-worker reduction of one session: its 1 s download bins (bits)
/// and QoE summary — a few hundred bytes, whatever the session's size.
struct SessionLite {
    bins: Vec<u64>,
    qoe: QoeSummary,
}

impl SessionLite {
    fn of(reply: &SessionReply) -> SessionLite {
        // 1 s bins make bits-per-bin numerically exact: the fold reports
        // `bytes * 8.0 / 1.0`, integral below 2^53.
        let bins = reply
            .answer
            .throughput
            .as_ref()
            .expect("campaign query requests throughput")
            .iter()
            .map(|&(_, bps)| bps as u64)
            .collect();
        let qoe = reply.answer.qoe.expect("campaign query requests qoe");
        SessionLite { bins, qoe }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint ledger
// ---------------------------------------------------------------------------

fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k:04}.ckpt"))
}

/// Serialises one shard's reduction. Integers only; the format is strict
/// line-oriented text so a truncated or foreign file fails to parse and
/// the shard is simply recomputed.
fn serialize_shard(key: u64, k: usize, start: usize, end: usize, r: &Reduction) -> String {
    let mut s = String::with_capacity(256 + r.timeline_bits.len() * 8);
    let _ = writeln!(s, "{SHARD_FORMAT}");
    let _ = writeln!(s, "key {key:016x}");
    let _ = writeln!(s, "shard {k} {start} {end}");
    let _ = writeln!(s, "sessions {}", r.sessions);
    let _ = writeln!(s, "totals {} {} {}", r.bits, r.active_bins, r.on_rate_sum_bps);
    let _ = writeln!(s, "sg {}", r.sg_sum);
    let _ = writeln!(s, "sq {}", r.sq_sum);
    let _ = writeln!(
        s,
        "qoe {} {} {} {} {} {}",
        r.started, r.startup_us_sum, r.stalls, r.stalls_completed, r.stall_us_sum, r.capture_us_sum
    );
    for (i, t) in r.per_profile.iter().enumerate() {
        let _ = writeln!(s, "profile {i} {} {} {}", t.sessions, t.bits, t.active_bins);
    }
    for (i, t) in r.per_strategy.iter().enumerate() {
        let _ = writeln!(s, "strategy {i} {} {} {}", t.sessions, t.bits, t.active_bins);
    }
    let _ = writeln!(s, "timeline {}", r.timeline_bits.len());
    for (i, v) in r.timeline_bits.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{v}");
    }
    s.push('\n');
    s.push_str("end\n");
    s
}

/// Writes a shard checkpoint: to a temp file first, renamed into place, so
/// a mid-write kill leaves no half-checkpoint the resume path could trust
/// (it could not parse one anyway — `end` is the integrity marker).
fn write_shard(
    dir: &Path,
    key: u64,
    k: usize,
    start: usize,
    end: usize,
    r: &Reduction,
) -> io::Result<()> {
    let path = shard_path(dir, k);
    let tmp = path.with_extension("ckpt.tmp");
    fs::write(&tmp, serialize_shard(key, k, start, end, r))?;
    fs::rename(&tmp, &path)
}

/// Loads shard `k` if a checkpoint exists, parses cleanly, and matches
/// this campaign's key and shard geometry. Any mismatch (foreign spec,
/// truncation, corruption) returns `None` and the shard is recomputed.
fn load_shard(
    dir: &Path,
    key: u64,
    k: usize,
    start: usize,
    end: usize,
    horizon: usize,
) -> Option<Reduction> {
    let text = fs::read_to_string(shard_path(dir, k)).ok()?;
    parse_shard(&text, key, k, start, end, horizon)
}

fn parse_shard(
    text: &str,
    key: u64,
    k: usize,
    start: usize,
    end: usize,
    horizon: usize,
) -> Option<Reduction> {
    let mut lines = text.lines();
    if lines.next()? != SHARD_FORMAT {
        return None;
    }
    if lines.next()? != format!("key {key:016x}") {
        return None;
    }
    if lines.next()? != format!("shard {k} {start} {end}") {
        return None;
    }
    let field = |line: Option<&str>, name: &str| -> Option<Vec<u64>> {
        let rest = line?.strip_prefix(name)?.strip_prefix(' ')?;
        rest.split(' ').map(|w| w.parse().ok()).collect()
    };
    let sessions = field(lines.next(), "sessions")?;
    let totals = field(lines.next(), "totals")?;
    let sg: u128 = lines.next()?.strip_prefix("sg ")?.parse().ok()?;
    let sq: u128 = lines.next()?.strip_prefix("sq ")?.parse().ok()?;
    let qoe = field(lines.next(), "qoe")?;
    if sessions.len() != 1 || totals.len() != 3 || qoe.len() != 6 {
        return None;
    }
    let mut r = Reduction {
        sessions: sessions[0],
        bits: totals[0],
        active_bins: totals[1],
        on_rate_sum_bps: totals[2],
        sg_sum: sg,
        sq_sum: sq,
        started: qoe[0],
        startup_us_sum: qoe[1],
        stalls: qoe[2],
        stalls_completed: qoe[3],
        stall_us_sum: qoe[4],
        capture_us_sum: qoe[5],
        ..Reduction::default()
    };
    for i in 0..4 {
        let t = field(lines.next(), &format!("profile {i}"))?;
        if t.len() != 3 {
            return None;
        }
        r.per_profile[i] = ClassTally { sessions: t[0], bits: t[1], active_bins: t[2] };
    }
    for i in 0..3 {
        let t = field(lines.next(), &format!("strategy {i}"))?;
        if t.len() != 3 {
            return None;
        }
        r.per_strategy[i] = ClassTally { sessions: t[0], bits: t[1], active_bins: t[2] };
    }
    let len = field(lines.next(), "timeline")?;
    if len.len() != 1 || len[0] as usize != horizon {
        return None;
    }
    let timeline: Option<Vec<u64>> =
        lines.next()?.split(' ').map(|w| w.parse().ok()).collect();
    r.timeline_bits = timeline?;
    if r.timeline_bits.len() != horizon || lines.next()? != "end" {
        return None;
    }
    Some(r)
}

// ---------------------------------------------------------------------------
// Cross-validation and report
// ---------------------------------------------------------------------------

/// The hybrid cross-validation: packet-shard empirical aggregate moments
/// vs. the Eq. 3/4 predictions at the shard's own arrival rate, plus the
/// calibration factors that map the nominal population model onto what TCP
/// actually delivered.
#[derive(Clone, Debug)]
pub struct Validation {
    /// Packet-shard arrival rate, sessions/second.
    pub lambda_pkt: f64,
    /// Empirical mean of the superposed timeline over the steady window.
    pub emp_mean_bps: f64,
    /// Eq. 3 at `lambda_pkt` with the empirical mean session size.
    pub cf_mean_bps: f64,
    /// Empirical variance of the superposed timeline.
    pub emp_var: f64,
    /// Eq. 4's Campbell form `λ·E[∫X²]` evaluated on the same 1 s grid as
    /// the empirical timeline (`λ·E[Σ b_k²]`) — the gated prediction.
    pub cf_var: f64,
    /// Eq. 4 in the paper's factored form, `λ·E[S·G]`, with the empirical
    /// per-session size and ON rate. Smaller than [`cf_var`](Self::cf_var)
    /// whenever sessions are bursty within the bin grid; reported, not
    /// gated.
    pub eq4_var: f64,
    /// Mean session size relative to the population model's `E[e]·E[L]`.
    pub kappa_size: f64,
    /// Mean ON rate relative to the mix-weighted nominal downlink.
    pub kappa_rate: f64,
    /// Gate tolerance on `emp_mean / cf_mean - 1`.
    pub tol_mean: f64,
    /// Gate tolerance on `emp_var / cf_var - 1`.
    pub tol_var: f64,
}

impl Validation {
    /// `emp / cf` ratio of the means.
    pub fn mean_ratio(&self) -> f64 {
        self.emp_mean_bps / self.cf_mean_bps
    }

    /// `emp / cf` ratio of the variances.
    pub fn var_ratio(&self) -> f64 {
        self.emp_var / self.cf_var
    }

    /// Whether both moments land inside the gate.
    pub fn pass(&self) -> bool {
        (self.mean_ratio() - 1.0).abs() <= self.tol_mean
            && (self.var_ratio() - 1.0).abs() <= self.tol_var
    }

    /// The one-line gate verdict printed with the report.
    pub fn gate_line(&self) -> String {
        format!(
            "cross-validation gate: {} (mean ratio {:.3} within \u{b1}{:.2}, \
             var ratio {:.3} within \u{b1}{:.2}; calibration \u{3ba}_S {:.3}, \u{3ba}_G {:.3})",
            if self.pass() { "PASS" } else { "FAIL" },
            self.mean_ratio(),
            self.tol_mean,
            self.var_ratio(),
            self.tol_var,
            self.kappa_size,
            self.kappa_rate,
        )
    }

    /// The `summary.txt` the ledger records: the gate verdict plus every
    /// number behind it.
    pub fn ledger_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "vstream-campaign-summary v1");
        let _ = writeln!(s, "gate {}", if self.pass() { "PASS" } else { "FAIL" });
        let _ = writeln!(s, "lambda_pkt_per_s {:.6}", self.lambda_pkt);
        let _ = writeln!(s, "emp_mean_bps {:.3}", self.emp_mean_bps);
        let _ = writeln!(s, "cf_mean_bps {:.3}", self.cf_mean_bps);
        let _ = writeln!(s, "mean_ratio {:.6}", self.mean_ratio());
        let _ = writeln!(s, "tol_mean {:.6}", self.tol_mean);
        let _ = writeln!(s, "emp_var_bps2 {:.3}", self.emp_var);
        let _ = writeln!(s, "cf_var_bps2 {:.3}", self.cf_var);
        let _ = writeln!(s, "var_ratio {:.6}", self.var_ratio());
        let _ = writeln!(s, "tol_var {:.6}", self.tol_var);
        let _ = writeln!(s, "eq4_var_bps2 {:.3}", self.eq4_var);
        let _ = writeln!(s, "kappa_size {:.6}", self.kappa_size);
        let _ = writeln!(s, "kappa_rate {:.6}", self.kappa_rate);
        s
    }
}

/// Everything a finished campaign reports: the validation verdict and the
/// rendered tables (capacity curves, per-profile and per-strategy
/// breakdowns, the QoE rollup, and the validation numbers themselves).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The campaign's content address (ledger directory name).
    pub key: u64,
    /// The cross-validation verdict and calibration factors.
    pub validation: Validation,
    /// All tables, in presentation order.
    pub tables: Vec<TableData>,
}

impl CampaignReport {
    fn build(spec: &CampaignSpec, key: u64, r: &Reduction) -> CampaignReport {
        let n = r.sessions.max(1) as f64;
        let mean_bits = r.bits as f64 / n;
        let g_bar = r.on_rate_sum_bps as f64 / n;
        let (skip, end) = spec.steady_bins();
        let steady = &r.timeline_bits[skip..end];
        let count = steady.len().max(1) as f64;
        let emp_mean = steady.iter().map(|&b| b as f64).sum::<f64>() / count;
        let emp_var = steady
            .iter()
            .map(|&b| {
                let d = b as f64 - emp_mean;
                d * d
            })
            .sum::<f64>()
            / count;
        let lambda_pkt = spec.packet_sessions as f64 / spec.window_secs as f64;
        let cf_mean = lambda_pkt * mean_bits;
        // Gate prediction: Campbell's `λ·E[∫X²]` on the timeline's own 1 s
        // grid. The paper's factored `λ·E[S·G]` rides along for comparison
        // — it drops within-session burstiness (startup burst vs steady
        // blocks) and so undershoots at fine bins.
        let sq_mean = r.sq_sum as f64 / n;
        let sg_mean = r.sg_sum as f64 / n;
        let cf_var = lambda_pkt * sq_mean;
        let eq4_var = lambda_pkt * sg_mean;

        let e_model = (spec.encoding_bps.0 + spec.encoding_bps.1) / 2.0;
        let l_model = (spec.duration_secs.0 + spec.duration_secs.1) / 2.0;
        let components = spec.mix_components();
        // Nominal E[G]: the mix-weighted downlink (shares from Eq. 3/4
        // helper's own normalisation).
        let (nominal_mean_1, nominal_meang_1) = mix_aggregate_moments(1.0, &components);
        let g_nominal = if nominal_mean_1 > 0.0 { nominal_meang_1 / nominal_mean_1 } else { 0.0 };
        let validation = Validation {
            lambda_pkt,
            emp_mean_bps: emp_mean,
            cf_mean_bps: cf_mean,
            emp_var,
            cf_var,
            eq4_var,
            kappa_size: mean_bits / (e_model * l_model),
            kappa_rate: g_bar / g_nominal,
            tol_mean: spec.tol_mean,
            tol_var: spec.tol_var,
        };

        let mut scales: Vec<u64> = spec.scales.clone();
        scales.push(spec.viewers);
        scales.sort_unstable();
        scales.dedup();
        let top_scale = *scales.last().expect("non-empty scales");

        // Capacity table: calibrated moments scaled by Little's-law arrival
        // rates, Gaussian quantiles (the superposition is a sum of many
        // independent sessions), and the paper's α-provisioning rule.
        let capacity_rows: Vec<Vec<String>> = scales
            .iter()
            .map(|&viewers| {
                let lam = viewers as f64 / l_model;
                let mean = lam * mean_bits;
                let var = lam * sq_mean;
                let sigma = var.sqrt();
                let model_mean = lam * e_model * l_model;
                vec![
                    viewers.to_string(),
                    format!("{lam:.2}"),
                    format!("{:.3}", mean / 1e9),
                    format!("{:.3}", sigma / 1e9),
                    format!("{:.3}", (mean + 1.6449 * sigma) / 1e9),
                    format!("{:.3}", (mean + 2.3263 * sigma) / 1e9),
                    format!("{:.3}", provisioned_capacity(mean, var, 3.0) / 1e9),
                    format!("{:.3}", model_mean / 1e9),
                ]
            })
            .collect();
        let capacity = TableData {
            id: "campaign-capacity",
            title: format!(
                "Capacity plan, {} packet-calibrated sessions scaled analytically",
                r.sessions
            ),
            headers: vec![
                "viewers".into(),
                "lambda_per_s".into(),
                "mean_gbps".into(),
                "sigma_gbps".into(),
                "p95_gbps".into(),
                "p99_gbps".into(),
                "mean_plus_3sigma_gbps".into(),
                "model_mean_gbps".into(),
            ],
            rows: capacity_rows,
        };

        let prof_total: u64 = spec.profile_mix.iter().map(|&(_, w)| w as u64).sum();
        let profile_rows: Vec<Vec<String>> = spec
            .profile_mix
            .iter()
            .map(|&(p, w)| {
                let t = &r.per_profile[p as usize];
                let sn = t.sessions.max(1) as f64;
                let viewers_here = top_scale.saturating_mul(w as u64) / prof_total.max(1);
                let mean_here = viewers_here as f64 / l_model * (t.bits as f64 / sn);
                vec![
                    p.label().to_string(),
                    format!("{}/{prof_total}", w),
                    t.sessions.to_string(),
                    format!("{:.1}", t.bits as f64 / sn / 1e6),
                    format!("{:.2}", on_rate_mbps(t)),
                    viewers_here.to_string(),
                    format!("{:.3}", mean_here / 1e9),
                ]
            })
            .collect();
        let profiles = TableData {
            id: "campaign-profiles",
            title: format!("Per-profile breakdown at {top_scale} viewers"),
            headers: vec![
                "profile".into(),
                "weight".into(),
                "packet_sessions".into(),
                "mean_session_mbit".into(),
                "mean_on_rate_mbps".into(),
                "viewers".into(),
                "mean_gbps".into(),
            ],
            rows: profile_rows,
        };

        let strat_total: u64 = spec.strategy_mix.iter().map(|&(_, w)| w as u64).sum();
        let strategy_rows: Vec<Vec<String>> = spec
            .strategy_mix
            .iter()
            .map(|&(s, w)| {
                let t = &r.per_strategy[s.index()];
                let sn = t.sessions.max(1) as f64;
                vec![
                    s.label().to_string(),
                    format!("{}/{strat_total}", w),
                    t.sessions.to_string(),
                    format!("{:.1}", t.bits as f64 / sn / 1e6),
                    format!("{:.2}", on_rate_mbps(t)),
                ]
            })
            .collect();
        let strategies = TableData {
            id: "campaign-strategies",
            title: "Per-strategy breakdown of the packet shard".into(),
            headers: vec![
                "strategy".into(),
                "weight".into(),
                "packet_sessions".into(),
                "mean_session_mbit".into(),
                "mean_on_rate_mbps".into(),
            ],
            rows: strategy_rows,
        };

        // QoE rollup: integer math throughout (µs sums, ppm ratios), like
        // the per-session QoE table.
        let startup_mean_us = if r.started > 0 { r.startup_us_sum / r.started } else { 0 };
        let stall_ppm = if r.capture_us_sum > 0 {
            r.stall_us_sum * 1_000_000 / r.capture_us_sum
        } else {
            0
        };
        let stalls_per_1k = if r.sessions > 0 { r.stalls * 1_000 / r.sessions } else { 0 };
        let qoe = TableData {
            id: "campaign-qoe",
            title: "QoE rollup of the packet shard".into(),
            headers: vec!["metric".into(), "value".into()],
            rows: vec![
                vec!["sessions".into(), r.sessions.to_string()],
                vec!["playback_started".into(), r.started.to_string()],
                vec![
                    "startup_mean_ms".into(),
                    format!("{}.{:03}", startup_mean_us / 1_000, startup_mean_us % 1_000),
                ],
                vec!["stalls".into(), r.stalls.to_string()],
                vec!["stalls_per_1k_sessions".into(), stalls_per_1k.to_string()],
                vec![
                    "stall_time_ratio".into(),
                    format!("{}.{:06}", stall_ppm / 1_000_000, stall_ppm % 1_000_000),
                ],
            ],
        };

        let validation_table = TableData {
            id: "campaign-validation",
            title: "Hybrid cross-validation: packet shard vs Eq. (3)/(4)".into(),
            headers: vec!["quantity".into(), "packet_shard".into(), "closed_form".into(), "ratio".into()],
            rows: vec![
                vec![
                    "E[R] (Mbps)".into(),
                    format!("{:.2}", validation.emp_mean_bps / 1e6),
                    format!("{:.2}", validation.cf_mean_bps / 1e6),
                    format!("{:.3}", validation.mean_ratio()),
                ],
                vec![
                    "V_R (Tb2/s2)".into(),
                    format!("{:.4}", validation.emp_var / 1e12),
                    format!("{:.4}", validation.cf_var / 1e12),
                    format!("{:.3}", validation.var_ratio()),
                ],
                vec![
                    "V_R factored λ·E[S·G] (Tb2/s2)".into(),
                    format!("{:.4}", validation.emp_var / 1e12),
                    format!("{:.4}", validation.eq4_var / 1e12),
                    format!("{:.3}", validation.emp_var / validation.eq4_var),
                ],
                vec![
                    "kappa_size (E[S] vs model)".into(),
                    format!("{:.3}", validation.kappa_size),
                    "1.000".into(),
                    format!("{:.3}", validation.kappa_size),
                ],
                vec![
                    "kappa_rate (E[G] vs nominal)".into(),
                    format!("{:.3}", validation.kappa_rate),
                    "1.000".into(),
                    format!("{:.3}", validation.kappa_rate),
                ],
            ],
        };

        CampaignReport {
            key,
            validation,
            tables: vec![validation_table, capacity, profiles, strategies, qoe],
        }
    }

    /// The full plain-text report: gate verdict first, then every table.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "campaign {:016x}", self.key);
        let _ = writeln!(s, "{}", self.validation.gate_line());
        for t in &self.tables {
            let _ = writeln!(s);
            s.push_str(&t.to_text());
        }
        s
    }
}

/// Mean per-session ON rate of a class, Mbps (0 for an empty class).
fn on_rate_mbps(t: &ClassTally) -> f64 {
    if t.active_bins == 0 {
        0.0
    } else {
        t.bits as f64 / t.active_bins as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            viewers: 20_000,
            packet_sessions: 6,
            shard_size: 4,
            seed: 7,
            window_secs: 300,
            encoding_bps: (0.4e6, 0.8e6),
            duration_secs: (20.0, 40.0),
            strategy_mix: vec![
                (CampaignStrategy::ShortCycles, 2),
                (CampaignStrategy::Bulk, 1),
            ],
            profile_mix: vec![(NetworkProfile::Research, 3), (NetworkProfile::Home, 1)],
            scales: vec![10_000],
            tol_mean: 0.2,
            tol_var: 0.6,
        }
    }

    /// The default population's longest video is 360 s, so its steady state
    /// starts at ceil(360 x 1.1) = 397 s: a window must be longer.
    #[test]
    fn validate_rejects_a_window_within_the_warm_up() {
        let mut spec = CampaignSpec::for_viewers(10_000);
        for (window, ok) in [(0, false), (397, false), (398, true), (900, true)] {
            spec.window_secs = window;
            assert_eq!(spec.validate().is_ok(), ok, "window {window}: {:?}", spec.validate());
        }
        spec.window_secs = 397;
        assert!(spec.validate().unwrap_err().contains("397 s warm-up"));
    }

    /// An unbounded window used to be an unbounded timeline: a huge one
    /// failed its allocation, and `u64::MAX` wrapped the horizon and
    /// panicked after every shard had run.
    #[test]
    fn validate_rejects_a_window_beyond_the_bound() {
        let mut spec = CampaignSpec::for_viewers(10_000);
        for (window, ok) in [
            (MAX_WINDOW_SECS, true),
            (MAX_WINDOW_SECS + 1, false),
            (100_000_000_000, false),
            (u64::MAX, false),
        ] {
            spec.window_secs = window;
            assert_eq!(spec.validate().is_ok(), ok, "window {window}: {:?}", spec.validate());
        }
        assert!(spec.validate().unwrap_err().contains("2592000 s (30-day) bound"));
        spec.window_secs = MAX_WINDOW_SECS;
        assert_eq!(spec.horizon_bins(), 2_592_000 + 360 + 120);
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let a = tiny_spec();
        let mut b = tiny_spec();
        assert_eq!(a.key(), b.key());
        b.seed += 1;
        assert_ne!(a.key(), b.key());
        let mut c = tiny_spec();
        c.strategy_mix[0].1 = 3;
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn session_params_are_identity_derived() {
        let spec = tiny_spec();
        let a = spec.session_params(3);
        let b = spec.session_params(3);
        assert_eq!(a.engine_seed, b.engine_seed);
        assert_eq!(a.offset_bins, b.offset_bins);
        assert!(a.offset_bins < spec.window_secs as usize);
        assert!(a.encoding_bps >= 0.4e6 as u64 && a.encoding_bps <= 0.8e6 as u64);
        assert!(a.duration_secs >= 20.0 && a.duration_secs < 40.0);
    }

    #[test]
    fn mix_sampling_respects_weights_roughly() {
        let spec = CampaignSpec {
            packet_sessions: 400,
            ..tiny_spec()
        };
        let mut bulk = 0;
        for i in 0..400 {
            if spec.session_params(i).strategy == CampaignStrategy::Bulk {
                bulk += 1;
            }
        }
        // Weight 1 of 3 => about 133 of 400.
        assert!((90..180).contains(&bulk), "bulk count {bulk}");
    }

    #[test]
    fn shard_roundtrip_is_exact() {
        let mut r = Reduction::new(8);
        let params = SessionParams {
            strategy: CampaignStrategy::Bulk,
            profile: NetworkProfile::Home,
            encoding_bps: 1_000_000,
            duration_secs: 30.0,
            offset_bins: 2,
            engine_seed: 9,
        };
        let qoe = QoeSummary {
            startup_us: Some(1_500_000),
            stalls: 2,
            stalls_completed: 1,
            stall_total_us: 400_000,
            stall_max_us: 400_000,
            blocks: 12,
            switches: 0,
        };
        r.absorb_session(&params, &[0, 5_000_000, 0, 3_000_000], &qoe, 90_000_000);
        let text = serialize_shard(0xABCD, 1, 4, 8, &r);
        let parsed = parse_shard(&text, 0xABCD, 1, 4, 8, 8).expect("roundtrip");
        assert_eq!(parsed, r);
        // Wrong key, wrong geometry, truncation: all rejected.
        assert!(parse_shard(&text, 0xABCE, 1, 4, 8, 8).is_none());
        assert!(parse_shard(&text, 0xABCD, 2, 4, 8, 8).is_none());
        assert!(parse_shard(&text, 0xABCD, 1, 4, 8, 9).is_none());
        let truncated = &text[..text.len() - 5];
        assert!(parse_shard(truncated, 0xABCD, 1, 4, 8, 8).is_none());
    }

    #[test]
    fn absorb_session_tallies_classes_and_timeline() {
        let mut r = Reduction::new(6);
        let params = SessionParams {
            strategy: CampaignStrategy::ShortCycles,
            profile: NetworkProfile::Research,
            encoding_bps: 1,
            duration_secs: 1.0,
            offset_bins: 3,
            engine_seed: 0,
        };
        let qoe = QoeSummary {
            startup_us: None,
            stalls: 0,
            stalls_completed: 0,
            stall_total_us: 0,
            stall_max_us: 0,
            blocks: 0,
            switches: 0,
        };
        // Bins spill past the horizon: the overflow is dropped, counters
        // still see the full session.
        r.absorb_session(&params, &[10, 0, 20, 30], &qoe, 1);
        assert_eq!(r.timeline_bits, vec![0, 0, 0, 10, 0, 20]);
        assert_eq!(r.bits, 60);
        assert_eq!(r.active_bins, 3);
        assert_eq!(r.on_rate_sum_bps, 20);
        assert_eq!(r.per_profile[NetworkProfile::Research as usize].sessions, 1);
        assert_eq!(r.per_strategy[0].bits, 60);
        assert_eq!(r.started, 0);
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = Reduction::new(3);
        a.bits = 5;
        a.timeline_bits = vec![1, 2, 3];
        let mut b = Reduction::new(3);
        b.bits = 7;
        b.timeline_bits = vec![10, 0, 1];
        b.sessions = 2;
        a.merge(&b);
        assert_eq!(a.bits, 12);
        assert_eq!(a.sessions, 2);
        assert_eq!(a.timeline_bits, vec![11, 2, 4]);
    }

    #[test]
    fn validation_gate_logic() {
        let v = Validation {
            lambda_pkt: 0.1,
            emp_mean_bps: 103.0,
            cf_mean_bps: 100.0,
            emp_var: 130.0,
            cf_var: 100.0,
            eq4_var: 90.0,
            kappa_size: 1.0,
            kappa_rate: 0.5,
            tol_mean: 0.05,
            tol_var: 0.4,
        };
        assert!(v.pass());
        let tight = Validation { tol_var: 0.2, ..v.clone() };
        assert!(!tight.pass());
        assert!(v.gate_line().contains("PASS"));
        assert!(tight.gate_line().contains("FAIL"));
        assert!(v.ledger_text().contains("gate PASS"));
    }

    #[test]
    fn strategy_cells_are_valid_table1_cells() {
        for s in CampaignStrategy::ALL {
            let (client, container) = s.cell();
            let video = vstream_app::Video::new(0, 1_000_000, SimDuration::from_secs(60));
            assert!(
                vstream_workload::logic_for(client, container, video).is_some(),
                "{} maps to an inapplicable cell",
                s.label()
            );
        }
    }
}
