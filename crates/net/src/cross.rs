//! Competing traffic on the downlink bottleneck, generated by the path.
//!
//! The paper's resilience experiments (and the Ye et al. follow-up work on
//! streaming QoE under load) put the video flow behind an access link that
//! also carries *other people's traffic*: [`CrossTraffic::Bursts`] for
//! `ext-stalls`, and for `ext-qoe` a long-range-dependent aggregate. Taqqu's
//! theorem says a superposition of many on/off sources whose ON periods are
//! heavy-tailed with shape `alpha in (1, 2)` converges to fractional
//! Gaussian noise with Hurst parameter `H = (3 - alpha) / 2`.
//!
//! Both generators are passive state machines owned by a
//! [`DuplexPath`](crate::DuplexPath) (see its `cross_starts` and
//! `cross_tick`). Bursts draw from the caller's RNG; each LRD source owns a
//! private RNG derived from the path's seed and its index, so the aggregate
//! never perturbs the caller's stream — adding or removing LRD traffic must
//! not reshuffle the loss pattern of the video flow itself.
//!
//! Both shapes are fixed — the LRD aggregate has [`LRD_SOURCES`] sources,
//! alpha [`LRD_ALPHA_MILLI`] / 1000 (H = 0.75), half-second mean bursts and
//! 1.5 s mean gaps — and only the per-source peak rate varies with the
//! offered load. The peak rate is an integer so the config can be embedded
//! verbatim in session cache keys — determinism across `--jobs` and cache
//! hits requires the key to pin every behaviour-affecting bit.

use vstream_sim::{derive_seed, SimDuration, SimRng, SimTime};

/// Mean interval between two [`CrossTraffic::Bursts`] bursts.
pub(crate) const BURST_MEAN_PERIOD: SimDuration = SimDuration::from_secs(3);
/// Mean size of one [`CrossTraffic::Bursts`] burst, in bytes.
pub(crate) const BURST_MEAN_BYTES: u64 = 1_200_000;

/// Number of superposed on/off sources.
pub(crate) const LRD_SOURCES: u32 = 16;
/// Pareto shape of the ON durations, in thousandths (1500 = alpha 1.5).
/// Long-range dependence requires a value strictly between 1000 and 2000.
pub(crate) const LRD_ALPHA_MILLI: u32 = 1500;
/// Mean ON duration in milliseconds (sets the Pareto scale `x_min`).
pub(crate) const LRD_MEAN_ON_MS: u32 = 500;
/// Mean OFF duration in milliseconds (exponential).
pub(crate) const LRD_MEAN_OFF_MS: u32 = 1500;

/// An aggregate of `LRD_SOURCES` (16) identical heavy-tailed on/off sources
/// on the downlink.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LrdCrossConfig {
    /// Per-source emission rate while ON, in bits per second.
    pub peak_bps: u64,
}

impl LrdCrossConfig {
    /// The aggregate whose per-source peak rate is sized so its mean
    /// offered load is `load_permille / 1000` of `bottleneck_bps`.
    pub fn for_load(bottleneck_bps: u64, load_permille: u32) -> Self {
        // mean load = sources * peak * duty; duty = on / (on + off) = 1/4.
        let load_bps = bottleneck_bps as u128 * load_permille as u128 / 1000;
        let duty_num = LRD_MEAN_ON_MS as u128;
        let duty_den = (LRD_MEAN_ON_MS + LRD_MEAN_OFF_MS) as u128;
        LrdCrossConfig {
            peak_bps: (load_bps * duty_den / (duty_num * LRD_SOURCES as u128)) as u64,
        }
    }

    /// The Pareto shape as a real number.
    pub(crate) fn alpha() -> f64 {
        LRD_ALPHA_MILLI as f64 / 1000.0
    }

    /// The Pareto scale (`x_min`, seconds) that yields [`LRD_MEAN_ON_MS`]:
    /// for alpha > 1 the Pareto mean is `alpha * x_min / (alpha - 1)`.
    pub(crate) fn on_x_min_secs() -> f64 {
        let a = Self::alpha();
        LRD_MEAN_ON_MS as f64 / 1000.0 * (a - 1.0) / a
    }

    /// Mean OFF duration in seconds.
    pub(crate) fn mean_off_secs() -> f64 {
        LRD_MEAN_OFF_MS as f64 / 1000.0
    }

    /// Long-run fraction of time each source spends ON.
    #[cfg(test)]
    fn duty_cycle() -> f64 {
        LRD_MEAN_ON_MS as f64 / (LRD_MEAN_ON_MS + LRD_MEAN_OFF_MS) as f64
    }

    /// Mean offered load of the whole aggregate, in bits per second: the
    /// analytic reference the tests hold the generated load to.
    #[cfg(test)]
    fn mean_load_bps(&self) -> f64 {
        LRD_SOURCES as f64 * self.peak_bps as f64 * Self::duty_cycle()
    }

    /// Bytes one source emits over `ns` nanoseconds of an ON period
    /// (integer arithmetic; used for the chunked emissions).
    pub(crate) fn on_bytes(&self, ns: u64) -> u64 {
        (self.peak_bps as u128 * ns as u128 / 8_000_000_000) as u64
    }

    /// The config's identity as cache-key words: callers hashing a session
    /// spec embed these words (plus a presence flag) so two sessions
    /// differing only in cross-traffic load can never collide.
    pub fn key_words(&self) -> [u64; 1] {
        [self.peak_bps]
    }
}

/// The competing traffic a [`DuplexPath`](crate::DuplexPath) carries on its
/// downlink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossTraffic {
    /// Poisson bursts: exponential sizes of mean `BURST_MEAN_BYTES` (1.2 MB)
    /// at exponential intervals of mean `BURST_MEAN_PERIOD` (3 s).
    Bursts,
    /// The long-range-dependent aggregate, its sources seeded from the path.
    Lrd(LrdCrossConfig),
}

/// ON periods are emitted in peak-rate chunks of this length, so a burst
/// occupies the bottleneck progressively rather than as one packet-queue
/// spike — matching how a competing TCP/UDP flow would actually drain.
const LRD_CHUNK: SimDuration = SimDuration::from_millis(20);

/// Seed-derivation tag for per-source LRD RNG streams.
const LRD_SEED_TAG: u64 = 0x1BD0;

/// The running state of a path's [`CrossTraffic`].
pub(crate) enum CrossSources {
    /// No competing traffic: no source ever ticks.
    None,
    /// One burst source, drawing from the caller's RNG.
    Bursts,
    /// [`LRD_SOURCES`] on/off sources.
    Lrd { cfg: LrdCrossConfig, sources: Vec<LrdSource> },
}

/// One heavy-tailed on/off source of the LRD aggregate: Pareto-distributed
/// ON periods emitted as peak-rate chunks, exponential OFF gaps.
pub(crate) struct LrdSource {
    rng: SimRng,
    /// End of the current ON period; a tick at or past this instant opens
    /// the next ON period (it was scheduled after an OFF gap).
    on_until: SimTime,
}

impl CrossSources {
    /// The sources of `traffic`. A zero-peak aggregate offers no load and
    /// has no source at all.
    pub(crate) fn new(traffic: CrossTraffic, seed: u64) -> Self {
        match traffic {
            CrossTraffic::Bursts => CrossSources::Bursts,
            CrossTraffic::Lrd(cfg) if cfg.peak_bps == 0 => CrossSources::None,
            CrossTraffic::Lrd(cfg) => CrossSources::Lrd {
                cfg,
                sources: (0..LRD_SOURCES)
                    .map(|i| LrdSource {
                        rng: SimRng::new(derive_seed(seed, &[LRD_SEED_TAG, i as u64])),
                        on_until: SimTime::ZERO,
                    })
                    .collect(),
            },
        }
    }

    /// The first tick of each source, in source order. Every source starts
    /// OFF with an independent exponential gap, so an LRD aggregate does not
    /// begin with a synchronized burst.
    pub(crate) fn starts<'a>(&'a mut self, rng: &mut SimRng) -> impl Iterator<Item = SimTime> + 'a {
        let (burst, sources) = match self {
            CrossSources::None => (None, &mut [][..]),
            CrossSources::Bursts => (Some(SimTime::ZERO + burst_gap(rng)), &mut [][..]),
            CrossSources::Lrd { sources, .. } => (None, &mut sources[..]),
        };
        let lrd = sources.iter_mut().map(|s| SimTime::ZERO + lrd_off_gap(&mut s.rng));
        burst.into_iter().chain(lrd)
    }

    /// Advances source `src` at `now`: the bytes it puts on the downlink and
    /// the instant it ticks next. An LRD tick at or past `on_until` was
    /// scheduled across an OFF gap and opens a new Pareto-length ON period;
    /// each emits up to one chunk and ticks next at the following chunk
    /// (still ON) or at the next period start (across an OFF gap).
    pub(crate) fn tick(&mut self, src: u32, now: SimTime, rng: &mut SimRng) -> (u64, SimTime) {
        match self {
            CrossSources::None => unreachable!("a path without cross traffic has no source to tick"),
            CrossSources::Bursts => {
                let bytes = rng.exponential(1.0 / BURST_MEAN_BYTES as f64) as u64;
                (bytes, now + burst_gap(rng))
            }
            CrossSources::Lrd { cfg, sources } => {
                let s = &mut sources[src as usize];
                if now >= s.on_until {
                    let on = s.rng.pareto(LrdCrossConfig::on_x_min_secs(), LrdCrossConfig::alpha());
                    s.on_until = now + SimDuration::from_secs_f64(on);
                }
                // The final chunk of a period is pro-rated to the ON time it
                // actually covers, so the aggregate's mean load is exactly
                // `cfg.mean_load_bps()` rather than biased up by tail chunks.
                let next_chunk = now + LRD_CHUNK;
                let bytes = cfg.on_bytes((s.on_until.min(next_chunk) - now).as_nanos());
                let next = if next_chunk < s.on_until {
                    next_chunk
                } else {
                    s.on_until + lrd_off_gap(&mut s.rng)
                };
                (bytes, next)
            }
        }
    }
}

fn burst_gap(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(1.0 / BURST_MEAN_PERIOD.as_secs_f64()))
}

fn lrd_off_gap(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(1.0 / LrdCrossConfig::mean_off_secs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DuplexPath, LinkConfig};

    /// A 20 Mbps path carrying `traffic`, its LRD sources seeded from `seed`.
    fn loaded_path(traffic: CrossTraffic, seed: u64) -> DuplexPath {
        let link = || LinkConfig::new(20_000_000, SimDuration::from_millis(10));
        DuplexPath::new(link(), link()).with_cross_traffic(traffic, seed)
    }

    /// Every tick of every source of `path` before `horizon`, source by
    /// source, as `(source, instant)`; `rng` is the caller's RNG.
    fn ticks(path: &mut DuplexPath, rng: &mut SimRng, horizon: SimTime) -> Vec<(u32, SimTime)> {
        let starts: Vec<SimTime> = path.cross_starts(rng).collect();
        let mut out = Vec::new();
        for (src, mut at) in starts.into_iter().enumerate() {
            let src = src as u32;
            while at < horizon {
                out.push((src, at));
                at = path.cross_tick(src, at, rng);
            }
        }
        out
    }

    /// The bytes `sources` offer before `horizon`.
    fn offered_bytes(mut sources: CrossSources, horizon: SimTime) -> u64 {
        let mut rng = SimRng::new(5);
        let starts: Vec<SimTime> = sources.starts(&mut rng).collect();
        let mut total = 0;
        for (src, mut at) in starts.into_iter().enumerate() {
            while at < horizon {
                let (bytes, next) = sources.tick(src as u32, at, &mut rng);
                total += bytes;
                at = next;
            }
        }
        total
    }

    #[test]
    fn zero_peak_lrd_aggregate_yields_no_starts() {
        let zero = LrdCrossConfig::for_load(20_000_000, 0);
        let mut path = loaded_path(CrossTraffic::Lrd(zero), 7);
        let mut rng = SimRng::new(1);
        assert_eq!(path.cross_starts(&mut rng).count(), 0);
        assert_eq!(rng.uniform(), SimRng::new(1).uniform(), "the caller's RNG moved");
    }

    #[test]
    fn lrd_sources_never_draw_from_the_callers_rng() {
        let cfg = LrdCrossConfig::for_load(20_000_000, 500);
        let horizon = SimTime::from_secs(60);
        let mut rng = SimRng::new(1);
        let seen = ticks(&mut loaded_path(CrossTraffic::Lrd(cfg), 3), &mut rng, horizon);
        let sources: std::collections::BTreeSet<u32> = seen.iter().map(|&(src, _)| src).collect();
        assert_eq!(sources.len(), LRD_SOURCES as usize, "every source ticked");
        assert!(seen.len() > 1_000, "{} ticks", seen.len());
        assert_eq!(rng.uniform(), SimRng::new(1).uniform(), "the caller's RNG moved");
        // The aggregate is a pure function of (config, seed).
        let again = ticks(&mut loaded_path(CrossTraffic::Lrd(cfg), 3), &mut SimRng::new(9), horizon);
        assert_eq!(seen, again);
        let other = ticks(&mut loaded_path(CrossTraffic::Lrd(cfg), 4), &mut SimRng::new(1), horizon);
        assert_ne!(seen, other, "the path's seed must matter");
    }

    #[test]
    fn bursts_draw_only_from_the_callers_rng() {
        let run = |path_seed: u64, rng_seed: u64| {
            let mut rng = SimRng::new(rng_seed);
            let horizon = SimTime::from_secs(600);
            let seen = ticks(&mut loaded_path(CrossTraffic::Bursts, path_seed), &mut rng, horizon);
            (seen, rng.uniform())
        };
        let (seen, after) = run(1, 5);
        assert!(seen.len() > 100 && seen.iter().all(|&(src, _)| src == 0), "{} ticks", seen.len());
        assert_eq!(run(2, 5), (seen.clone(), after), "the path's seed must not matter");
        assert_ne!(run(1, 6).0, seen, "the caller's RNG must");
    }

    #[test]
    fn offered_load_matches_the_mean_over_a_long_horizon() {
        let horizon = SimTime::from_secs(20_000);
        let bps = |bytes: u64| bytes as f64 * 8.0 / horizon.as_secs_f64();
        let within = |got: f64, want: f64| (got - want).abs() / want < 0.05;
        for permille in [250, 700] {
            let cfg = LrdCrossConfig::for_load(20_000_000, permille);
            let got = bps(offered_bytes(CrossSources::new(CrossTraffic::Lrd(cfg), 11), horizon));
            assert!(within(got, cfg.mean_load_bps()), "LRD {permille}‰: {got} vs {}", cfg.mean_load_bps());
        }
        let want = BURST_MEAN_BYTES as f64 * 8.0 / BURST_MEAN_PERIOD.as_secs_f64();
        let got = bps(offered_bytes(CrossSources::new(CrossTraffic::Bursts, 0), horizon));
        assert!(within(got, want), "bursts: {got} vs {want}");
    }

    #[test]
    fn for_load_hits_the_target_mean() {
        let cfg = LrdCrossConfig::for_load(20_000_000, 600);
        let want = 20_000_000.0 * 0.6;
        let got = cfg.mean_load_bps();
        assert!(
            (got - want).abs() / want < 0.01,
            "mean load {got} != target {want}"
        );
    }

    #[test]
    fn pareto_scale_reproduces_the_mean() {
        let a = LrdCrossConfig::alpha();
        // mean = alpha * x_min / (alpha - 1)
        let mean = a * LrdCrossConfig::on_x_min_secs() / (a - 1.0);
        assert!((mean - 0.5).abs() < 1e-9, "ON mean {mean} != 0.5 s");
    }

    #[test]
    fn on_bytes_is_exact_integer_math() {
        let cfg = LrdCrossConfig { peak_bps: 8_000_000 };
        // 8 Mbps for 20 ms = 20k bytes.
        assert_eq!(cfg.on_bytes(20_000_000), 20_000);
        // Sub-byte remainders floor.
        assert_eq!(cfg.on_bytes(1), 0);
    }

    #[test]
    fn key_words_distinguish_distinct_shapes() {
        let a = LrdCrossConfig::for_load(20_000_000, 400);
        let b = LrdCrossConfig::for_load(20_000_000, 401);
        assert_ne!(a.key_words(), b.key_words());
        assert_eq!(a.key_words(), a.key_words());
        assert_eq!(LrdCrossConfig::for_load(20_000_000, 0).peak_bps, 0);
    }
}
