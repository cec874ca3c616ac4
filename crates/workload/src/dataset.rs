//! The six measurement datasets of §4.1, as seeded samplers.
//!
//! | Dataset  | Videos | Encoding rates     | Notes |
//! |----------|--------|--------------------|-------|
//! | YouFlash | 5000   | 0.2 – 1.5 Mbps     | 240p/360p default, Flash |
//! | YouHD    | 2000   | 0.2 – 4.8 Mbps     | 720p default, Flash HD |
//! | YouHtml  | 3000   | 0.2 – 2.5 Mbps     | 2500 from YouFlash + 500 from YouHD, HTML5 |
//! | YouMob   | —      | 0.2 – 2.7 Mbps     | native mobile applications |
//! | NetPC    | 200    | 0.5 – 3.0 Mbps     | Netflix, Silverlight (multi-rate) |
//! | NetMob   | 50     | subset of NetPC    | Netflix native applications |
//!
//! Durations follow a log-normal: YouTube's 2011 median video length was
//! around four minutes with a heavy tail (Cha et al., cited by the paper);
//! Netflix titles are television episodes and films (20 minutes – 2 hours).

use vstream_app::Video;
use vstream_sim::{derive_seed, SimDuration, SimRng};

/// One of the paper's six datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// 5000 randomly selected Flash videos at the default resolution.
    YouFlash,
    /// 2000 HD (720p) videos streamed over the Flash container.
    YouHd,
    /// 3000 videos playable through the HTML5 player.
    YouHtml,
    /// Videos searched through the native mobile applications.
    YouMob,
    /// 200 Netflix watch-instantly titles.
    NetPc,
    /// 50 titles sampled from NetPC for the mobile applications.
    NetMob,
}

impl Dataset {
    /// The catalogue size the paper reports (YouMob's is not stated; the
    /// value matches the scale of the others' mobile subsets).
    pub(crate) fn catalogue_size(self) -> usize {
        match self {
            Dataset::YouFlash => 5000,
            Dataset::YouHd => 2000,
            Dataset::YouHtml => 3000,
            Dataset::YouMob => 500,
            Dataset::NetPc => 200,
            Dataset::NetMob => 50,
        }
    }

    /// Encoding-rate range in bits per second, from §4.1.
    pub(crate) fn rate_range_bps(self) -> (u64, u64) {
        match self {
            Dataset::YouFlash => (200_000, 1_500_000),
            Dataset::YouHd => (200_000, 4_800_000),
            Dataset::YouHtml => (200_000, 2_500_000),
            Dataset::YouMob => (200_000, 2_700_000),
            Dataset::NetPc => (500_000, 3_000_000),
            Dataset::NetMob => (500_000, 1_600_000),
        }
    }

    /// True for the Netflix datasets (different duration model and vantage
    /// points).
    pub(crate) fn is_netflix(self) -> bool {
        matches!(self, Dataset::NetPc | Dataset::NetMob)
    }

    /// Samples one video.
    pub(crate) fn sample(self, rng: &mut SimRng, id: u64) -> Video {
        let (lo, hi) = self.rate_range_bps();
        // Encoding rates cluster toward the low/default end of the range:
        // most 2011 YouTube videos were 240p/360p. A squared uniform draw
        // biases low while covering the whole published range.
        let u = rng.uniform();
        let rate = lo as f64 + (hi - lo) as f64 * u * u.sqrt();
        let rate = (rate as u64).clamp(lo, hi);

        let duration = if self.is_netflix() {
            // Netflix: episodes (~22/45 min) and films (~100 min).
            let class = rng.uniform();
            let minutes = if class < 0.4 {
                rng.uniform_range(20.0, 25.0)
            } else if class < 0.75 {
                rng.uniform_range(40.0, 50.0)
            } else {
                rng.uniform_range(85.0, 130.0)
            };
            SimDuration::from_secs_f64(minutes * 60.0)
        } else {
            // YouTube: log-normal, median ≈ 4 minutes, clamped to [30 s, 1 h].
            let secs = rng.log_normal((240.0f64).ln(), 0.8);
            SimDuration::from_secs_f64(secs.clamp(30.0, 3600.0))
        };

        Video::new(id, rate, duration)
    }

    /// Samples the `index`-th video of a seeded draw, independent of any
    /// other index.
    ///
    /// The video is a pure function of `(dataset, seed, index)` — not of how
    /// many videos were sampled before it — so callers may materialize any
    /// subset, in any order, on any thread.
    pub fn sample_indexed(self, seed: u64, index: u64) -> Video {
        let stream = seed ^ (self.catalogue_size() as u64) << 17;
        let mut rng = SimRng::new(derive_seed(stream, &[index]));
        self.sample(&mut rng, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` videos of a seeded draw, in index order.
    fn sample_many(ds: Dataset, seed: u64, n: u64) -> Vec<Video> {
        (0..n).map(|i| ds.sample_indexed(seed, i)).collect()
    }

    const ALL: [Dataset; 6] = [
        Dataset::YouFlash,
        Dataset::YouHd,
        Dataset::YouHtml,
        Dataset::YouMob,
        Dataset::NetPc,
        Dataset::NetMob,
    ];

    #[test]
    fn catalogue_sizes_match_paper() {
        assert_eq!(Dataset::YouFlash.catalogue_size(), 5000);
        assert_eq!(Dataset::YouHd.catalogue_size(), 2000);
        assert_eq!(Dataset::YouHtml.catalogue_size(), 3000);
        assert_eq!(Dataset::NetPc.catalogue_size(), 200);
        assert_eq!(Dataset::NetMob.catalogue_size(), 50);
    }

    #[test]
    fn samples_respect_rate_ranges() {
        for ds in ALL {
            let (lo, hi) = ds.rate_range_bps();
            for v in sample_many(ds, 1, 500) {
                assert!(
                    (lo..=hi).contains(&v.encoding_bps),
                    "{:?}: rate {} outside [{lo}, {hi}]",
                    ds,
                    v.encoding_bps
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_many(Dataset::YouFlash, 7, 100);
        let b = sample_many(Dataset::YouFlash, 7, 100);
        assert_eq!(a, b);
        let c = sample_many(Dataset::YouFlash, 8, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn youtube_durations_are_minutes_scale() {
        let videos = sample_many(Dataset::YouFlash, 3, 2000);
        let mut secs: Vec<f64> = videos.iter().map(|v| v.duration.as_secs_f64()).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = secs[secs.len() / 2];
        assert!(
            (120.0..=420.0).contains(&median),
            "median YouTube duration = {median:.0} s"
        );
        assert!(secs.iter().all(|&s| (30.0..=3600.0).contains(&s)));
    }

    #[test]
    fn netflix_durations_are_episode_to_film_scale() {
        let videos = sample_many(Dataset::NetPc, 3, 1000);
        let secs: Vec<f64> = videos.iter().map(|v| v.duration.as_secs_f64()).collect();
        assert!(secs.iter().all(|&s| (1200.0..=7800.0).contains(&s)));
        // Both episodes and films appear.
        assert!(secs.iter().any(|&s| s < 1800.0));
        assert!(secs.iter().any(|&s| s > 5000.0));
    }

    #[test]
    fn rates_are_biased_low() {
        // Most YouTube videos play at the default (low) resolution.
        let videos = sample_many(Dataset::YouFlash, 5, 2000);
        let below_midpoint = videos
            .iter()
            .filter(|v| v.encoding_bps < 850_000)
            .count();
        assert!(
            below_midpoint > videos.len() / 2,
            "only {below_midpoint} of {} below midpoint",
            videos.len()
        );
    }

    #[test]
    fn sample_indexed_matches_sample_many_at_any_index() {
        for ds in ALL {
            let many = sample_many(ds, 11, 32);
            // Probe out of order: the indexed draw must not depend on
            // which indices were materialized before it.
            for i in [31usize, 0, 17, 4] {
                assert_eq!(ds.sample_indexed(11, i as u64), many[i], "{ds:?}[{i}]");
            }
        }
    }

    #[test]
    fn ids_are_sequential() {
        let videos = sample_many(Dataset::YouHd, 1, 10);
        for (i, v) in videos.iter().enumerate() {
            assert_eq!(v.id, i as u64);
        }
    }
}
