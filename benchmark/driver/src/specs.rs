//! Seeded input generation: the spec lists of the in-process workloads and
//! the probe samples of all four.
//!
//! A workload is a list of *cells* (strategy class × vantage point) with a
//! fixed number of sessions per cell. The videos of a cell are the evenly
//! spaced order statistics, by nominal download size, of a seeded pool drawn
//! from the cell's dataset: every seed yields different videos and engine
//! seeds, but the size profile — and with it the simulated work — stays close
//! to the dataset's quantile function, so host time is comparable across
//! seeds. (Plain seeded sampling is not: YouTube durations are log-normal,
//! and one hour-long HD video moves a 48-session total by a tenth.)

use vstream::campaign::{CampaignSpec, CampaignStrategy};
use vstream::{SessionQuery, SessionSpec};
use vstream_app::Video;
use vstream_net::{LrdCrossConfig, NetworkProfile};
use vstream_sim::{derive_seed, SimDuration, SimRng};
use vstream_workload::{valid_profiles, Client, Container, Dataset, Service};

/// The paper's capture duration per video (§4.2).
pub const CAPTURE: SimDuration = SimDuration::from_secs(180);

/// Videos drawn per cell before the order statistics are taken.
const POOL: u64 = 4096;

/// Seed-derivation tag of the benchmark's session streams.
const TAG: u64 = 0xBE7C;

/// The four workloads. Names are fixed; later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FiguresAll,
    Campaign1m,
    SessionsBulk,
    SessionsPaced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FiguresAll,
        Workload::Campaign1m,
        Workload::SessionsBulk,
        Workload::SessionsPaced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresAll => "figures_all",
            Workload::Campaign1m => "campaign_1m",
            Workload::SessionsBulk => "sessions_bulk",
            Workload::SessionsPaced => "sessions_paced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads the driver runs itself; the other two are
    /// `repro` child processes the orchestrator spawns.
    pub fn in_process(self) -> bool {
        matches!(self, Workload::SessionsBulk | Workload::SessionsPaced)
    }

    /// Sessions per cell at full size (`--per-cell` overrides; `--quick`
    /// passes 1).
    pub fn default_per_cell(self) -> usize {
        match self {
            Workload::SessionsBulk => 6,
            Workload::SessionsPaced => 3,
            // Probe samples only: the workload itself is a `repro` run.
            Workload::FiguresAll | Workload::Campaign1m => 2,
        }
    }

    /// The features each session is asked for.
    pub fn query(self) -> SessionQuery {
        match self {
            // Totals only: analysis must stay negligible on the fast-path
            // workload.
            Workload::SessionsBulk => SessionQuery::default().totals(),
            // The campaign's own query (`run_campaign`).
            Workload::Campaign1m => SessionQuery::default()
                .throughput(SimDuration::from_secs(1))
                .qoe(),
            // Every fold the figure drivers use, all at once.
            Workload::SessionsPaced | Workload::FiguresAll => SessionQuery::default()
                .download(SimDuration::from_millis(500))
                .window(0)
                .throughput(SimDuration::from_millis(100))
                .onoff()
                .phases()
                .ack_clock()
                .summaries()
                .totals()
                .qoe(),
        }
    }
}

/// One strategy class on one vantage point.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The `app.class_ns_per_event.<class>` label.
    pub class: &'static str,
    pub client: Client,
    pub container: Container,
    /// `None` marks the DASH cells: ABR picks its own rates, so every
    /// session streams one long video (as `repro ext-qoe` does).
    pub dataset: Option<Dataset>,
    pub profile: NetworkProfile,
    /// LRD background load on the downlink, in thousandths of its rate.
    pub lrd_permille: u32,
}

/// The strategy classes `app.class_ns_per_event.*` is reported for.
pub const CLASSES: [&str; 8] = [
    "flash",
    "ie_html5",
    "chrome_long",
    "ipad",
    "netflix",
    "bulk",
    "dash_clean",
    "dash_lrd",
];

fn cell(
    class: &'static str,
    client: Client,
    container: Container,
    dataset: Dataset,
    profile: NetworkProfile,
) -> Cell {
    Cell {
        class,
        client,
        container,
        dataset: Some(dataset),
        profile,
        lrd_permille: 0,
    }
}

fn dash_cell(lrd_permille: u32) -> Cell {
    Cell {
        class: if lrd_permille == 0 {
            "dash_clean"
        } else {
            "dash_lrd"
        },
        client: Client::Dash,
        container: Container::Html5,
        dataset: None,
        profile: NetworkProfile::Home,
        lrd_permille,
    }
}

/// `sessions_bulk`: the two no-ON-OFF cells of Table 1, HD videos, every
/// vantage point. One connection per session, one event per packet.
pub fn bulk_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (client, container) in [
        (Client::Firefox, Container::Html5),
        (Client::Chrome, Container::FlashHd),
    ] {
        for profile in NetworkProfile::ALL {
            cells.push(cell("bulk", client, container, Dataset::YouHd, profile));
        }
    }
    cells
}

/// `sessions_paced`: every paced strategy on every vantage point it was
/// measured from, plus DASH on Home at three background loads.
pub fn paced_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let youtube = [
        (
            "flash",
            Client::Firefox,
            Container::Flash,
            Dataset::YouFlash,
        ),
        (
            "ie_html5",
            Client::InternetExplorer,
            Container::Html5,
            Dataset::YouHtml,
        ),
        (
            "chrome_long",
            Client::Chrome,
            Container::Html5,
            Dataset::YouHtml,
        ),
        ("ipad", Client::Ipad, Container::Html5, Dataset::YouMob),
    ];
    for (class, client, container, dataset) in youtube {
        for &profile in valid_profiles(Service::YouTube) {
            cells.push(cell(class, client, container, dataset, profile));
        }
    }
    let netflix = [
        (Client::Firefox, Dataset::NetPc),
        (Client::Ipad, Dataset::NetMob),
    ];
    for (client, dataset) in netflix {
        for &profile in valid_profiles(Service::Netflix) {
            cells.push(cell(
                "netflix",
                client,
                Container::Silverlight,
                dataset,
                profile,
            ));
        }
    }
    for load in [0, 500, 850] {
        cells.push(dash_cell(load));
    }
    cells
}

/// One cell per strategy class, all on Home (the only vantage point every
/// class is valid on), so per-class costs differ by strategy, not by path.
/// Also the probe sample of `figures_all`, whose figures sweep these cells.
pub fn class_cells() -> Vec<Cell> {
    let home = NetworkProfile::Home;
    vec![
        cell(
            "flash",
            Client::Firefox,
            Container::Flash,
            Dataset::YouFlash,
            home,
        ),
        cell(
            "ie_html5",
            Client::InternetExplorer,
            Container::Html5,
            Dataset::YouHtml,
            home,
        ),
        cell(
            "chrome_long",
            Client::Chrome,
            Container::Html5,
            Dataset::YouHtml,
            home,
        ),
        cell(
            "ipad",
            Client::Ipad,
            Container::Html5,
            Dataset::YouMob,
            home,
        ),
        cell(
            "netflix",
            Client::Firefox,
            Container::Silverlight,
            Dataset::NetPc,
            home,
        ),
        cell(
            "bulk",
            Client::Firefox,
            Container::Html5,
            Dataset::YouHd,
            home,
        ),
        dash_cell(0),
        dash_cell(850),
    ]
}

/// Bytes the session would move if nothing but the video, the capture
/// window and the downlink limited it. Only used to order a cell's pool.
fn nominal_bytes(video: &Video, cell: &Cell) -> u64 {
    let link_cap = cell.profile.down_bps() / 8 * CAPTURE.as_nanos() / 1_000_000_000;
    let whole = video.size_bytes().min(link_cap);
    if cell.class == "bulk" {
        whole
    } else {
        // Paced strategies fetch a buffering amount plus ~1.25x real time,
        // so 300 s of content bounds what a 180 s capture can hold.
        whole.min(video.encoding_bps / 8 * 300)
    }
}

/// Draws `per_cell` sessions for each cell, rank-major (the smallest video
/// of every cell first), so consecutive runs of the list mix all cells and
/// cost about the same. Engine seeds and video ids are identity-derived, so
/// no two specs of a list share a cache key.
pub fn draw(seed: u64, cells: &[Cell], per_cell: usize) -> Vec<(Cell, SessionSpec)> {
    let videos: Vec<Vec<Video>> = cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let c = c as u64;
            let Some(dataset) = cell.dataset else {
                return (0..per_cell as u64)
                    .map(|i| Video::new(c * POOL + i, 1_000_000, SimDuration::from_secs(3000)))
                    .collect();
            };
            let stream = derive_seed(seed, &[TAG, c]);
            let mut pool: Vec<Video> = (0..POOL)
                .map(|i| {
                    let mut v = dataset.sample_indexed(stream, i);
                    v.id += c * POOL;
                    v
                })
                .collect();
            pool.sort_by_key(|v| (nominal_bytes(v, cell), v.id));
            (0..per_cell)
                .map(|k| pool[(2 * k + 1) * POOL as usize / (2 * per_cell)])
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(cells.len() * per_cell);
    for i in 0..per_cell {
        for (c, (cell, cell_videos)) in cells.iter().zip(&videos).enumerate() {
            let engine_seed = derive_seed(seed, &[TAG, c as u64, i as u64, 1]);
            let mut spec = SessionSpec::new(
                cell.client,
                cell.container,
                cell_videos[i],
                cell.profile,
                engine_seed,
                CAPTURE,
            );
            if cell.lrd_permille > 0 {
                spec = spec.with_lrd_cross(LrdCrossConfig::for_load(
                    cell.profile.down_bps(),
                    cell.lrd_permille,
                ));
            }
            out.push((*cell, spec));
        }
    }
    out
}

/// The packet-shard population of `repro campaign`, re-derived from the
/// public [`CampaignSpec`] fields (its own sampler is private): each
/// strategy of the mix on each vantage point, `per_cell` videos uniform in
/// the spec's encoding and duration ranges.
fn campaign_sample(seed: u64, per_cell: usize) -> Vec<SessionSpec> {
    let spec = CampaignSpec::for_viewers(1_000_000);
    let mut rng = SimRng::new(derive_seed(seed, &[TAG, 0xCA]));
    let mut out = Vec::new();
    for strategy in CampaignStrategy::ALL {
        let (client, container) = strategy.cell();
        for &(profile, _) in &spec.profile_mix {
            for _ in 0..per_cell {
                let id = out.len() as u64;
                let rate = rng.uniform_range(spec.encoding_bps.0, spec.encoding_bps.1) as u64;
                let secs = rng.uniform_range(spec.duration_secs.0, spec.duration_secs.1);
                let video = Video::new(id, rate, SimDuration::from_secs_f64(secs));
                let capture = SimDuration::from_secs_f64(secs + 60.0);
                let engine_seed = derive_seed(seed, &[TAG, 0xCA, id]);
                out.push(SessionSpec::new(
                    client,
                    container,
                    video,
                    profile,
                    engine_seed,
                    capture,
                ));
            }
        }
    }
    out
}

/// The sessions a workload runs in-process — its full spec list for
/// `sessions_*`, a sample of the cells the `repro` child resolves for the
/// other two (what the per-layer probes are fed from).
pub fn workload_specs(workload: Workload, seed: u64, per_cell: usize) -> Vec<SessionSpec> {
    let cells = match workload {
        Workload::SessionsBulk => bulk_cells(),
        Workload::SessionsPaced => paced_cells(),
        Workload::FiguresAll => class_cells(),
        Workload::Campaign1m => return campaign_sample(seed, per_cell),
    };
    draw(seed, &cells, per_cell)
        .into_iter()
        .map(|(_, spec)| spec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vstream::cache::key_of;
    use vstream_workload::logic_for;

    fn specs(w: Workload, seed: u64) -> Vec<SessionSpec> {
        workload_specs(w, seed, 3)
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        for w in Workload::ALL {
            let a: Vec<_> = specs(w, 7).iter().map(key_of).collect();
            let b: Vec<_> = specs(w, 7).iter().map(key_of).collect();
            let c: Vec<_> = specs(w, 8).iter().map(key_of).collect();
            assert_eq!(a, b, "{w:?}");
            assert_ne!(a, c, "{w:?}");
            assert_eq!(
                a.len(),
                c.len(),
                "{w:?}: session count must not depend on the seed"
            );
        }
    }

    #[test]
    fn every_spec_is_a_valid_cell_with_a_unique_cache_key() {
        for w in Workload::ALL {
            let list = specs(w, 2026);
            assert!(!list.is_empty());
            let mut keys = HashSet::new();
            for s in &list {
                assert!(
                    logic_for(s.client, s.container, s.video).is_some(),
                    "{w:?}: {:?} x {:?} is not a Table 1 cell",
                    s.client,
                    s.container
                );
                assert!(keys.insert(key_of(s)), "{w:?}: duplicate cache key");
            }
        }
    }

    #[test]
    fn cell_counts_match_the_readme() {
        assert_eq!(bulk_cells().len(), 8);
        assert_eq!(paced_cells().len(), 23);
        let classes: Vec<_> = class_cells().iter().map(|c| c.class).collect();
        assert_eq!(classes, CLASSES);
    }

    #[test]
    fn order_statistics_keep_total_size_steady_across_seeds() {
        let total = |seed: u64| -> f64 {
            draw(seed, &bulk_cells(), 6)
                .iter()
                .map(|(c, s)| nominal_bytes(&s.video, c) as f64)
                .sum()
        };
        let base = total(1);
        for seed in 2..8 {
            let rel = (total(seed) - base).abs() / base;
            assert!(
                rel < 0.03,
                "seed {seed}: total nominal bytes moved by {rel:.3}"
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
