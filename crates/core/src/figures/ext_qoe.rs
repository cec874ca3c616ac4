//! Extension: DASH rate adaptation under long-range-dependent load.
//!
//! The paper's Table 1 clients all stream at a *fixed* encoding rate; the
//! measurement literature that followed (Ye et al.'s DASH QoE studies)
//! characterises the adaptive clients that replaced them by two session
//! quantities: the **stall ratio** (stalled time over session time) as the
//! shared bottleneck's background load rises, and the **bitrate-switch
//! rate** the adaptation loop pays to keep that ratio down.
//!
//! This driver sweeps an [`LrdCrossConfig`] aggregate — superposed
//! heavy-tailed on/off sources, the self-similar load shape real access
//! links carry — across fractions of the Home profile's 20 Mbps downlink,
//! streams `n` DASH sessions per load point, and reports:
//!
//! * `ext-qoe` (figure): mean stall ratio vs offered background load — the
//!   hockey-stick curve shape of the DASH QoE literature (flat while the
//!   ladder can duck under the load, rising once even the lowest rung no
//!   longer fits the droughts);
//! * `ext-qoe-switches` (table): per load point, the client's own switch
//!   counter (ground truth from [`AbrLogic`](vstream_app::strategies::AbrLogic))
//!   next to the wire-side estimate
//!   ([`switch_counts_of`](vstream_analysis::switch_counts_of) over the
//!   session's per-connection summaries) a passive observer would
//!   reconstruct from per-connection byte totals alone.
//!
//! The sweep resolves as one parallel batch whose workers reduce each reply
//! to its QoE summary and wire-side switch counts, so no reply outlives its
//! worker and the numbers are byte-identical across `--jobs`. No later
//! figure reads these sessions, so the specs are not
//! [`shared`](SessionSpec::shared) and the session cache retains none of
//! them.

use vstream_app::strategies::{ABR_LADDER, ABR_SEGMENT_MS};
use vstream_net::{LrdCrossConfig, NetworkProfile};
use vstream_sim::derive_seed;
use vstream_workload::{Client, Container};

use crate::figures::{Run, CAPTURE};
use crate::query::SessionQuery;
use crate::report::{FigureData, Series, TableData};
use crate::session::SessionSpec;

/// Stream tag for the ext-qoe load-sweep session stream.
const STREAM_EXT_QOE: u64 = 0xE07E;

/// Offered background load per sweep point, in thousandths of the Home
/// downlink. The top points deliberately push past the ladder's floor
/// (350 kbps needs ~1.8% of the link; what kills it is the LRD aggregate's
/// multi-second droughts, not the mean).
const LOADS_PERMILLE: [u32; 5] = [0, 250, 500, 700, 850];

/// The DASH load sweep: `(stall-ratio figure, switch-rate table)` over `n`
/// sessions per load point.
pub fn ext_qoe_load_sweep(run: &mut Run, n: usize) -> (FigureData, TableData) {
    let seed = run.seed;
    let n = n.max(1);
    let profile = NetworkProfile::Home;

    // One flat spec list so the whole sweep fans out as a single batch.
    // Engine seeds are identity-derived per (load, session) — never drawn
    // from a shared RNG — and the video outlasts the capture at every rung.
    let video = crate::figures::long_video(1, 1_000_000);
    let specs: Vec<SessionSpec> = LOADS_PERMILLE
        .iter()
        .enumerate()
        .flat_map(|(li, &load)| {
            (0..n).map(move |i| {
                let engine_seed =
                    derive_seed(seed, &[STREAM_EXT_QOE, li as u64, i as u64]);
                let spec = SessionSpec::new(
                    Client::Dash,
                    Container::Html5,
                    video,
                    profile,
                    engine_seed,
                    CAPTURE,
                );
                if load == 0 {
                    spec
                } else {
                    spec.with_lrd_cross(LrdCrossConfig::for_load(profile.down_bps(), load))
                }
            })
        })
        .collect();

    let query = SessionQuery::default()
        .qoe()
        .switch_rate(ABR_LADDER.to_vec(), ABR_SEGMENT_MS);
    let replies = run.resolve(&specs, &query, |_, reply| {
        (reply.answer.qoe, reply.answer.switch_counts)
    });

    let capture_minutes = CAPTURE.as_secs_f64() / 60.0;
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(LOADS_PERMILLE.len());
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(LOADS_PERMILLE.len());
    for (li, &load) in LOADS_PERMILLE.iter().enumerate() {
        // Dash × Html5 is always applicable, but the reduction never
        // assumes it: inapplicable or skipped cells simply drop out.
        let group: Vec<_> = replies[li * n..(li + 1) * n]
            .iter()
            .flatten()
            .collect();
        let sessions = group.len().max(1) as f64;
        let mut stall_ratio_sum = 0.0;
        let mut startup_ms_sum = 0.0;
        let mut started = 0u64;
        let mut client_switches = 0u64;
        let mut wire_switches = 0u64;
        let mut wire_segments = 0u64;
        for (qoe, counts) in group {
            if let Some(q) = qoe {
                stall_ratio_sum +=
                    q.stall_total_us as f64 / (CAPTURE.as_nanos() as f64 / 1_000.0);
                if let Some(us) = q.startup_us {
                    startup_ms_sum += us as f64 / 1_000.0;
                    started += 1;
                }
                client_switches += q.switches;
            }
            if let Some(c) = counts {
                wire_switches += c.switches;
                wire_segments += c.segments;
            }
        }
        let load_frac = load as f64 / 1000.0;
        points.push((load_frac, stall_ratio_sum / sessions));
        let startup_ms = if started == 0 {
            "-".to_string()
        } else {
            format!("{:.0}", startup_ms_sum / started as f64)
        };
        rows.push(vec![
            format!("{:.0}%", load_frac * 100.0),
            startup_ms,
            format!("{:.4}", stall_ratio_sum / sessions),
            format!("{:.2}", client_switches as f64 / sessions / capture_minutes),
            format!("{:.2}", wire_switches as f64 / sessions / capture_minutes),
            format!("{:.1}", wire_segments as f64 / sessions),
        ]);
    }

    let fig = FigureData {
        id: "ext-qoe",
        title: format!(
            "DASH stall ratio vs LRD background load ({} sessions/point, Home 20 Mbps)",
            n
        ),
        x_label: "offered_load_fraction",
        y_label: "mean_stall_ratio",
        series: vec![Series::new("DASH ladder 0.35-3.8 Mbps, 4 s segments", points)],
    };
    let table = TableData {
        id: "ext-qoe-switches",
        title: "DASH bitrate-switch rate vs LRD background load".into(),
        headers: vec![
            "load".into(),
            "startup (ms)".into(),
            "stall ratio".into(),
            "switches/min (client)".into(),
            "switches/min (wire est.)".into(),
            "segments/session".into(),
        ],
        rows,
    };
    (fig, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::test_run;

    #[test]
    fn stall_ratio_rises_with_load_and_switch_estimates_track() {
        let (fig, table) = ext_qoe_load_sweep(&mut test_run(73), 2);
        let pts = &fig.series[0].points;
        assert_eq!(pts.len(), LOADS_PERMILLE.len());
        // Idle link: the ladder fits with room to spare, no stalls.
        assert!(pts[0].1 < 0.01, "stall ratio at zero load: {}", pts[0].1);
        // The heaviest load point must hurt more than the idle one, and
        // the curve's tail must dominate its head (the hockey stick).
        let head = pts[0].1.max(pts[1].1);
        let tail = pts[LOADS_PERMILLE.len() - 1].1;
        assert!(tail > head, "stall ratio flat across load: {pts:?}");
        // Table shape and parsability; the adaptation loop must actually
        // switch under contention.
        assert_eq!(table.rows.len(), LOADS_PERMILLE.len());
        let parse = |s: &str| -> f64 { s.parse().expect("numeric cell") };
        let busy = &table.rows[LOADS_PERMILLE.len() - 1];
        assert!(parse(&busy[3]) > 0.0, "client switch rate at heavy load: {busy:?}");
        // The wire estimate sees the same order of magnitude of segments
        // the client issued (it can only differ on capture-truncated
        // connections).
        for row in &table.rows {
            assert!(parse(&row[5]) >= 1.0, "segments/session: {row:?}");
        }
    }
}
