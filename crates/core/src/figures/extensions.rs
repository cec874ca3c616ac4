//! Extension experiments beyond the paper's evaluation — the ablations
//! DESIGN.md commits to:
//!
//! 1. stall probability vs accumulation ratio under transient congestion
//!    (quantifying §3's "an accumulation ratio larger than one improves the
//!    resilience to transient network congestion");
//! 2. SACK vs NewReno-only loss recovery (the transport substrate choice);
//! 3. Reno vs CUBIC congestion control (does the application-driven ON-OFF
//!    structure survive a controller swap? — it must, since the paper's
//!    findings are not tied to one controller);
//! 4. higher moments of the aggregate traffic (the §6.1 footnote that the
//!    strategy-independence result extends beyond the variance).

use vstream_analysis::{classify_analysis, AnalysisConfig, AnalysisFold, Cdf, ThroughputFold};
use vstream_app::engine::{Engine, SessionLogic, SessionScratch};
use vstream_app::strategies::{ServerPacedConfig, ServerPacedLogic};
use vstream_app::Video;
use vstream_capture::NullSink;
use vstream_model::{FluidSim, FluidStrategy, PopulationModel};
use vstream_net::{CrossTraffic, DuplexPath, LinkConfig, LossModel, NetworkProfile};
use vstream_sim::{derive_seed, par_indexed, SimDuration, SimRng};
use vstream_tcp::{CcAlgorithm, TcpConfig};

use crate::figures::{long_video, CustomPaced, Run, MC_HORIZON_SECS};
use crate::report::{FigureData, Series, TableData};
use crate::session::{par_sessions, run_engine};

/// Extension 1: playback disruption vs accumulation ratio.
///
/// Streams `n` sessions per accumulation ratio over the Home network under
/// bursty competing traffic and reports the *mean stall time per session*.
/// Ratios above one let the player buffer grow between congestion episodes,
/// so each outage is absorbed by accumulated headroom; at k ≤ 1 the buffer
/// never recovers and every episode is felt — quantifying §3's claim that
/// "an accumulation ratio larger than one improves the resilience to
/// transient network congestion".
pub fn ext_stall_vs_accumulation(run: &Run, n: usize) -> FigureData {
    const RATIOS: [f64; 6] = [0.95, 1.0, 1.05, 1.1, 1.25, 1.5];
    // Engine seeds are derived from each session's identity (ratio index,
    // session index), not drawn from a shared RNG, so every (k, i) cell is
    // order-independent and the whole k × n sweep runs as one parallel batch.
    let stalls = par_sessions(RATIOS.len() * n, run.jobs, |scratch, j| {
        let (ki, i) = (j / n, j % n);
        let video = Video::new(1, 2_500_000, SimDuration::from_secs(2400));
        let cfg = ServerPacedConfig {
            accumulation: RATIOS[ki],
            // A shallow startup buffer isolates the steady-state
            // resilience effect under study.
            buffer_playback_secs: 5.0,
        };
        let engine_seed = derive_seed(run.seed, &[0x57A, ki as u64, i as u64]);
        // A 20 Mbps downlink with occasional large bursts of competing
        // traffic (mean 1.2 MB every 3 s, exponential sizes): the link is
        // fine on average, but burst clusters starve the stream for seconds
        // at a time — the "transient network congestion" §3 says the
        // accumulation ratio guards against. Headroom (k > 1) both absorbs
        // an outage (deeper accumulated buffer) and refills the buffer
        // faster afterwards (at (k-1)·e).
        let path = NetworkProfile::Home.build_path().with_cross_traffic(CrossTraffic::Bursts, engine_seed);
        let capture = SimDuration::from_secs(180);
        let mut logic = ServerPacedLogic::new(cfg, video);
        let stem = || format!("ext-stalls-k{ki}-r{i}-s{engine_seed}");
        run_engine(path, engine_seed, capture, scratch, &mut logic, &mut NullSink, stem);
        let viewer = logic.viewer().expect("a server-paced session has a player");
        viewer.player().stats().stall_time.as_secs_f64()
    });
    let points: Vec<(f64, f64)> = RATIOS
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let total: f64 = stalls[ki * n..(ki + 1) * n].iter().sum();
            (k, total / n as f64)
        })
        .collect();
    FigureData {
        id: "ext-stalls",
        title: "Mean stall time vs accumulation ratio under bursty ~50% cross traffic".into(),
        x_label: "accumulation_ratio",
        y_label: "mean_stall_secs_per_session",
        series: vec![Series::new("Home network, 2.5 Mbps video", points)],
    }
}

/// Extension 2: SACK vs NewReno-only recovery.
///
/// Bulk-transfers 16 MB over a 50 Mbps path with a 120 ms RTT at several
/// loss rates, with and without SACK, and reports the completion times
/// averaged over `RUNS` transfers per cell. Without SACK, NewReno repairs
/// one hole per round trip, so loss bursts inflate the transfer time
/// dramatically.
pub fn ext_sack_ablation(run: &Run) -> TableData {
    const RUNS: usize = 8;
    let mut rows = Vec::new();
    // The window must be large (high BDP) for multi-hole windows to occur:
    // SACK's advantage is repairing many holes per round trip.
    let cases: [(&str, LossModel); 3] = [
        ("Bernoulli 0.3%", LossModel::bernoulli(0.003)),
        // ~0.5% average loss arriving in bursts of ~8 packets: the pattern
        // where cumulative-ACK-only recovery pays one round trip per hole.
        ("bursty ~0.5% (GE)", LossModel::gilbert_elliott(0.0008, 0.12, 0.0, 0.9)),
        ("bursty ~1.5% (GE)", LossModel::gilbert_elliott(0.0025, 0.12, 0.0, 0.9)),
    ];
    // Every (loss model, SACK, run) transfer is independent — each is
    // seeded by its run index alone (the SACK pairing intentionally reuses
    // the same seed), so the whole sweep runs as one parallel batch.
    let totals = par_sessions(cases.len() * 2 * RUNS, run.jobs, |scratch, j| {
        let case = j / (2 * RUNS);
        let sack = (j / RUNS).is_multiple_of(2);
        let i = (j % RUNS) as u64;
        let engine_seed = run.seed.wrapping_add(i * 7919);
        let switch = if sack { "sack" } else { "nosack" };
        let stem = || format!("ext-sack-c{case}-{switch}-r{i}-s{engine_seed}");
        bulk_transfer_time(scratch, engine_seed, cases[case].1.clone(), sack, stem)
    });
    for (case, (label, _)) in cases.iter().enumerate() {
        let mean = |sack_slot: usize| -> f64 {
            let start = (case * 2 + sack_slot) * RUNS;
            totals[start..start + RUNS].iter().sum::<f64>() / RUNS as f64
        };
        let (with_sack, without) = (mean(0), mean(1));
        rows.push(vec![
            label.to_string(),
            format!("{with_sack:.2}"),
            format!("{without:.2}"),
            format!("{:.2}x", without / with_sack),
        ]);
    }
    TableData {
        id: "ext-sack",
        title: "SACK ablation: 16 MB bulk transfer time (s), 50 Mbps / 120 ms RTT".into(),
        headers: vec![
            "loss model".into(),
            "with SACK (s)".into(),
            "NewReno only (s)".into(),
            "slowdown".into(),
        ],
        rows,
    }
}

/// Transfer completion time for a 16 MB bulk download. The logic has no
/// player, so the session contributes nothing to the ledger's `app_*` slots.
fn bulk_transfer_time(
    scratch: &mut SessionScratch,
    seed: u64,
    loss: LossModel,
    sack: bool,
    stem: impl FnOnce() -> String,
) -> f64 {
    let down = LinkConfig::new(50_000_000, SimDuration::from_millis(60)).with_loss(loss);
    let up = LinkConfig::new(50_000_000, SimDuration::from_millis(60));
    let path = DuplexPath::new(down, up);
    let mut logic = Bulk::new(sack);
    let capture = SimDuration::from_secs(600);
    run_engine(path, seed, capture, scratch, &mut logic, &mut NullSink, stem);
    logic.done_at.unwrap_or(600.0)
}

/// The `ext-sack` transfer: 16 MB downloaded with SACK on or off at both
/// ends, stopped at the last byte. It has no player, so it reports no
/// [`SessionLogic::viewer`].
struct Bulk {
    size: u64,
    read: u64,
    done_at: Option<f64>,
    client_cfg: TcpConfig,
    server_cfg: TcpConfig,
}

impl Bulk {
    fn new(sack: bool) -> Self {
        Bulk {
            size: 16 << 20,
            read: 0,
            done_at: None,
            client_cfg: TcpConfig::default().with_recv_buffer(8 << 20).with_sack(sack),
            server_cfg: TcpConfig::default().with_sack(sack),
        }
    }
}

impl SessionLogic for Bulk {
    fn on_start(&mut self, eng: &mut Engine) {
        eng.open_connection(self.client_cfg.clone(), self.server_cfg.clone());
    }
    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        eng.server_write(conn, self.size);
        eng.server_close(conn);
    }
    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        self.read += eng.client_read(conn, u64::MAX);
        if self.read >= self.size && self.done_at.is_none() {
            self.done_at = Some(eng.now().as_secs_f64());
            eng.stop();
        }
    }
}

/// Extension 3: Reno vs CUBIC under the Flash streaming strategy.
///
/// The paper's traffic structure is application-driven; swapping the
/// congestion controller must leave the block size, accumulation ratio, and
/// strategy classification unchanged. Returns one row per controller.
pub fn ext_congestion_ablation(run: &Run) -> TableData {
    let seed = run.seed;
    let cfg = AnalysisConfig::default();
    let controllers = [("Reno", CcAlgorithm::Reno), ("CUBIC", CcAlgorithm::Cubic)];
    // Both controllers intentionally share the root seed (identical network
    // conditions); the two sessions run as a parallel batch.
    let rows = par_sessions(controllers.len(), run.jobs, |scratch, i| {
        let (name, algo) = controllers[i];
        let video = long_video(1, 1_000_000);
        let path = NetworkProfile::Research.build_path();
        let capture = SimDuration::from_secs(180);
        let mut server_cfg = TcpConfig::default()
            .with_recv_buffer(256 * 1024)
            .with_congestion(algo);
        server_cfg.max_cwnd = 1 << 20;
        let mut logic = CustomPaced {
            inner: ServerPacedLogic::new(ServerPacedConfig::default(), video),
            server_cfg,
            client_cfg: TcpConfig::default()
                .with_recv_buffer(4 << 20)
                .with_congestion(algo),
        };
        let mut fold = AnalysisFold::new(cfg.clone()).with_phases();
        let stem = || format!("ext-cc-{}-s{seed}", name.to_lowercase());
        run_engine(path, seed, capture, scratch, &mut logic, &mut fold, stem);
        let analysis = fold.finish();
        let blocks = analysis.onoff.steady_state_block_sizes();
        let median_block = if blocks.is_empty() {
            0.0
        } else {
            Cdf::new(blocks.iter().map(|&b| b as f64).collect()).median()
        };
        let phases = analysis.phases.expect("phases requested");
        let k = phases.accumulation_ratio(1e6).unwrap_or(f64::NAN);
        let strategy = classify_analysis(&analysis.onoff, &cfg);
        vec![
            name.to_string(),
            format!("{:.0}", median_block / 1e3),
            format!("{k:.2}"),
            strategy.table_label().to_string(),
        ]
    });
    TableData {
        id: "ext-cc",
        title: "Congestion-control ablation: Flash strategy structure".into(),
        headers: vec![
            "controller".into(),
            "median block (kB)".into(),
            "accumulation k".into(),
            "strategy".into(),
        ],
        rows,
    }
}

/// Extension 4: higher moments of the aggregate traffic.
///
/// §6.1 notes the strategy-independence argument extends to higher moments;
/// this verifies it empirically for the third central moment over a
/// 4 000 s Monte-Carlo horizon (`MC_HORIZON_SECS`).
pub fn ext_third_moment(run: &Run) -> TableData {
    let pop = PopulationModel {
        lambda: 1.0,
        encoding_bps: (0.5e6, 1.5e6),
        duration_secs: (120.0, 360.0),
        bandwidth_bps: (5e6, 15e6),
    };
    let strategies = [
        ("no ON-OFF", FluidStrategy::Bulk),
        ("short ON-OFF", FluidStrategy::short_cycles()),
        ("long ON-OFF", FluidStrategy::long_cycles()),
    ];
    // Each strategy's Monte-Carlo deliberately reuses the root seed (same
    // arrival process under every strategy); the rows run in parallel.
    let rows = par_indexed(strategies.len(), run.jobs, |i| {
        let (name, strategy) = strategies[i];
        let sim = FluidSim::new(pop.clone(), strategy);
        let (mean, var, m3) = sim.moments3(run.seed, MC_HORIZON_SECS, 0.5);
        let skew = m3 / var.powf(1.5);
        vec![
            name.to_string(),
            format!("{:.1}", mean / 1e6),
            format!("{:.3}", var / 1e12),
            format!("{skew:.3}"),
        ]
    });
    TableData {
        id: "ext-m3",
        title: "Higher moments of the aggregate rate, per strategy".into(),
        headers: vec![
            "strategy".into(),
            "E[R] (Mbps)".into(),
            "V_R (Tb2/s2)".into(),
            "skewness".into(),
        ],
        rows,
    }
}

/// Extension 5: packet-level validation of the §6 aggregate model.
///
/// The fluid Monte-Carlo (`model-agg`) validates Eqs. (3)/(4) under the
/// model's own assumptions. This experiment goes further: it superposes
/// `n_sessions` *packet-level* Flash sessions (each fully downloading a
/// random video, with Poisson-ish start offsets over a `window_secs`
/// horizon — independence is exactly the paper's overprovisioning
/// assumption) and compares the aggregate-rate moments against the closed
/// forms. The variance is reported at several bin widths: binning averages
/// the instantaneous rate, so the measured variance converges to the
/// fluid-model value as the bin shrinks toward the burst timescale.
pub fn ext_aggregate_packet_level(run: &Run, n_sessions: usize, window_secs: f64) -> TableData {
    use vstream_app::strategies::BulkLogic;

    // Session population: bulk downloads (the no-ON-OFF strategy, whose
    // instantaneous rate is the cleanest match to the model's X_n(t) = G).
    //
    // The population parameters come from one shared RNG, so they are
    // sampled serially first (preserving the original draw order exactly);
    // the expensive packet-level runs then execute as a parallel batch.
    let mut rng = SimRng::new(run.seed ^ 0xA66);
    let params: Vec<(u64, f64, f64, u64)> = (0..n_sessions)
        .map(|_| {
            let e = rng.uniform_range(0.5e6, 1.5e6) as u64;
            let l = rng.uniform_range(60.0, 240.0);
            let offset = rng.uniform_range(0.0, window_secs);
            let engine_seed = rng.uniform_u64(0, u64::MAX);
            (e, l, offset, engine_seed)
        })
        .collect();
    let mut sum_size_bits = 0.0;
    let mut sum_e = 0.0;
    let mut sum_l = 0.0;
    for &(e, l, _, _) in &params {
        let video = Video::new(0, e, SimDuration::from_secs_f64(l));
        sum_size_bits += video.size_bytes() as f64 * 8.0;
        sum_e += e as f64;
        sum_l += l;
    }
    let bin = SimDuration::from_millis(10);
    let offsets_and_series: Vec<(f64, Vec<(f64, f64)>)> =
        par_sessions(n_sessions, run.jobs, |scratch, i| {
            let (e, l, offset, engine_seed) = params[i];
            let video = Video::new(0, e, SimDuration::from_secs_f64(l));
            let path = NetworkProfile::Research.build_path();
            let capture = SimDuration::from_secs_f64(l + 60.0);
            let mut logic = BulkLogic::new(video);
            let mut fold = ThroughputFold::new(bin);
            let stem = || format!("ext-agg-pkt-n{i}-s{engine_seed}");
            run_engine(path, engine_seed, capture, scratch, &mut logic, &mut fold, stem);
            let series: Vec<(f64, f64)> = fold
                .finish()
                .into_iter()
                .map(|(t, bps)| (t.as_secs_f64(), bps))
                .collect();
            (offset, series)
        });

    // Superpose onto a fine grid covering the window plus spill-over.
    let dt = bin.as_secs_f64();
    let total_slots = ((window_secs + 400.0) / dt) as usize;
    let mut grid = vec![0.0f64; total_slots];
    for (offset, series) in &offsets_and_series {
        for &(t, bps) in series {
            let idx = ((offset + t) / dt) as usize;
            if idx < total_slots {
                grid[idx] += bps;
            }
        }
    }
    // Steady-state window: skip one max-session-duration of warmup, stop at
    // the window end.
    let skip = (300.0 / dt) as usize;
    let keep = ((window_secs - 300.0).max(10.0) / dt) as usize;
    let steady = &grid[skip..(skip + keep).min(total_slots)];

    let lambda = n_sessions as f64 / window_secs;
    let mean_cf = lambda * sum_size_bits / n_sessions as f64;
    let mean_e = sum_e / n_sessions as f64;
    let mean_l = sum_l / n_sessions as f64;
    // E[G]: bulk sessions on the Research profile run at about the loss- and
    // queue-limited rate; estimate it from the sessions themselves.
    let mean_g = {
        let g: f64 = offsets_and_series
            .iter()
            .map(|(_, s)| {
                let active: Vec<f64> = s.iter().map(|&(_, b)| b).filter(|&b| b > 0.0).collect();
                if active.is_empty() {
                    0.0
                } else {
                    active.iter().sum::<f64>() / active.len() as f64
                }
            })
            .sum();
        g / n_sessions as f64
    };
    let var_cf = lambda * mean_e * mean_l * mean_g;

    let mean = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
    let mut rows = vec![vec![
        "E[R] (Mbps)".to_string(),
        format!("{:.1}", mean_cf / 1e6),
        format!("{:.1}", mean / 1e6),
    ]];
    // Variance at several averaging scales.
    for (label, factor) in [("V_R @10ms bins", 1usize), ("V_R @100ms bins", 10), ("V_R @1s bins", 100)] {
        let coarse: Vec<f64> = steady
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let m = coarse.iter().sum::<f64>() / coarse.len() as f64;
        let v = coarse.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / coarse.len() as f64;
        rows.push(vec![
            format!("{label} (Tb2/s2)"),
            format!("{:.3}", var_cf / 1e12),
            format!("{:.3}", v / 1e12),
        ]);
    }
    TableData {
        id: "ext-agg-pkt",
        title: format!(
            "Packet-level aggregate of {n_sessions} bulk sessions vs Eq. (3)/(4) closed forms"
        ),
        headers: vec!["quantity".into(), "closed form".into(), "packet-level".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::test_run;
    use vstream_app::strategies::InterruptAfter;
    use vstream_obs::trace::{Event, EventKind, Recorder};
    use vstream_workload::{logic_for, Client, Container};

    #[test]
    fn stall_time_falls_with_accumulation() {
        let fig = ext_stall_vs_accumulation(&test_run(61), 4);
        let pts = &fig.series[0].points;
        assert_eq!(pts.len(), 6);
        // Headroom helps: k = 1.5 suffers materially less stall time than
        // k <= 1.0.
        let low_k = pts[0].1.max(pts[1].1);
        let high_k = pts[5].1;
        assert!(
            high_k < low_k * 0.7,
            "stall time did not fall with k: {pts:?}"
        );
    }

    #[test]
    fn sack_helps_under_bursty_loss() {
        let t = ext_sack_ablation(&test_run(63));
        for row in &t.rows {
            let slowdown: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(slowdown >= 0.85, "SACK materially slower than NewReno: {row:?}");
        }
        // Under bursty loss the cumulative-ACK-only penalty is visible.
        let bursty: f64 = t.rows[2][3].trim_end_matches('x').parse().unwrap();
        assert!(bursty > 1.1, "no SACK benefit under bursty loss: {bursty}");
    }

    #[test]
    fn traffic_structure_survives_controller_swap() {
        let t = ext_congestion_ablation(&test_run(65));
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let block: f64 = row[1].parse().unwrap();
            assert!(
                (55.0..=75.0).contains(&block),
                "{}: median block {block} kB",
                row[0]
            );
            let k: f64 = row[2].parse().unwrap();
            assert!((1.1..=1.4).contains(&k), "{}: k = {k}", row[0]);
            assert_eq!(row[3], "Short");
        }
    }

    #[test]
    fn packet_level_aggregate_mean_matches_closed_form() {
        let t = ext_aggregate_packet_level(&test_run(71), 30, 900.0);
        let cf: f64 = t.rows[0][1].parse().unwrap();
        let measured: f64 = t.rows[0][2].parse().unwrap();
        let err = (measured - cf).abs() / cf;
        assert!(err < 0.25, "mean {measured} vs closed form {cf}");
        // Variance grows as the averaging bin shrinks (10 ms > 1 s bins).
        let v_fine: f64 = t.rows[1][2].parse().unwrap();
        let v_coarse: f64 = t.rows[3][2].parse().unwrap();
        assert!(v_fine > v_coarse, "binning should smooth the variance");
    }

    #[test]
    fn third_moment_agrees_across_strategies() {
        let t = ext_third_moment(&test_run(67));
        let skews: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let base = skews[0];
        for s in &skews[1..] {
            assert!(
                (s - base).abs() < 0.3,
                "skewness differs across strategies: {skews:?}"
            );
        }
    }

    /// Runs `logic` for `capture` on the Residence path with a ring that
    /// keeps the whole session; returns the recorded events and the payload
    /// bytes the servers put on the wire (`session::servers_sent`).
    fn run_recorded(logic: &mut impl SessionLogic, capture: SimDuration) -> (Vec<Event>, u64) {
        let mut scratch = SessionScratch::new();
        scratch.attach_recorder(Recorder::new(1 << 17));
        let path = NetworkProfile::Residence.build_path();
        let mut eng = Engine::with_scratch(path, 77, capture, scratch);
        eng.run_observed(logic, &mut NullSink, false);
        let stats: Vec<_> = (0..eng.connection_count()).map(|c| eng.connection_stats(c)).collect();
        let rec = eng.into_parts().1.take_recorder().expect("the engine hands the ring back");
        assert_eq!(rec.dropped(), 0, "the ring kept the whole session");
        (rec.events(), crate::session::servers_sent(&stats))
    }

    /// `logic` reports a viewer holding the numbers its run produced: the
    /// blocks, switches, stalls and startup the session recorded as events,
    /// and bytes read that the servers sent. Returns the switch count.
    fn assert_reports_its_viewer(name: &str, logic: &mut impl SessionLogic) -> u64 {
        let (events, sent) = run_recorded(logic, SimDuration::from_secs(6));
        let v = logic.viewer().unwrap_or_else(|| panic!("{name}: no viewer"));
        let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(v.blocks(), count(EventKind::AppBlockRequest), "{name}: blocks");
        assert_eq!(v.switches(), count(EventKind::AppBitrateSwitch), "{name}: switches");
        let stats = v.player().stats();
        assert_eq!(u64::from(stats.stalls), count(EventKind::AppStallStart), "{name}: stalls");
        let startup = events.iter().find(|e| e.kind == EventKind::AppStartup).map(|e| e.a);
        assert_eq!(stats.startup_delay.map(|d| d.as_nanos()), startup, "{name}: startup");
        let read = v.read_total();
        assert!(read > 0 && read <= sent, "{name}: read {read} B, servers sent {sent} B");
        v.switches()
    }

    /// A logic that forgets to forward its viewer drops the session's
    /// ledger `app_*` slots, dump footer and QoE row without an error, so
    /// every logic the session bracket runs is held to reporting one: each
    /// Table 1 cell and DASH, bare and interrupted, and the transport
    /// ablations' `CustomPaced`. The `ext-sack` transfer has no player. Only
    /// the DASH cell's logic adapts its rate: the one that switches.
    #[test]
    fn every_logic_with_a_player_reports_its_viewer() {
        let video = long_video(1, 1_000_000);
        let cells: Vec<(Client, Container)> = Client::ALL
            .into_iter()
            .chain([Client::Dash])
            .flat_map(|client| Container::ALL.map(|container| (client, container)))
            .filter(|&(client, container)| logic_for(client, container, video).is_some())
            .collect();
        assert_eq!(cells.len(), 17, "the 16 Table 1 cells and DASH");
        for (client, container) in cells {
            let name = format!("{} / {}", client.label(), container.label());
            let logic = || logic_for(client, container, video).expect("an applicable cell");
            let switches = assert_reports_its_viewer(&name, &mut logic());
            assert_eq!(switches > 0, client == Client::Dash, "{name}: {switches} switches");
            let mut wrapped = InterruptAfter::new(logic(), SimDuration::from_secs(4));
            assert_reports_its_viewer(&format!("{name}, interrupted"), &mut wrapped);
            assert!(wrapped.interrupted, "{name}: the interruption fired");
        }
        let mut paced = CustomPaced {
            inner: ServerPacedLogic::new(ServerPacedConfig::default(), video),
            client_cfg: TcpConfig::default().with_recv_buffer(4 << 20),
            server_cfg: TcpConfig::default().with_recv_buffer(256 * 1024),
        };
        assert_reports_its_viewer("CustomPaced", &mut paced);
        let mut bulk = Bulk::new(true);
        run_recorded(&mut bulk, SimDuration::from_secs(2));
        assert!(bulk.read > 0);
        assert!(bulk.viewer().is_none(), "the ext-sack transfer has no player");
    }
}
