//! Regeneration of every figure and table in the paper's evaluation.
//!
//! Each function runs the necessary simulated sessions and returns the data
//! behind one paper figure (as [`crate::report::FigureData`]) or table
//! ([`crate::report::TableData`]). The `repro` binary in `vstream-bench`
//! prints them all; `EXPERIMENTS.md` records how each compares with the
//! published result.
//!
//! Functions take the [`Run`] — its root `seed` (all randomness is derived
//! from it), its worker count and, when collected, its QoE table — and,
//! where the paper aggregated over many videos, a sample size `n`: the
//! paper used thousands of sessions; the defaults here are sized so the full
//! suite regenerates in minutes on a laptop, and the CDFs are already stable
//! at these sizes.

mod blocks;
mod buffering;
mod extensions;
mod ext_qoe;
mod model;
mod rates;
mod tables;
mod traces;

pub use blocks::{fig12_netflix_blocks, fig4_flash_steady_state, fig5_html5_steady_state, fig6b_long_blocks, fig7b_ipad_block_vs_rate};
pub use buffering::{fig11_netflix_buffering, fig3a_flash_buffering, fig3b_html5_buffering};
pub use extensions::{ext_aggregate_packet_level, ext_congestion_ablation, ext_sack_ablation, ext_stall_vs_accumulation, ext_third_moment};
pub use ext_qoe::ext_qoe_load_sweep;
pub use model::{model_aggregate_moments, model_interruption_waste, model_smoothing};
pub use rates::{fig8_bulk_rates, fig9_ack_clock, fig9_idle_reset_ablation};
pub use tables::{table1_strategy_matrix, table2_strategy_comparison};
pub use traces::{fig10_netflix_traces, fig1_phases, fig2_short_onoff, fig6a_long_onoff, fig7a_ipad_traces};

use vstream_app::engine::{Engine, SessionLogic};
use vstream_app::strategies::ServerPacedLogic;
use vstream_app::Viewer;
use vstream_net::NetworkProfile;
use vstream_sim::{derive_seed, SimDuration};
use vstream_tcp::TcpConfig;
use vstream_workload::{Client, Container, Dataset};

use crate::qoe::{QoeRow, QoeTable};
use crate::query::{SessionQuery, SessionReply};
use crate::session::{batch_resolve, SessionSpec};

/// One figure run: what every driver reads besides its own arguments.
/// Sessions are pure functions of specs derived from `seed` alone, so the
/// figures and the QoE table are byte-identical at any `jobs`, and two runs
/// in one process share nothing.
#[derive(Debug)]
pub struct Run {
    /// Root seed every driver derives its sessions from.
    pub seed: u64,
    /// Worker threads per batch (`0` and `1` both stay on the calling thread).
    pub jobs: usize,
    /// The per-session QoE table (`qoe_sessions.csv`), when collected.
    pub qoe: Option<QoeTable>,
}

impl Run {
    /// Resolves every spec into the queried features, ordered by spec index
    /// (`None` marks inapplicable Table 1 cells), appending the batch's QoE
    /// rows to the run's table.
    pub fn query(&mut self, specs: &[SessionSpec], query: &SessionQuery) -> Vec<Option<SessionReply>> {
        self.resolve(specs, query, |_, reply| reply)
    }

    /// [`Run::query`] reducing each reply to `f(index, reply)` in the worker.
    /// The QoE row is read off the reply there, before `f` consumes it, and
    /// appended in spec order after the workers join.
    pub(crate) fn resolve<T: Send>(
        &mut self,
        specs: &[SessionSpec],
        query: &SessionQuery,
        f: impl Fn(usize, SessionReply) -> T + Sync,
    ) -> Vec<Option<T>> {
        let rows = self.qoe.is_some();
        let resolved = batch_resolve(specs, self.jobs, query, |i, reply| {
            (rows.then(|| QoeRow::of(&specs[i], &reply.logic)), f(i, reply))
        });
        let table = &mut self.qoe;
        resolved
            .into_iter()
            .map(|r| {
                let (row, t) = r?;
                if let (Some(table), Some(row)) = (table.as_mut(), row) {
                    table.push(row);
                }
                Some(t)
            })
            .collect()
    }
}

/// The paper's capture duration per video (§4.2).
pub const CAPTURE: SimDuration = SimDuration::from_secs(180);

/// Stationary horizon of the §6 fluid Monte Carlos (`model-agg`, `ext-m3`).
pub(crate) const MC_HORIZON_SECS: f64 = 4000.0;

/// Stream tag for the shared per-cell session stream ([`cell_specs`]).
///
/// Every figure that aggregates over `n` sessions of one Table 1 cell
/// derives its engine seeds from this one tag. That is deliberate: two
/// figures sampling the same `(client, container, dataset, profile)` cell
/// with the same root seed build *identical* [`SessionSpec`]s, so the
/// [session cache](crate::cache) computes the cell once and every later
/// figure hits. (Before the cache, each figure family used a private tag —
/// 0xBFF, 0x51E, 0x1AB — which made equal cells deliberately disjoint.)
pub(crate) const STREAM_CELL: u64 = 0xCE11;

/// Sessions per Netflix cell Fig. 12 samples: `repro` clamps its `--n` to
/// this, and Fig. 12 re-reads exactly this prefix of Fig. 11's sample.
pub const NETFLIX_BLOCK_SESSIONS: usize = 4;

/// How many leading sessions of a cell's sample a later driver re-reads
/// with the same [`cell_query`], in `repro all`'s order:
///
/// * Firefox × Flash, all four profiles: Fig. 3(a) → Fig. 4;
/// * IE × HTML5 on Research: Fig. 3(b) → Fig. 5;
/// * the Silverlight cells: Fig. 11 → Fig. 12, which samples the first
///   [`NETFLIX_BLOCK_SESSIONS`] of them.
///
/// Every other cell (and session) is read once: [`cell_specs`] does not mark
/// it [`shared`](SessionSpec::shared), so the cache retains nothing for it.
fn re_read(client: Client, container: Container, profile: NetworkProfile) -> usize {
    match (client, container, profile) {
        (Client::Firefox, Container::Flash, _) => usize::MAX,
        (Client::InternetExplorer, Container::Html5, NetworkProfile::Research) => usize::MAX,
        (_, Container::Silverlight, _) => NETFLIX_BLOCK_SESSIONS,
        _ => 0,
    }
}

/// The standard `n`-session sample of one Table 1 cell: video `i` is drawn
/// from `dataset` by index and the engine seed is identity-derived from
/// `(STREAM_CELL, client, container, profile, i)`, so sessions are
/// order-independent, batch-parallel, and — crucially — equal across every
/// figure that samples the same cell. The sessions a later figure re-reads
/// ([`re_read`]) are marked [`shared`](SessionSpec::shared), opting them
/// into cache retention.
pub(crate) fn cell_specs(
    client: Client,
    container: Container,
    dataset: Dataset,
    profile: NetworkProfile,
    seed: u64,
    n: usize,
) -> Vec<SessionSpec> {
    let shared = re_read(client, container, profile);
    (0..n)
        .map(|i| {
            let engine_seed = derive_seed(
                seed,
                &[STREAM_CELL, client as u64, container as u64, profile as u64, i as u64],
            );
            let spec = SessionSpec::new(
                client,
                container,
                dataset.sample_indexed(seed, i as u64),
                profile,
                engine_seed,
                CAPTURE,
            );
            if i < shared {
                spec.shared()
            } else {
                spec
            }
        })
        .collect()
}

/// The one question every driver asks of a [`cell_specs`] sample: cycles
/// and phases. The [session cache](crate::cache) keys on the query as well
/// as the spec, so a driver asking for a subset would miss on cells another
/// figure already resolved; asking for both costs nothing extra, since the
/// analysis fold runs one cycle detector and closes into both answers
/// whichever is requested.
pub(crate) fn cell_query() -> SessionQuery {
    SessionQuery::default().onoff().phases()
}

/// A long test video: outlasts the capture at any encoding rate used, so
/// steady-state behaviour is fully visible.
pub(crate) fn long_video(id: u64, encoding_bps: u64) -> vstream_app::Video {
    vstream_app::Video::new(id, encoding_bps, SimDuration::from_secs(3000))
}

/// A server-paced session with fully custom TCP configurations on both
/// ends (the library strategies fix theirs): the harness of the ablations
/// that flip one transport switch under an unchanged application.
pub(crate) struct CustomPaced {
    pub(crate) inner: ServerPacedLogic,
    pub(crate) client_cfg: TcpConfig,
    pub(crate) server_cfg: TcpConfig,
}

impl SessionLogic for CustomPaced {
    fn on_start(&mut self, eng: &mut Engine) {
        let conn = eng.open_connection(self.client_cfg.clone(), self.server_cfg.clone());
        debug_assert_eq!(conn, 0);
    }
    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        self.inner.on_established(eng, conn);
    }
    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        self.inner.on_data_available(eng, conn);
    }
    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        self.inner.on_eof(eng, conn);
    }
    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        self.inner.on_app_timer(eng, id);
    }
    fn viewer(&self) -> Option<&Viewer> {
        self.inner.viewer()
    }
}

#[cfg(test)]
mod tests {
    use super::Run;

    /// A run of the unit tests: `seed`, every core, no QoE table.
    pub(crate) fn test_run(seed: u64) -> Run {
        Run { seed, jobs: vstream_sim::default_jobs(), qoe: None }
    }
}
