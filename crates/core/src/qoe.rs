//! The per-session QoE table (`results/qoe_sessions.csv`).
//!
//! The paper's figures are aggregates; the quality-of-experience quantities
//! the measurement literature computes from session timelines (startup
//! delay, stall count and ratio, stall durations, block-request cadence)
//! are first-class here: one CSV row per spec-driven session, keyed by
//! figure and spec identity.
//!
//! Determinism is the design constraint. A row is a pure function of the
//! session's [`SessionSpec`] and its post-run [`Viewer`], which every
//! [`SessionReply`](crate::SessionReply) carries whether it was just
//! computed or cloned from the cache, so the table is byte-identical across
//! `--jobs` and cache on/off. Rows are computed inside the batch fan-out but
//! appended to the run's [`QoeTable`] in ascending spec order after the
//! scatter, so worker completion order never shows, and no two runs share a
//! table. All numeric formatting is integer-only (microsecond-based fixed
//! decimals, parts-per-million ratios): no float rounding is ever involved.
//!
//! The player's counters are the one source of these numbers: the ledger's
//! `app_*` slots and the flight recorder's dump footer read the same
//! [`vstream_app::PlayerStats`]. Nothing reads the event stream: cache hits
//! replay no events, a dump's ring keeps only the session's tail, and the
//! table must not depend on tracing being enabled. The flight-recorder test
//! suite holds a reduction of full event streams equal to [`QoeSummary`].

use std::fmt::Write as _;

use vstream_app::Viewer;

use crate::report::{fixed3, fixed6};
use crate::session::SessionSpec;

/// The QoE quantities reduced from one session, before identity/formatting.
///
/// Everything is derived from unconditional [`vstream_app::PlayerStats`]
/// fields and the viewer's block and switch counters, never from the
/// metrics registry's stall histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QoeSummary {
    /// Startup delay in microseconds, `None` when playback never started.
    pub startup_us: Option<u64>,
    /// Stalls detected (buffer ran dry).
    pub stalls: u32,
    /// Stalls that completed (playback resumed).
    pub stalls_completed: u32,
    /// Total completed stall time, microseconds.
    pub stall_total_us: u64,
    /// Longest completed stall, microseconds.
    pub stall_max_us: u64,
    /// Block requests the strategy issued (0 for bulk transfers).
    pub blocks: u64,
    /// Bitrate switches the strategy performed (0 for every fixed-rate
    /// 2011 strategy; only the DASH extension client adapts).
    pub switches: u64,
}

impl QoeSummary {
    /// Reduces a finished session's viewer to its QoE quantities.
    pub fn of(viewer: &Viewer) -> QoeSummary {
        let stats = viewer.player().stats();
        QoeSummary {
            startup_us: stats.startup_delay.map(|d| d.as_nanos() / 1_000),
            stalls: stats.stalls,
            stalls_completed: stats.stalls_completed,
            stall_total_us: stats.stall_time.as_nanos() / 1_000,
            stall_max_us: stats.stall_max.as_nanos() / 1_000,
            blocks: viewer.blocks(),
            switches: viewer.switches(),
        }
    }

    /// Mean completed stall duration in microseconds (0 when none).
    pub(crate) fn stall_mean_us(&self) -> u64 {
        self.stall_total_us.checked_div(self.stalls_completed as u64).unwrap_or(0)
    }
}

/// One row of the QoE table: the summary plus the session's identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct QoeRow {
    /// Client label (paper's Table 1 naming).
    pub client: &'static str,
    /// Container label.
    pub container: &'static str,
    /// Vantage-point label.
    pub profile: &'static str,
    /// Catalogue video id.
    pub video: u64,
    /// Session seed.
    pub seed: u64,
    /// Capture duration in microseconds — the stall-ratio denominator.
    pub(crate) capture_us: u64,
    /// The reduced QoE quantities.
    pub summary: QoeSummary,
}

impl QoeRow {
    /// Builds the row for one resolved session.
    pub(crate) fn of(spec: &SessionSpec, viewer: &Viewer) -> QoeRow {
        QoeRow {
            client: spec.client.label(),
            container: spec.container.label(),
            profile: spec.profile.label(),
            video: spec.video.id,
            seed: spec.seed,
            capture_us: spec.capture.as_nanos() / 1_000,
            summary: QoeSummary::of(viewer),
        }
    }

    /// The CSV cells after `figure,index`, in header order.
    fn csv_cells(&self) -> String {
        let s = &self.summary;
        // `x × scale` over the capture's microseconds (0 for an empty
        // capture): the stall ratio in ppm, and blocks (and switches) per
        // minute in milli-units.
        let per_capture = |x: u64, scale: u64| (x * scale).checked_div(self.capture_us).unwrap_or(0);
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.client,
            self.container,
            self.profile,
            self.video,
            self.seed,
            s.startup_us.map(fixed3).unwrap_or_default(),
            s.stalls,
            s.stalls_completed,
            fixed3(s.stall_total_us),
            fixed3(s.stall_mean_us()),
            fixed3(s.stall_max_us),
            fixed6(per_capture(s.stall_total_us, 1_000_000)),
            s.blocks,
            fixed3(per_capture(s.blocks, 60_000_000_000)),
            s.switches,
            fixed3(per_capture(s.switches, 60_000_000_000)),
        )
    }
}

/// The table header.
const CSV_HEADER: &str = "figure,index,client,container,profile,video,seed,startup_ms,\
stalls,stalls_completed,stall_total_ms,stall_mean_ms,stall_max_ms,stall_ratio,blocks,\
block_rate_per_min,switches,switch_rate_per_min";

/// The QoE table of one figure run: one CSV line per spec-driven session,
/// keyed by figure and per-figure index. A [`Run`](crate::figures::Run)
/// owns it and appends each batch's rows in spec order after the batch.
#[derive(Debug, Default)]
pub struct QoeTable {
    /// Figure id, and index of its next row.
    figure: String,
    next_index: u64,
    /// The CSV rows, one line each, in emission order.
    rows: String,
}

impl QoeTable {
    /// Attributes the rows that follow to `figure`, indexed from 0.
    pub fn start_figure(&mut self, figure: &str) {
        self.figure = figure.to_string();
        self.next_index = 0;
    }

    /// Appends the next row of the current figure.
    pub(crate) fn push(&mut self, row: QoeRow) {
        let _ = writeln!(self.rows, "{},{},{}", self.figure, self.next_index, row.csv_cells());
        self.next_index += 1;
    }

    /// The table as CSV text: the header, then every row in order.
    pub fn csv(&self) -> String {
        format!("{CSV_HEADER}\n{}", self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_cells_cover_edge_cases() {
        let row = QoeRow {
            client: "c",
            container: "k",
            profile: "p",
            video: 7,
            seed: 9,
            capture_us: 180_000_000,
            summary: QoeSummary {
                startup_us: None,
                stalls: 2,
                stalls_completed: 1,
                stall_total_us: 4_500_000,
                stall_max_us: 4_500_000,
                blocks: 90,
                switches: 4,
            },
        };
        // Never-started session: empty startup cell; ratio 4.5s/180s =
        // 0.025; 90 blocks over 3 minutes = 30/min; 4 switches over 3
        // minutes = 1.333/min.
        assert_eq!(
            row.csv_cells(),
            "c,k,p,7,9,,2,1,4500.000,4500.000,4500.000,0.025000,90,30.000,4,1.333"
        );
    }
}
