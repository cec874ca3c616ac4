//! The per-session QoE table (`results/qoe_sessions.csv`).
//!
//! The paper's figures are aggregates; the quality-of-experience quantities
//! the measurement literature computes from session timelines (startup
//! delay, stall count and ratio, stall durations, block-request cadence)
//! are first-class here: one CSV row per spec-driven session, keyed by
//! figure and spec identity.
//!
//! Determinism is the design constraint. A row is a pure function of the
//! session's [`SessionSpec`] and its post-run [`StrategyLogic`], which
//! every [`SessionReply`](crate::query::SessionReply) carries whether it
//! was just computed or cloned from the cache, so the table is
//! byte-identical across `--jobs` and cache on/off. Rows are
//! computed inside the batch fan-out but pushed to the collector in
//! ascending spec order after the scatter, so worker completion order
//! never shows. All numeric formatting is integer-only (microsecond-based
//! fixed decimals, parts-per-million ratios): no float rounding is ever
//! involved.
//!
//! The player's counters are the one source of these numbers: the ledger's
//! `app_*` slots and the flight recorder's dump footer read the same
//! [`vstream_app::PlayerStats`]. Nothing reads the event stream: cache hits
//! replay no events, a dump's ring keeps only the session's tail, and the
//! table must not depend on tracing being enabled. The flight-recorder test
//! suite holds a reduction of full event streams equal to [`QoeSummary`].

use std::sync::Mutex;

use vstream_workload::StrategyLogic;

use crate::session::SessionSpec;

/// The QoE quantities reduced from one session, before identity/formatting.
///
/// Everything is derived from unconditional [`vstream_app::PlayerStats`]
/// fields and the strategy's block counter, never from the metrics
/// registry's stall histogram.
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
    /// Reduces a finished session's logic to its QoE quantities.
    pub fn of(logic: &StrategyLogic) -> QoeSummary {
        let stats = logic.player().stats();
        QoeSummary {
            startup_us: stats.startup_delay.map(|d| d.as_nanos() / 1_000),
            stalls: stats.stalls,
            stalls_completed: stats.stalls_completed,
            stall_total_us: stats.stall_time.as_nanos() / 1_000,
            stall_max_us: stats.stall_max.as_nanos() / 1_000,
            blocks: logic.blocks(),
            switches: logic.switches(),
        }
    }

    /// Mean completed stall duration in microseconds (0 when none).
    pub fn stall_mean_us(&self) -> u64 {
        if self.stalls_completed == 0 {
            0
        } else {
            self.stall_total_us / self.stalls_completed as u64
        }
    }
}

/// One row of the QoE table: the summary plus the session's identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QoeRow {
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
    pub capture_us: u64,
    /// The reduced QoE quantities.
    pub summary: QoeSummary,
}

impl QoeRow {
    /// Builds the row for one resolved session.
    pub fn of(spec: &SessionSpec, logic: &StrategyLogic) -> QoeRow {
        QoeRow {
            client: spec.client.label(),
            container: spec.container.label(),
            profile: spec.profile.label(),
            video: spec.video.id,
            seed: spec.seed,
            capture_us: spec.capture.as_nanos() / 1_000,
            summary: QoeSummary::of(logic),
        }
    }

    /// The CSV cells after `figure,index`, in header order.
    fn csv_cells(&self) -> String {
        let s = &self.summary;
        let startup = s.startup_us.map(fmt_ms).unwrap_or_default();
        // Stall ratio as a 6-decimal fraction of the capture, via ppm.
        let ppm = if self.capture_us == 0 {
            0
        } else {
            s.stall_total_us * 1_000_000 / self.capture_us
        };
        // Blocks (and switches) per minute of capture, milli-units for 3
        // decimals.
        let rate_milli = if self.capture_us == 0 {
            0
        } else {
            s.blocks * 60_000_000_000 / self.capture_us
        };
        let switch_rate_milli = if self.capture_us == 0 {
            0
        } else {
            s.switches * 60_000_000_000 / self.capture_us
        };
        let ratio = format!("{}.{:06}", ppm / 1_000_000, ppm % 1_000_000);
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}.{:03},{},{}.{:03}",
            self.client,
            self.container,
            self.profile,
            self.video,
            self.seed,
            startup,
            s.stalls,
            s.stalls_completed,
            fmt_ms(s.stall_total_us),
            fmt_ms(s.stall_mean_us()),
            fmt_ms(s.stall_max_us),
            ratio,
            s.blocks,
            rate_milli / 1_000,
            rate_milli % 1_000,
            s.switches,
            switch_rate_milli / 1_000,
            switch_rate_milli % 1_000,
        )
    }
}

/// Milliseconds with 3 decimals from microseconds, integer math only.
fn fmt_ms(us: u64) -> String {
    format!("{}.{:03}", us / 1_000, us % 1_000)
}

/// The table header.
pub const CSV_HEADER: &str = "figure,index,client,container,profile,video,seed,startup_ms,\
stalls,stalls_completed,stall_total_ms,stall_mean_ms,stall_max_ms,stall_ratio,blocks,\
block_rate_per_min,switches,switch_rate_per_min";

struct State {
    /// Figure id rows are currently attributed to.
    figure: String,
    /// Per-figure running row index (sessions within a figure are pushed
    /// in deterministic batch order).
    next_index: u64,
    /// Fully formatted CSV lines, in emission order.
    lines: Vec<String>,
}

/// The installed collector; `None` when no table is being collected.
static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Installs the QoE collector (idempotent; clears any previous rows).
pub fn install() {
    let mut g = STATE.lock().expect("qoe state poisoned");
    *g = Some(State { figure: String::new(), next_index: 0, lines: Vec::new() });
}

/// Whether a collector is installed. The batch layer reads it once per
/// batch, so a lock is no cost.
pub fn is_active() -> bool {
    STATE.lock().expect("qoe state poisoned").is_some()
}

/// Attributes subsequent rows to `figure` and resets its row index.
pub fn begin_figure(figure: &str) {
    let mut g = STATE.lock().expect("qoe state poisoned");
    if let Some(state) = g.as_mut() {
        state.figure = figure.to_string();
        state.next_index = 0;
    }
}

/// Appends one batch's rows, already in ascending spec order (`None` marks
/// inapplicable cells, which occupy no row). Called once per batch from the
/// session layer, after the parallel scatter — so the table's order is the
/// deterministic batch order, independent of worker interleaving.
pub fn push_batch(rows: Vec<Option<QoeRow>>) {
    let mut g = STATE.lock().expect("qoe state poisoned");
    if let Some(state) = g.as_mut() {
        for row in rows.into_iter().flatten() {
            let line = format!("{},{},{}", state.figure, state.next_index, row.csv_cells());
            state.next_index += 1;
            state.lines.push(line);
        }
    }
}

/// Takes the accumulated table as CSV text and uninstalls the collector.
/// `None` if no collector was installed.
pub fn take_csv() -> Option<String> {
    let mut g = STATE.lock().expect("qoe state poisoned");
    let state = g.take()?;
    let mut out = String::with_capacity(64 + state.lines.len() * 96);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for line in &state.lines {
        out.push_str(line);
        out.push('\n');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_is_integer_exact() {
        assert_eq!(fmt_ms(0), "0.000");
        assert_eq!(fmt_ms(1_234), "1.234");
        assert_eq!(fmt_ms(1_000_000), "1000.000");
        assert_eq!(fmt_ms(999), "0.999");
    }

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
