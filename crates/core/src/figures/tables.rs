//! Table 1 (the strategy matrix) and Table 2 (the strategy comparison).

use vstream_analysis::{classify_analysis, AnalysisConfig, Strategy};
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{table1_expected, valid_profiles, Client, Container};

use crate::figures::{long_video, Run, CAPTURE};
use crate::query::SessionQuery;
use crate::report::TableData;
use crate::session::SessionSpec;

/// One verified cell of Table 1.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Row (application).
    pub client: Client,
    /// Column (container).
    pub container: Container,
    /// What the paper's Table 1 reports.
    pub expected: Strategy,
    /// What the simulated capture classifies as.
    pub measured: Strategy,
}

impl MatrixCell {
    /// True when the reproduction matches the paper.
    pub fn matches(&self) -> bool {
        self.expected == self.measured
    }
}

/// Reproduces Table 1: runs every applicable application × container cell,
/// classifies the capture, and compares with the paper. Returns the table
/// plus the raw cells for programmatic checks.
pub fn table1_strategy_matrix(run: &mut Run) -> (TableData, Vec<MatrixCell>) {
    let cfg = AnalysisConfig::default();
    // First pass: enumerate the applicable cells. The seed formula indexes
    // cells by their enumeration position, so it is already
    // order-independent; all cells then run as one parallel batch.
    let mut specs = Vec::new();
    let mut expectations = Vec::new();
    for client in Client::ALL {
        for container in Container::ALL {
            let Some(expected) = table1_expected(client, container) else {
                continue;
            };
            // A representative video: mid-range encoding rate for the
            // container, long enough to outlast the capture. HD uses a high
            // rate.
            let rate = match container {
                Container::FlashHd => 3_500_000,
                Container::Silverlight => 1_600_000,
                // The iPad's strategy depends on the encoding rate
                // (§5.1.3); its Table 1 entry reflects the high-rate
                // behaviour where the mixture is visible.
                Container::Html5 if client == Client::Ipad => 2_500_000,
                _ => 1_000_000,
            };
            let profile = valid_profiles(container.service())[0];
            specs.push(SessionSpec::new(
                client,
                container,
                long_video(1, rate),
                profile,
                run.seed ^ (specs.len() as u64) << 8,
                CAPTURE,
            ));
            expectations.push(expected);
        }
    }
    let query = SessionQuery::default().onoff();
    let measured: Vec<Option<Strategy>> = run.query(&specs, &query)
        .into_iter()
        .map(|reply| {
            reply.map(|r| classify_analysis(r.answer.onoff.as_ref().expect("onoff queried"), &cfg))
        })
        .collect();

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for client in Client::ALL {
        let mut row = vec![client.label().to_string()];
        for container in Container::ALL {
            if table1_expected(client, container).is_none() {
                row.push("-".into());
                continue;
            }
            let idx = cells.len();
            let expected = expectations[idx];
            let measured = measured[idx].expect("applicable cell");
            let marker = if measured == expected { "" } else { " (!)" };
            row.push(format!("{}{marker}", measured.table_label()));
            cells.push(MatrixCell {
                client,
                container,
                expected,
                measured,
            });
        }
        rows.push(row);
    }
    let table = TableData {
        id: "table1",
        title: "Table 1: Streaming strategies (measured; (!) marks deviation from the paper)"
            .into(),
        headers: vec![
            "Application".into(),
            "YouTube Flash".into(),
            "YouTube Flash HD".into(),
            "YouTube HTML5".into(),
            "Netflix Silverlight".into(),
        ],
        rows,
    };
    (table, cells)
}

/// Seconds the Table 2 viewer watches before quitting.
const TABLE2_WATCH_SECS: u64 = 60;

/// Quantified Table 2: for each strategy, measures what the paper describes
/// qualitatively — receive-side buffer occupancy and unused bytes when the
/// viewer quits after 60 s (`TABLE2_WATCH_SECS`).
pub fn table2_strategy_comparison(run: &mut Run) -> TableData {
    let video = long_video(1, 1_200_000);
    let watch = SimDuration::from_secs(TABLE2_WATCH_SECS);
    let cases: [(&str, Client, Container, &str); 3] = [
        ("No ON-OFF", Client::Firefox, Container::Html5, "none"),
        ("Long ON-OFF", Client::Chrome, Container::Html5, "application layer"),
        ("Short ON-OFF", Client::Firefox, Container::Flash, "application layer"),
    ];
    // All three cells share the root seed (their identity is the cell
    // itself); they run as one parallel batch.
    let specs: Vec<SessionSpec> = cases
        .iter()
        .map(|&(_, client, container, _)| {
            SessionSpec::new(client, container, video, NetworkProfile::Research, run.seed, CAPTURE)
                .interrupted(watch)
        })
        .collect();
    let query = SessionQuery::default().totals();
    let outs = run.query(&specs, &query);
    let mut rows = Vec::new();
    for ((name, _, _, engineering), out) in cases.into_iter().zip(outs) {
        let out = out.expect("applicable cell");
        let peak_mb = out.logic.player().stats().peak_buffer_bytes as f64 / 1e6;
        let downloaded = out.answer.totals.expect("totals queried").total_downloaded as f64;
        let watched = video.playback_bytes(TABLE2_WATCH_SECS as f64) as f64;
        let unused_mb = (downloaded - watched).max(0.0) / 1e6;
        rows.push(vec![
            name.to_string(),
            engineering.to_string(),
            format!("{peak_mb:.1}"),
            format!("{unused_mb:.1}"),
        ]);
    }
    TableData {
        id: "table2",
        title: format!(
            "Table 2 (quantified): strategy comparison, viewer quits after {TABLE2_WATCH_SECS} s"
        ),
        headers: vec![
            "Strategy".into(),
            "Engineering".into(),
            "Peak buffer (MB)".into(),
            "Unused bytes at interrupt (MB)".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::test_run;

    #[test]
    fn table1_reproduces_the_paper() {
        let (table, cells) = table1_strategy_matrix(&mut test_run(41));
        assert_eq!(cells.len(), 16);
        let mismatches: Vec<String> = cells
            .iter()
            .filter(|c| !c.matches())
            .map(|c| {
                format!(
                    "{}/{}: expected {:?}, measured {:?}",
                    c.client.label(),
                    c.container.label(),
                    c.expected,
                    c.measured
                )
            })
            .collect();
        assert!(
            mismatches.is_empty(),
            "Table 1 deviations:\n{}\n{}",
            mismatches.join("\n"),
            table.to_text()
        );
    }

    #[test]
    fn table2_orders_buffer_occupancy_and_waste() {
        let t = table2_strategy_comparison(&mut test_run(43));
        assert_eq!(t.rows.len(), 3);
        let col = |row: usize, col: usize| -> f64 { t.rows[row][col].parse().unwrap() };
        // Buffer occupancy: No > Long > Short (Table 2's Large/Moderate/
        // Small).
        let (no_buf, long_buf, short_buf) = (col(0, 2), col(1, 2), col(2, 2));
        assert!(no_buf > long_buf, "bulk {no_buf} <= long {long_buf}");
        assert!(long_buf > short_buf, "long {long_buf} <= short {short_buf}");
        // Unused bytes on interruption: same ordering.
        let (no_waste, long_waste, short_waste) = (col(0, 3), col(1, 3), col(2, 3));
        assert!(no_waste > long_waste);
        assert!(long_waste >= short_waste);
    }
}
