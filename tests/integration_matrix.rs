//! The Table 1 matrix, verified cell by cell through the public API.

use vstream::figures::{table1_strategy_matrix, Run};

/// A run at `seed` on every core, collecting no QoE table.
fn run(seed: u64) -> Run {
    Run { seed, jobs: vstream_sim::default_jobs(), qoe: None }
}

#[test]
fn table1_matches_the_paper_exactly() {
    let (table, cells) = table1_strategy_matrix(&mut run(2026));
    let mismatches: Vec<String> = cells
        .iter()
        .filter(|c| !c.matches())
        .map(|c| {
            format!(
                "{} / {}: expected {:?}, measured {:?}",
                c.client.label(),
                c.container.label(),
                c.expected,
                c.measured
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "Table 1 deviations:\n{}\n\n{}",
        mismatches.join("\n"),
        table.to_text()
    );
}

#[test]
fn table1_is_stable_across_seeds() {
    // The strategy classification is a structural property, not a lucky
    // seed: a different seed yields the same matrix.
    let (_, a) = table1_strategy_matrix(&mut run(1));
    let (_, b) = table1_strategy_matrix(&mut run(99));
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(
            ca.measured,
            cb.measured,
            "{} / {} classification unstable across seeds",
            ca.client.label(),
            ca.container.label()
        );
    }
}
