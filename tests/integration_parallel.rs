//! Determinism of the parallel session executor: every figure/table driver
//! must produce identical output at any worker count, and batch results
//! must depend only on each session's identity — never on submission order
//! or scheduling. The worker count and the QoE table are fields of a
//! [`Run`], not process state, so each test builds the runs it compares
//! and the tests run side by side.

use vstream::figures::{self as f, Run};
use vstream::qoe::QoeTable;
use vstream::report::FigureData;
use vstream::{query_many_jobs, SessionQuery, SessionReply, SessionSpec};
use vstream_app::Video;
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

fn csv_of(fig: &FigureData) -> String {
    fig.to_csv()
}

/// A run at `seed` on `jobs` workers that collects no QoE table.
fn run(seed: u64, jobs: usize) -> Run {
    Run { seed, jobs, qoe: None }
}

/// Serializes a representative slice of the figure suite at a given worker
/// count. Covers every seeding scheme the figure drivers use: identity
/// derivation (fig4/fig8), index offsets (fig9/fig2) and shared roots
/// (table2).
fn figure_suite(jobs: usize) -> Vec<String> {
    let mut out = Vec::new();
    let (fig4a, fig4b) = f::fig4_flash_steady_state(&mut run(97, jobs), 3);
    out.push(csv_of(&fig4a));
    out.push(csv_of(&fig4b));
    let (fig8, corr) = f::fig8_bulk_rates(&mut run(98, jobs), 6);
    out.push(csv_of(&fig8));
    out.push(format!("{corr:.12}"));
    out.push(csv_of(&f::fig9_ack_clock(&mut run(99, jobs))));
    let (fig2a, fig2b) = f::fig2_short_onoff(&mut run(100, jobs));
    out.push(csv_of(&fig2a));
    out.push(csv_of(&fig2b));
    let (table1, _) = f::table1_strategy_matrix(&mut run(101, jobs));
    out.push(table1.to_csv());
    out.push(f::table2_strategy_comparison(&mut run(102, jobs)).to_csv());
    out
}

/// The ablation harnesses — sessions with their own `SessionLogic`, fanned
/// out over the same per-worker scratch as the spec batches: at one worker
/// every session of a harness runs on one recycled scratch, at three they
/// share a few, at eight most get a fresh one. Covers the three harness
/// seeding schemes: identity derivation (ext-stalls), a seed shared by the
/// switched pair (ext-sack) and pre-sampled shared-RNG parameters
/// (ext-agg-pkt).
fn harness_suite(jobs: usize) -> Vec<String> {
    vec![
        csv_of(&f::ext_stall_vs_accumulation(&run(104, jobs), 2)),
        f::ext_sack_ablation(&run(105, jobs)).to_csv(),
        f::ext_aggregate_packet_level(&run(103, jobs), 6, 500.0).to_csv(),
    ]
}

#[test]
fn figure_output_is_identical_for_jobs_1_and_8() {
    let serial = figure_suite(1);
    let parallel = figure_suite(8);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "artifact #{i} differs between --jobs 1 and --jobs 8");
    }
}

#[test]
fn harness_output_is_identical_for_jobs_1_3_and_8() {
    let harness_serial = harness_suite(1);
    let harness_few = harness_suite(3);
    let harness_many = harness_suite(8);
    assert_eq!(harness_serial, harness_few, "a harness depends on scratch reuse (jobs 1 vs 3)");
    assert_eq!(harness_serial, harness_many, "a harness depends on scratch reuse (jobs 1 vs 8)");
}

/// The `qoe_sessions.csv` text of a `fig4` + `ext-qoe` slice run on `jobs`
/// workers, as `repro --csv` writes it.
fn qoe_slice(jobs: usize) -> String {
    let mut run = Run { seed: 2026, jobs, qoe: Some(QoeTable::default()) };
    run.qoe.as_mut().expect("collected").start_figure("fig4");
    f::fig4_flash_steady_state(&mut run, 2);
    run.qoe.as_mut().expect("collected").start_figure("ext-qoe");
    f::ext_qoe_load_sweep(&mut run, 1);
    run.qoe.expect("collected").csv()
}

/// The QoE table is a pure function of the run's specs: the same at one
/// worker and at eight, and the same when two runs fill their own tables on
/// two threads at once — rows, per-figure indices and header alike.
#[test]
fn qoe_table_is_scheduling_neutral() {
    let serial = qoe_slice(1);
    let lines: Vec<&str> = serial.lines().collect();
    assert!(lines[0].starts_with("figure,index,client,"), "{}", lines[0]);
    // fig4: 4 profiles x 2 sessions; ext-qoe: 5 load points x 1 session.
    assert_eq!(lines.len(), 1 + 8 + 5, "{serial}");
    assert!(lines[1].starts_with("fig4,0,") && lines[8].starts_with("fig4,7,"), "{serial}");
    assert!(lines[9].starts_with("ext-qoe,0,") && lines[13].starts_with("ext-qoe,4,"), "{serial}");
    assert_eq!(qoe_slice(8), serial, "the QoE table depends on --jobs");

    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| qoe_slice(8));
        let b = s.spawn(|| qoe_slice(3));
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    assert_eq!(a, serial, "a concurrent run's table differs from the serial one");
    assert_eq!(b, serial, "a concurrent run's table differs from the serial one");
}

#[test]
fn batch_results_do_not_depend_on_submission_order() {
    let video = |id: u64, rate: u64| Video::new(id, rate, SimDuration::from_secs(2400));
    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| {
            SessionSpec::new(
                Client::Firefox,
                Container::Flash,
                video(i, 800_000 + 100_000 * i),
                NetworkProfile::Research,
                0xD15C + i,
                SimDuration::from_secs(60),
            )
        })
        .collect();
    // A fixed permutation of the same specs.
    let perm = [4usize, 0, 5, 2, 1, 3];
    let permuted: Vec<SessionSpec> = perm.iter().map(|&i| specs[i]).collect();

    // Everything a reply carries that is cheap to compare: wire totals, the
    // cycle analysis, connection and player state.
    let query = SessionQuery::default().totals().onoff();
    let digest = |r: &SessionReply| {
        let totals = r.answer.totals.expect("totals queried");
        (
            totals.packets,
            totals.total_downloaded,
            r.answer.onoff.as_ref().expect("onoff queried").cycles.len(),
            r.connections,
            r.logic.player().stats().stalls,
        )
    };
    let reference: Vec<_> = query_many_jobs(&specs, 1, &query)
        .iter()
        .map(|r| digest(r.as_ref().expect("valid cell")))
        .collect();
    for jobs in [1, 3, 8] {
        let straight = query_many_jobs(&specs, jobs, &query);
        let shuffled = query_many_jobs(&permuted, jobs, &query);
        for (k, &i) in perm.iter().enumerate() {
            let a = straight[i].as_ref().expect("valid cell");
            let b = shuffled[k].as_ref().expect("valid cell");
            assert_eq!(digest(a), reference[i], "session {i} differs at jobs = {jobs}");
            assert_eq!(
                digest(a),
                digest(b),
                "session {i} differs when submitted at position {k} (jobs = {jobs})"
            );
        }
    }
}

#[test]
fn query_batch_agrees_with_serial_run() {
    let specs: Vec<SessionSpec> = (0..4)
        .map(|i| {
            SessionSpec::new(
                Client::Chrome,
                Container::Html5,
                Video::new(i, 1_200_000, SimDuration::from_secs(2400)),
                NetworkProfile::Home,
                0xABCD + i,
                SimDuration::from_secs(60),
            )
        })
        .collect();
    let parallel = query_many_jobs(&specs, 4, &SessionQuery::default().totals());
    for (i, spec) in specs.iter().enumerate() {
        let batch = parallel[i].as_ref().map(|r| r.answer.totals.expect("totals queried"));
        let serial = spec.run().map(|out| out.trace.total_downloaded());
        assert_eq!(batch.map(|t| t.total_downloaded), serial, "session {i}");
    }
}
