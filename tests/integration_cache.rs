//! The session cache's hard invariants, end to end:
//!
//! 1. **Single execution** — two drivers asking the same query of the same
//!    shared [`SessionSpec`] one after the other trigger exactly one engine
//!    run; the second gets the retained reply back, bit-identical. A *different* query on the
//!    same spec is a miss with its own answer, never a wrong one.
//! 2. **Transparency** — figure output is byte-identical with the cache
//!    installed or not, serial or parallel. The cache may skip work; it
//!    must never change results.
//! 3. **Selectivity** — only specs marked `shared()` are retained, and only
//!    query replies: one-off sessions and trace-retaining runs leave no
//!    footprint in the store or the counters.
//! 4. **Cross-figure reuse at kilobyte cost** — the full `repro all` driver
//!    order shares 76 of its 248 cell requests, and the store retains
//!    exactly those 76 re-read replies (under 2.5 MiB), nothing a later
//!    figure does not read.
//!
//! The cache and collector are still process-global (both wait on ROADMAP
//! item 1, which releases the benchmark driver's calls into them), so
//! everything runs from one `#[test]`: a second test would fill the store
//! and the ledgers this one counts. The worker count is a field of each
//! [`Run`]. Metered passes install the collector with wall timing *on*:
//! the `cache_*` counters are `Counter::EXECUTION_DEPENDENT` and a
//! byte-comparable (wall-off) ledger deliberately zeroes them.

use vstream::figures::{self as f, Run};
use vstream::{cache, query_many_jobs, SessionQuery, SessionReply, SessionSpec};
use vstream_app::Video;
use vstream_net::NetworkProfile;
use vstream_obs::{collector, Counter};
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

fn spec(seed: u64) -> SessionSpec {
    SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        Video::new(1, 1_000_000, SimDuration::from_secs(600)),
        NetworkProfile::Research,
        seed,
        SimDuration::from_secs(30),
    )
}

/// Two figures that sample the *same* Table 1 cells (Firefox/Flash over all
/// four networks), so the second one can be served entirely from the cache.
fn figure_suite(jobs: usize) -> Vec<String> {
    let mut run = Run { seed: 97, jobs, qoe: None };
    let (fig3a, _corr) = f::fig3a_flash_buffering(&mut run, 2);
    let (fig4a, fig4b) = f::fig4_flash_steady_state(&mut run, 2);
    vec![fig3a.to_csv(), fig4a.to_csv(), fig4b.to_csv()]
}

/// Whether two replies carry the same features, field for field (the `Debug`
/// form prints every one, floats included, at full precision).
fn same_answer(a: &SessionReply, b: &SessionReply) -> bool {
    format!("{:?}", a.answer) == format!("{:?}", b.answer)
}

/// Every driver of `repro all` that samples the cell stream, in the
/// binary's order and at its default seed and sample clamps (the other
/// drivers build one-off specs and never reach the store).
fn repro_all_cell_drivers(run: &mut Run) {
    let n = 12;
    f::fig3a_flash_buffering(run, n);
    f::fig3b_html5_buffering(run, n);
    f::fig4_flash_steady_state(run, n);
    f::fig5_html5_steady_state(run, n);
    f::fig6b_long_blocks(run, n.min(8));
    f::fig7b_ipad_block_vs_rate(run, n);
    f::fig11_netflix_buffering(run, n.min(6));
    f::fig12_netflix_blocks(run, n.min(f::NETFLIX_BLOCK_SESSIONS));
}

#[test]
fn cache_is_transparent_selective_and_single_execution() {
    // --- 1. Same shared spec asked the same question twice: one engine
    // run, identical replies. The ledger distinguishes the paths (1 miss +
    // 1 hit) while its session counts stay replay-equalized by design.
    collector::install(true);
    cache::install();
    let s = [spec(301).shared()];
    let cycles = SessionQuery::default().onoff().phases();
    let ask = |q: &SessionQuery| query_many_jobs(&s, 1, q).remove(0).expect("valid cell");
    let (first, second) = (ask(&cycles), ask(&cycles));
    assert!(same_answer(&first, &second));
    assert_eq!(first.logic.read_total(), second.logic.read_total());
    assert_eq!(first.connection_stats, second.connection_stats);
    assert_eq!(cache::len(), 1);
    // A reply is kilobytes; a packet capture of this session is megabytes.
    assert!((1..64 << 10).contains(&cache::bytes_retained()));
    // A different question about the same session is a miss that gets its
    // own answer, not the first question's.
    let totals = ask(&SessionQuery::default().totals());
    assert!(totals.answer.onoff.is_none() && totals.answer.phases.is_none());
    assert_eq!(
        totals.answer.totals.expect("totals queried").total_downloaded,
        first.answer.phases.as_ref().expect("phases queried").total_bytes,
    );
    assert_eq!(cache::len(), 2);
    // Trace-retaining runs always simulate and leave the store alone.
    let traced = s[0].run().expect("valid cell");
    assert_eq!(traced.logic.read_total(), first.logic.read_total());
    assert_eq!(cache::len(), 2);
    let ledger = collector::take().expect("metered run");
    assert_eq!(
        ledger.totals.counter(Counter::CacheMisses),
        2,
        "engine must run exactly once per distinct question"
    );
    assert_eq!(ledger.totals.counter(Counter::CacheHits), 1);
    assert_eq!(
        ledger.totals.counter(Counter::CacheBytesRetained),
        cache::bytes_retained()
    );
    assert_eq!(
        ledger.totals.counter(Counter::SimSessions),
        4,
        "hits replay the session's metrics delta, keeping ledgers cache-independent"
    );
    cache::uninstall();

    // --- 2. A spec repeated inside one batch goes through the cache like
    // any other repeat: at two workers the later occurrence either hits the
    // entry the earlier one stored or misses alongside it (the first insert
    // wins). Both ways every index sees its own reply, one entry per
    // distinct spec is retained and charged once, and the ledger counts
    // three sessions.
    collector::install(true);
    cache::install();
    let batch = vec![spec(302).shared(), spec(303).shared(), spec(302).shared()];
    let outs = query_many_jobs(&batch, 2, &cycles);
    let t = |i: usize| outs[i].as_ref().expect("valid cell");
    assert!(same_answer(t(0), t(2)), "duplicate indices must agree");
    let ledger = collector::take().expect("metered run");
    assert_eq!(cache::len(), 2);
    assert_eq!(
        ledger.totals.counter(Counter::CacheHits) + ledger.totals.counter(Counter::CacheMisses),
        3
    );
    assert_eq!(ledger.totals.counter(Counter::SimSessions), 3);
    assert_eq!(
        ledger.totals.counter(Counter::CacheBytesRetained),
        cache::bytes_retained(),
        "one charge per retained entry"
    );
    cache::uninstall();

    // --- 3. Selectivity: non-shared specs bypass retention entirely, even
    // with the cache installed and even when duplicated in a batch.
    collector::install(true);
    cache::install();
    let plain = vec![spec(304), spec(304)];
    let outs = query_many_jobs(&plain, 1, &cycles);
    assert!(
        same_answer(outs[0].as_ref().expect("valid"), outs[1].as_ref().expect("valid")),
        "purity holds with or without the cache"
    );
    let ledger = collector::take().expect("metered run");
    assert_eq!(ledger.totals.counter(Counter::CacheMisses), 0);
    assert_eq!(ledger.totals.counter(Counter::CacheHits), 0);
    assert_eq!(cache::len(), 0, "non-shared sessions must not be retained");
    cache::uninstall();

    // --- 4. Transparency at the figure level: byte-identical CSVs with the
    // cache off, on (serial), and on (parallel) — and the second figure of
    // the cached suite is served from the first one's sessions.
    let baseline = figure_suite(1); // cache off

    collector::install(true);
    cache::install();
    let cached_serial = figure_suite(1);
    let ledger = collector::take().expect("metered run");
    assert!(
        ledger.totals.counter(Counter::CacheHits) >= 8,
        "fig4 must hit fig3a's retained cells, saw {} hits",
        ledger.totals.counter(Counter::CacheHits)
    );
    cache::uninstall();

    cache::install();
    let cached_parallel = figure_suite(8);
    cache::uninstall();

    assert_eq!(baseline, cached_serial, "cache-on output differs from cache-off");
    assert_eq!(baseline, cached_parallel, "cached parallel output differs");

    // --- 5. The whole suite's cell traffic: every driver asks the shared
    // cell query, so the 76 cross-figure requests hit under the exact
    // (spec, query) key. Only the 76 sessions a later figure re-reads are
    // retained (Figs. 3 → 4/5 and the Fig. 12 prefix of Fig. 11), and what
    // they leave behind is replies, not captures (the packed-trace store
    // this replaced held 69 MB here). The DASH load sweep runs last and is
    // read once, so it adds nothing to the store.
    let mut run = Run { seed: 2026, jobs: 1, qoe: None };
    collector::install(true);
    cache::install();
    repro_all_cell_drivers(&mut run);
    let cell_entries = cache::len();
    f::ext_qoe_load_sweep(&mut run, 6);
    assert_eq!(cache::len(), cell_entries, "ext-qoe must retain nothing");
    let ledger = collector::take().expect("metered run");
    assert_eq!(ledger.totals.counter(Counter::CacheHits), 76);
    assert_eq!(ledger.totals.counter(Counter::CacheMisses), 76);
    assert_eq!(cache::len(), 76);
    let retained = ledger.totals.counter(Counter::CacheBytesRetained);
    assert_eq!(retained, cache::bytes_retained());
    assert!(retained < 5 << 19, "{retained} bytes retained");
    cache::uninstall();
}
