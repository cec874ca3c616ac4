//! Process-wide metrics collector: opt-in, merge-once-per-batch.
//!
//! The collector is the only piece of shared state in the observability
//! layer, and it is deliberately kept off the hot path: workers accumulate
//! into their own [`Metrics`] registry and call [`merge`] once per batch
//! (or once per session on the serial path), never per event. When no
//! ledger was requested ([`install`] has not been called) the [`is_active`]
//! check is a single relaxed atomic load and [`merge`] is a no-op, so runs
//! without `--metrics` pay essentially nothing.
//!
//! Span timing ([`begin_span`] / [`end_span`]) captures wall-clock elapsed
//! time plus deltas of the deterministic session/event counters. Wall time
//! and the few [`Counter::EXECUTION_DEPENDENT`] slots (scratch-reuse hits
//! and the session-cache counters — functions of worker count and cache
//! configuration, not of the sessions)
//! are the only non-deterministic quantities in the ledger; installing
//! with `wall = false` (or exporting `VSTREAM_WALL=off`) zeroes them so
//! two runs can be byte-compared at any `--jobs` value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::ledger::{Ledger, SpanRecord};
use crate::metrics::{Counter, Metrics};

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<State>> = Mutex::new(None);

struct State {
    totals: Metrics,
    spans: Vec<SpanRecord>,
    open: Option<OpenSpan>,
    wall: bool,
}

struct OpenSpan {
    name: String,
    started: Instant,
    sessions_before: u64,
    events_before: u64,
}

/// Whether wall-clock timing should be honoured, per the `VSTREAM_WALL`
/// environment variable (`off`/`0` disable it; anything else enables).
pub fn wall_from_env() -> bool {
    match std::env::var("VSTREAM_WALL") {
        Ok(v) => !matches!(v.as_str(), "off" | "0"),
        Err(_) => true,
    }
}

/// Activates the collector with empty totals. `wall` controls whether the
/// ledger keeps its execution-dependent quantities — span wall time and
/// the [`Counter::EXECUTION_DEPENDENT`] counters — (`true`) or zeroes them
/// for byte-comparable ledgers (`false`). Calling it again resets any
/// accumulated state.
pub fn install(wall: bool) {
    let mut state = STATE.lock().unwrap();
    *state = Some(State {
        totals: Metrics::new(),
        spans: Vec::new(),
        open: None,
        wall,
    });
    ACTIVE.store(true, Ordering::Release);
}

/// True if [`install`] has been called and the ledger not yet taken.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Folds a worker's registry into the process totals. No-op when the
/// collector is inactive; callers can invoke it unconditionally.
pub fn merge(m: &Metrics) {
    if !is_active() || m.is_empty() {
        return;
    }
    let mut state = STATE.lock().unwrap();
    if let Some(s) = state.as_mut() {
        s.totals.merge(m);
    }
}

/// Opens a named span (e.g. one repro figure). Nested spans are not
/// supported; opening a new span closes nothing and simply replaces any
/// span left open, so callers should pair begin/end.
pub fn begin_span(name: &str) {
    if !is_active() {
        return;
    }
    let mut state = STATE.lock().unwrap();
    if let Some(s) = state.as_mut() {
        s.open = Some(OpenSpan {
            name: name.to_string(),
            started: Instant::now(),
            sessions_before: s.totals.counter(Counter::SimSessions),
            events_before: s.totals.counter(Counter::SimEventsScheduled),
        });
    }
}

/// Closes the open span, records it, and returns a copy (for `--progress`
/// reporting). Returns `None` when inactive or no span is open.
pub fn end_span() -> Option<SpanRecord> {
    if !is_active() {
        return None;
    }
    let mut state = STATE.lock().unwrap();
    let s = state.as_mut()?;
    let open = s.open.take()?;
    let record = SpanRecord {
        name: open.name,
        wall_ns: if s.wall {
            open.started.elapsed().as_nanos() as u64
        } else {
            0
        },
        sessions: s
            .totals
            .counter(Counter::SimSessions)
            .saturating_sub(open.sessions_before),
        events: s
            .totals
            .counter(Counter::SimEventsScheduled)
            .saturating_sub(open.events_before),
    };
    s.spans.push(record.clone());
    Some(record)
}

/// Deactivates the collector and returns the accumulated ledger, or `None`
/// if it was never installed.
pub fn take() -> Option<Ledger> {
    let mut state = STATE.lock().unwrap();
    let mut s = state.take()?;
    ACTIVE.store(false, Ordering::Release);
    if !s.wall {
        s.totals.clear_execution_dependent();
    }
    Some(Ledger {
        totals: s.totals,
        spans: s.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;

    // Collector state is process-global, so all collector behaviour is
    // exercised from this single #[test] to avoid cross-test interference.
    #[test]
    fn collector_lifecycle() {
        // Inactive: merge is a no-op, end_span and take return None.
        assert!(!is_active() || take().is_some()); // drain any leftovers
        let mut m = Metrics::new();
        m.add(Counter::SimSessions, 5);
        merge(&m);
        assert!(end_span().is_none());
        assert!(take().is_none());

        // Active without wall clock: spans record zero wall_ns and counter
        // deltas; totals accumulate merges.
        install(false);
        assert!(is_active());
        begin_span("fig_alpha");
        let mut w = Metrics::new();
        w.add(Counter::SimSessions, 3);
        w.add(Counter::SimEventsScheduled, 120);
        merge(&w);
        let span = end_span().expect("span should close");
        assert_eq!(span.name, "fig_alpha");
        assert_eq!(span.wall_ns, 0);
        assert_eq!(span.sessions, 3);
        assert_eq!(span.events, 120);

        begin_span("fig_beta");
        let mut w2 = Metrics::new();
        w2.add(Counter::SimSessions, 2);
        merge(&w2);
        let span2 = end_span().expect("second span should close");
        assert_eq!(span2.sessions, 2, "span deltas, not totals");

        let ledger = take().expect("ledger present");
        assert!(!is_active());
        assert_eq!(ledger.totals.counter(Counter::SimSessions), 5);
        assert_eq!(ledger.spans.len(), 2);
        assert!(take().is_none(), "take drains");

        // Active with wall clock: elapsed time is captured, and the
        // execution-dependent counters survive.
        install(true);
        begin_span("timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let timed = end_span().unwrap();
        assert!(timed.wall_ns > 0);
        let mut exec = Metrics::new();
        exec.add(Counter::SimScratchReuseHits, 9);
        merge(&exec);
        let full = take().unwrap();
        assert_eq!(full.totals.counter(Counter::SimScratchReuseHits), 9);

        // Deterministic mode zeroes them: they measure worker layout, not
        // the sessions, so byte-comparable ledgers must not carry them.
        install(false);
        merge(&exec);
        let cmp = take().unwrap();
        assert_eq!(cmp.totals.counter(Counter::SimScratchReuseHits), 0);
    }
}
