//! The metrics ledger: stable JSON serialisation and human summaries.
//!
//! The ledger is the on-disk artifact of a metered run. Its JSON encoding
//! is hand-rolled (the workspace is dependency-free) and deliberately
//! boring so byte-comparison works as a determinism check:
//!
//! - top-level keys in fixed alphabetical order:
//!   `counters`, `gauges`, `histograms`, `profiles`, `schema_version`,
//!   `spans`;
//! - every counter and gauge slot is emitted even when zero, in the stable
//!   snake_case order of the slot enums (which are themselves kept in
//!   a layer-grouped order — byte-stability only needs the order fixed,
//!   not sorted);
//! - histograms emit only non-empty buckets as `[bucket, count]` pairs;
//! - profile slots are emitted only when non-empty, keyed by the names the
//!   caller passes (so `vstream-obs` stays below `net` in the dependency
//!   order and does not know what a `NetworkProfile` is);
//! - no floats anywhere — all values are `u64`s printed in decimal.
//!
//! `schema_version` is bumped whenever a key is renamed or removed;
//! additions are backwards-compatible and do not bump it.

use crate::metrics::{Counter, Gauge, Hist, HistId, Metrics, MAX_PROFILES};

/// Version of the ledger JSON schema.
pub(crate) const SCHEMA_VERSION: u64 = 2;

/// One closed span: a named phase (one repro figure) with wall-clock time
/// and the deterministic work counters it covered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (the figure id).
    pub name: String,
    /// Wall-clock nanoseconds, or 0 when wall timing is disabled.
    pub wall_ns: u64,
    /// Sessions completed within the span.
    pub sessions: u64,
    /// Events scheduled within the span.
    pub events: u64,
}

/// A complete metered run: merged totals plus the span sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// Slot totals merged across all workers and figures.
    pub totals: Metrics,
    /// Per-figure spans, in execution order.
    pub spans: Vec<SpanRecord>,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_hist(out: &mut String, h: &Hist) {
    out.push_str("{\"buckets\":[");
    let mut first = true;
    for (k, c) in h.nonzero() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{k},{c}]"));
    }
    out.push_str(&format!("],\"count\":{},\"sum\":{}}}", h.count(), h.sum()));
}

impl Ledger {
    /// Serialises the ledger to its stable JSON form. `profile_names` maps
    /// per-profile slot indices to ledger keys; slots past the end of the
    /// list or with no recorded data are omitted.
    pub fn to_json(&self, profile_names: &[&str]) -> String {
        let m = &self.totals;
        let mut out = String::with_capacity(4096);
        out.push('{');

        out.push_str("\"counters\":{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), m.counter(*c)));
        }
        out.push_str("},");

        out.push_str("\"gauges\":{");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", g.name(), m.gauge(*g)));
        }
        out.push_str("},");

        out.push_str("\"histograms\":{");
        for (i, h) in HistId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", h.name()));
            push_hist(&mut out, m.hist(*h));
        }
        out.push_str("},");

        out.push_str("\"profiles\":{");
        let mut first = true;
        for (i, name) in profile_names.iter().enumerate().take(MAX_PROFILES) {
            let p = m.profile(i);
            if m.profile_is_empty(i) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, name);
            out.push_str(&format!(
                ":{{\"events_scheduled\":{},\"sessions\":{}}}",
                p.events_scheduled, p.sessions
            ));
        }
        out.push_str("},");

        out.push_str(&format!("\"schema_version\":{SCHEMA_VERSION},"));

        out.push_str("\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"events\":");
            out.push_str(&format!("{},\"name\":", s.events));
            push_json_str(&mut out, &s.name);
            out.push_str(&format!(
                ",\"sessions\":{},\"wall_ns\":{}}}",
                s.sessions, s.wall_ns
            ));
        }
        out.push_str("]}");

        out.push('\n');
        out
    }

    /// Renders the human-readable summary table printed by
    /// `repro --metrics-summary`.
    pub fn summary(&self, profile_names: &[&str]) -> String {
        let m = &self.totals;
        let mut out = String::new();

        let mut rows: Vec<Vec<String>> = Vec::new();
        for c in Counter::ALL {
            let v = m.counter(c);
            if v != 0 {
                rows.push(vec![c.name().to_string(), v.to_string()]);
            }
        }
        for g in Gauge::ALL {
            let v = m.gauge(g);
            if v != 0 {
                rows.push(vec![g.name().to_string(), v.to_string()]);
            }
        }
        out.push_str(&crate::table::render(&["metric", "value"], &rows));

        let mut hrows: Vec<Vec<String>> = Vec::new();
        for h in HistId::ALL {
            let hist = m.hist(h);
            if hist.is_empty() {
                continue;
            }
            hrows.push(vec![
                h.name().to_string(),
                hist.count().to_string(),
                format!("{:.1}", hist.mean()),
                hist.nonzero()
                    .map(|(k, c)| format!("2^{k}:{c}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]);
        }
        if !hrows.is_empty() {
            out.push('\n');
            out.push_str(&crate::table::render(
                &["histogram", "count", "mean", "log2 buckets"],
                &hrows,
            ));
        }

        let mut prows: Vec<Vec<String>> = Vec::new();
        for (i, name) in profile_names.iter().enumerate().take(MAX_PROFILES) {
            if m.profile_is_empty(i) {
                continue;
            }
            let p = m.profile(i);
            prows.push(vec![name.to_string(), p.sessions.to_string(), p.events_scheduled.to_string()]);
        }
        if !prows.is_empty() {
            out.push('\n');
            out.push_str(&crate::table::render(
                &["profile", "sessions", "events"],
                &prows,
            ));
        }

        let hits = m.counter(Counter::CacheHits);
        let misses = m.counter(Counter::CacheMisses);
        if hits + misses > 0 {
            let lookups = hits + misses;
            let crows = vec![vec![
                hits.to_string(),
                misses.to_string(),
                format!("{:.3}", hits as f64 / lookups as f64),
                m.counter(Counter::CacheBytesRetained).to_string(),
            ]];
            out.push('\n');
            out.push_str(&crate::table::render(
                &["cache hits", "misses", "hit rate", "bytes retained"],
                &crows,
            ));
        }

        if !self.spans.is_empty() {
            let srows: Vec<Vec<String>> = self
                .spans
                .iter()
                .map(|s| {
                    let ms = s.wall_ns as f64 / 1e6;
                    let rate = if s.wall_ns == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.0}", s.sessions as f64 / (s.wall_ns as f64 / 1e9))
                    };
                    vec![
                        s.name.clone(),
                        format!("{ms:.1}"),
                        s.sessions.to_string(),
                        s.events.to_string(),
                        rate,
                    ]
                })
                .collect();
            out.push('\n');
            out.push_str(&crate::table::render(
                &["span", "wall ms", "sessions", "events", "sessions/s"],
                &srows,
            ));
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Gauge, HistId};

    fn sample_ledger() -> Ledger {
        let mut m = Metrics::new();
        m.add(Counter::SimSessions, 7);
        m.add(Counter::TcpRetxSegments, 3);
        m.gauge_max(Gauge::AppPeakBufferBytes, 1 << 21);
        m.record(HistId::AppStallMs, 0);
        m.record(HistId::AppStallMs, 130);
        m.profile_mut(1).sessions = 7;
        m.profile_mut(1).events_scheduled = 4000;
        Ledger {
            totals: m,
            spans: vec![SpanRecord {
                name: "fig7_ss".into(),
                wall_ns: 1_500_000,
                sessions: 7,
                events: 4000,
            }],
        }
    }

    #[test]
    fn json_is_stable_and_schema_versioned() {
        let names = ["research", "residence", "academic", "home"];
        let l = sample_ledger();
        let a = l.to_json(&names);
        let b = l.clone().to_json(&names);
        assert_eq!(a, b, "serialisation must be deterministic");

        assert!(a.contains("\"schema_version\":2"));
        assert!(a.contains("\"sim_sessions\":7"));
        assert!(a.contains("\"tcp_retx_segments\":3"));
        // Zero slots are still present.
        assert!(a.contains("\"tcp_rto_fires\":0"));
        // Only the non-empty profile appears.
        assert!(a.contains("\"residence\""));
        assert!(!a.contains("\"research\""));
        // Histogram bucket pairs: 0 -> bucket 0, 130 -> bucket 8.
        assert!(a.contains("\"app_stall_ms\":{\"buckets\":[[0,1],[8,1]],\"count\":2,\"sum\":130}"));
        assert!(a.contains("\"name\":\"fig7_ss\""));

        // Top-level keys appear in alphabetical order.
        let keys = ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"profiles\"", "\"schema_version\"", "\"spans\""];
        let positions: Vec<usize> = keys.iter().map(|k| a.find(k).expect(k)).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted, "top-level keys must be alphabetical");

        assert!(a.ends_with("]}\n"));
    }

    #[test]
    fn summary_mentions_key_quantities() {
        let names = ["research", "residence", "academic", "home"];
        let s = sample_ledger().summary(&names);
        assert!(s.contains("sim_sessions"));
        assert!(s.contains("app_stall_ms"));
        assert!(s.contains("residence"));
        assert!(s.contains("fig7_ss"));
        assert!(!s.contains("tcp_rto_fires"), "zero slots are elided from the summary");
        assert!(!s.contains("hit rate"), "cache table absent when the cache never ran");
    }

    #[test]
    fn summary_renders_cache_table_when_cache_was_active() {
        let mut l = sample_ledger();
        l.totals.add(Counter::CacheHits, 30);
        l.totals.add(Counter::CacheMisses, 10);
        l.totals.add(Counter::CacheBytesRetained, 123_456);
        let s = l.summary(&["research"]);
        assert!(s.contains("hit rate"));
        assert!(s.contains("0.750"));
        assert!(s.contains("123456"));
    }
}
