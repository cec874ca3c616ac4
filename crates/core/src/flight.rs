//! Where flight-recorder rings become files: `repro --trace-dir`.
//!
//! The obs layer owns the ring ([`vstream_obs::trace`]); this module owns
//! the policy around it — when a session is bracketed, which sessions get
//! dumped, what the files are called, and the two dump formats:
//!
//! * `<session>.trace.json` — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). Layers map
//!   to threads (net/tcp/app), discrete happenings are instant events,
//!   and cwnd / queue-backlog / player-buffer samples are counter tracks.
//! * `<session>.txt` — a plain-text timeline (one event per line, ms
//!   timestamps at ns precision) with a QoE footer read from the player's
//!   own counters, so it describes the whole session however much of it
//!   the ring kept; a session without a player has no footer.
//!
//! File names are derived from the session's identity (client, container,
//! profile, video, seed, capture, watch time; for an ablation harness the
//! experiment, cell, switch under test and seed, e.g.
//! `ext-sack-c1-nosack-r3-s2026`), never from execution
//! context, and a session's event stream is a pure function of its spec —
//! so the dump *set and bytes* are deterministic across `--jobs` and cache
//! on/off. Cache hits clone a stored reply without re-running the engine,
//! so they record no events and never rewrite a file (the miss that
//! populated the entry already dumped the identical bytes).
//!
//! With `--trace-anomalies` only sessions tripping [`is_anomalous`] are
//! written: a completed stall beyond [`ANOMALY_STALL_NS`] or at least
//! [`ANOMALY_TIMEOUT_COUNT`] retransmission timeouts across the session's
//! endpoints (a retransmit storm). The ring still records everything —
//! the predicate is evaluated at session end, which is exactly why the
//! recorder keeps the *last* N events rather than the first.

use std::path::PathBuf;
use std::sync::Mutex;

use vstream_app::PlayerStats;
use vstream_obs::trace::{self, Event, EventKind, Recorder, SIDE_CLIENT, SIDE_SERVER};
use vstream_tcp::EndpointStats;

use crate::session::SessionSpec;

/// Default ring capacity for full `--trace-dir` dumps.
pub const DEFAULT_RING: usize = 65_536;
/// Default ring capacity in `--trace-anomalies` mode: the tail that
/// explains an anomaly, not the whole session.
pub const ANOMALY_RING: usize = 4_096;
/// A completed stall at least this long trips the anomaly predicate (2 s).
pub const ANOMALY_STALL_NS: u64 = 2_000_000_000;
/// This many RTO fires across all endpoints trip the anomaly predicate.
pub const ANOMALY_TIMEOUT_COUNT: u64 = 3;

/// Dump policy installed by the CLI.
pub struct TraceConfig {
    /// Directory dump files are written into (created on install).
    pub dir: PathBuf,
    /// Dump only sessions tripping [`is_anomalous`].
    pub anomalies_only: bool,
    /// Ring capacity per session.
    pub ring_cap: usize,
}

/// The installed dump policy; `None` when dumps are off.
static CONFIG: Mutex<Option<TraceConfig>> = Mutex::new(None);

/// Installs the dump policy, creates the dump directory, and turns the
/// global tracing switch on.
pub fn install(cfg: TraceConfig) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.dir)?;
    *CONFIG.lock().expect("flight config poisoned") = Some(cfg);
    trace::set_enabled(true);
    Ok(())
}

/// Turns tracing off and drops the dump policy.
pub fn uninstall() {
    trace::set_enabled(false);
    *CONFIG.lock().expect("flight config poisoned") = None;
}

/// Brackets a session about to run on this thread: installs a fresh ring
/// of the policy's capacity when a dump policy is installed. Returns
/// whether a bracket was opened (the caller must then call
/// [`session_end`]). The check is the policy, not [`trace::enabled`], so
/// a caller that brackets a ring of its own with the bare switch on keeps
/// that ring.
#[inline]
pub fn session_begin() -> bool {
    let cap = CONFIG.lock().expect("flight config poisoned").as_ref().map(|c| c.ring_cap);
    let Some(cap) = cap else { return false };
    trace::begin_session(cap);
    true
}

/// Closes a session bracket: takes the ring and writes the dump files
/// named by `stem`, subject to the anomaly policy. `app` is the session's
/// player statistics and block count, the pair the ledger's `app_*` slots
/// read (`None` for a session without a player). When no bracket was
/// opened (the recorder is off) there is no ring and this is a no-op.
pub fn session_end(
    stem: impl FnOnce() -> String,
    app: Option<&(PlayerStats, u64)>,
    connection_stats: &[(EndpointStats, EndpointStats)],
) {
    let Some(rec) = trace::end_session() else { return };
    let g = CONFIG.lock().expect("flight config poisoned");
    let Some(cfg) = g.as_ref() else { return };
    let player = app.map(|(stats, _)| stats);
    if cfg.anomalies_only && !is_anomalous(player, connection_stats) {
        return;
    }
    let stem = stem();
    let json = chrome_trace_json(&stem, &rec);
    let text = text_timeline(&stem, &rec, app, connection_stats);
    for (ext, body) in [("trace.json", &json), ("txt", &text)] {
        let path = cfg.dir.join(format!("{stem}.{ext}"));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("[trace] failed to write {}: {e}", path.display());
        }
    }
}

/// The post-hoc anomaly predicate: a completed stall of at least
/// [`ANOMALY_STALL_NS`], or at least [`ANOMALY_TIMEOUT_COUNT`] RTO fires
/// summed over every endpoint (client and server, all connections).
pub fn is_anomalous(
    player: Option<&PlayerStats>,
    connection_stats: &[(EndpointStats, EndpointStats)],
) -> bool {
    stall_max_ns(player) >= ANOMALY_STALL_NS
        || total_timeouts(connection_stats) >= ANOMALY_TIMEOUT_COUNT
}

fn stall_max_ns(player: Option<&PlayerStats>) -> u64 {
    player.map_or(0, |p| p.stall_max.as_nanos())
}

fn total_timeouts(connection_stats: &[(EndpointStats, EndpointStats)]) -> u64 {
    connection_stats
        .iter()
        .map(|(c, s)| c.timeouts + s.timeouts)
        .sum()
}

/// Identity-derived dump file stem: every cache-key field appears, so two
/// distinct sessions can never share a file and re-running the same spec
/// rewrites identical bytes.
pub fn file_stem(spec: &SessionSpec) -> String {
    let mut stem = format!(
        "{}-{}-{}-v{}-r{}-d{}-s{}-c{}",
        slug(spec.client.label()),
        slug(spec.container.label()),
        slug(spec.profile.label()),
        spec.video.id,
        spec.video.encoding_bps,
        spec.video.duration.as_nanos() / 1_000_000,
        spec.seed,
        spec.capture.as_nanos() / 1_000_000,
    );
    if let Some(w) = spec.watch_time {
        stem.push_str(&format!("-w{}", w.as_nanos() / 1_000_000));
    }
    stem
}

/// Lowercased label with non-alphanumerics collapsed to single dashes
/// ("Internet Explorer" → "internet-explorer", "iOS (native)" →
/// "ios-native").
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_dash = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_dash && !out.is_empty() {
                out.push('-');
            }
            pending_dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_dash = true;
        }
    }
    out
}

/// Chrome trace-event timeline thread per layer.
fn layer_tid(kind: EventKind) -> u32 {
    match kind.layer() {
        "net" => 2,
        "tcp" => 3,
        _ => 4,
    }
}

fn side_name(side: u8) -> &'static str {
    match side {
        SIDE_CLIENT => "client",
        SIDE_SERVER => "server",
        _ => "-",
    }
}

/// Human names for the two payload words, per kind (for dump readability).
fn arg_names(kind: EventKind) -> (&'static str, &'static str) {
    match kind {
        EventKind::TcpState => ("from_state", "to_state"),
        EventKind::TcpCwnd => ("cwnd", "ssthresh"),
        EventKind::TcpRtoFire => ("timeouts", "flight_bytes"),
        EventKind::TcpFastRetx => ("seq", "cwnd"),
        EventKind::TcpSackEdge => ("start", "end"),
        EventKind::NetQueueDrop => ("backlog_bytes", "packet_bytes"),
        EventKind::NetRandomDrop => ("packet_bytes", "b"),
        EventKind::NetBacklogHwm => ("backlog_bytes", "bucket"),
        EventKind::AppStartup => ("delay_ns", "b"),
        EventKind::AppStallStart => ("began_at_ns", "stalls"),
        EventKind::AppStallEnd => ("duration_ns", "stalls_completed"),
        EventKind::AppFinished => ("stall_total_ns", "b"),
        EventKind::AppBufferLevel => ("buffer_bytes", "bucket"),
        EventKind::AppBlockRequest => ("blocks", "b"),
        EventKind::AppBitrateSwitch => ("new_bps", "old_bps"),
    }
}

/// Microseconds with 3 decimals from nanoseconds — the `ts` field of the
/// Chrome trace-event format. Integer math keeps dumps byte-deterministic.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Milliseconds with 6 decimals from nanoseconds (text timelines).
fn ts_ms(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

/// Counter-track events sample a value over time; everything else is an
/// instant marker.
fn is_counter(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::TcpCwnd | EventKind::NetBacklogHwm | EventKind::AppBufferLevel
    )
}

/// Renders the ring as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto interchange format).
pub fn chrome_trace_json(stem: &str, rec: &Recorder) -> String {
    let events = rec.events();
    let mut s = String::with_capacity(256 + events.len() * 160);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    s.push_str(&format!(
        "\"session\":\"{stem}\",\"events_recorded\":{},\"events_overwritten\":{},\"ring_capacity\":{}",
        rec.len(),
        rec.dropped(),
        rec.capacity(),
    ));
    s.push_str("},\"traceEvents\":[\n");
    s.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{stem}\"}}}}"
    ));
    for (tid, name) in [(2, "net"), (3, "tcp"), (4, "app")] {
        s.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for ev in &events {
        s.push_str(",\n");
        s.push_str(&chrome_event(ev));
    }
    s.push_str("\n]}\n");
    s
}

fn chrome_event(ev: &Event) -> String {
    let ts = ts_us(ev.at_ns);
    let tid = layer_tid(ev.kind);
    let cat = ev.kind.layer();
    if is_counter(ev.kind) {
        // One counter track per (kind, connection, side); the sampled
        // value is the first payload word.
        let (a_name, b_name) = arg_names(ev.kind);
        let track = match ev.kind {
            EventKind::TcpCwnd => {
                format!("cwnd conn{} {}", ev.conn, side_name(ev.side))
            }
            EventKind::NetBacklogHwm => "queue_backlog_hwm".to_string(),
            _ => "player_buffer".to_string(),
        };
        return format!(
            "{{\"name\":\"{track}\",\"cat\":\"{cat}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"{a_name}\":{},\"{b_name}\":{}}}}}",
            ev.a, ev.b,
        );
    }
    let (a_name, b_name) = arg_names(ev.kind);
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\
         \"tid\":{tid},\"args\":{{\"conn\":{},\"side\":\"{}\",\"{a_name}\":{},\"{b_name}\":{}}}}}",
        ev.kind.name(),
        ev.conn,
        side_name(ev.side),
        ev.a,
        ev.b,
    )
}

/// Renders the ring as a plain-text timeline. A session with a player
/// (`app`: its statistics and block count) ends in a QoE footer read from
/// those counters, not from the ring, which may have overwritten the
/// session's start.
pub fn text_timeline(
    stem: &str,
    rec: &Recorder,
    app: Option<&(PlayerStats, u64)>,
    connection_stats: &[(EndpointStats, EndpointStats)],
) -> String {
    let events = rec.events();
    let player = app.map(|(stats, _)| stats);
    let mut s = String::with_capacity(256 + events.len() * 96);
    s.push_str(&format!("# session {stem}\n"));
    s.push_str(&format!(
        "# events: {} recorded, {} overwritten (ring capacity {})\n",
        rec.len(),
        rec.dropped(),
        rec.capacity(),
    ));
    s.push_str(&format!(
        "# anomaly: {} (stall_max {} ms, timeouts {})\n",
        if is_anomalous(player, connection_stats) { "YES" } else { "no" },
        stall_max_ns(player) / 1_000_000,
        total_timeouts(connection_stats),
    ));
    s.push_str("#       ms  layer  event\n");
    for ev in &events {
        let (a_name, b_name) = arg_names(ev.kind);
        s.push_str(&format!(
            "{:>16}  {:<5}  {:<18} conn={} side={} {a_name}={} {b_name}={}\n",
            ts_ms(ev.at_ns),
            ev.kind.layer(),
            ev.kind.name(),
            ev.conn,
            side_name(ev.side),
            ev.a,
            ev.b,
        ));
    }
    if let Some((stats, blocks)) = app {
        s.push_str(&format!(
            "# qoe: startup_ns={} stalls={} completed={} stall_total_ns={} stall_max_ns={} \
             blocks={blocks}\n",
            stats.startup_delay.map_or(-1i64, |d| d.as_nanos() as i64),
            stats.stalls,
            stats.stalls_completed,
            stats.stall_time.as_nanos(),
            stats.stall_max.as_nanos(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_obs::trace::SIDE_NONE;

    fn rec_with(events: &[Event]) -> Recorder {
        let mut r = Recorder::new(64);
        for e in events {
            r.push(*e);
        }
        r
    }

    #[test]
    fn slug_collapses_labels() {
        assert_eq!(slug("Internet Explorer"), "internet-explorer");
        assert_eq!(slug("iOS (native)"), "ios-native");
        assert_eq!(slug("Flash HD"), "flash-hd");
        assert_eq!(slug("Research"), "research");
    }

    #[test]
    fn chrome_json_is_wellformed_enough_to_hand_count() {
        let r = rec_with(&[
            Event {
                at_ns: 1_500,
                kind: EventKind::TcpCwnd,
                side: SIDE_CLIENT,
                conn: 2,
                a: 14_480,
                b: 65_535,
            },
            Event {
                at_ns: 2_000,
                kind: EventKind::AppStartup,
                side: SIDE_NONE,
                conn: 0,
                a: 2_000,
                b: 0,
            },
        ]);
        let json = chrome_trace_json("demo", &r);
        // 1 process_name + 3 thread_name + 2 events.
        assert_eq!(json.matches("\"ph\":").count(), 6);
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"cwnd\":14480"));
        assert!(json.contains("app_startup"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        // Balanced braces (no raw strings in the payload can unbalance
        // them: all values are integers or fixed labels).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
