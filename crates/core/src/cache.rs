//! The cross-figure session cache.
//!
//! Every figure and table in the reproduction is computed from sessions
//! drawn out of the same (client, container, video, profile) cell pool, and
//! a session is a *pure function* of its [`SessionSpec`] — two equal specs
//! produce bit-identical packet streams, so equal specs asked the same
//! [`SessionQuery`] produce bit-identical replies. The cache exploits
//! exactly that purity: it is a content-addressed, per-run store keyed on
//! the full spec identity *and* the query, so the first figure driver to ask
//! a cell runs the engine and every later driver asking the same question
//! gets the finished [`SessionReply`] back without re-simulating.
//!
//! What is stored is the **reply, not the capture**: a few kilobytes of
//! cycles, phases and endpoint statistics per session instead of a packet
//! trace. A miss inserts the reply it just computed (nothing is packed,
//! no trace ever existed); a hit clones it (nothing is unpacked or
//! replayed). The price is that a *different* query on the same spec is a
//! miss — drivers that sample the same cells therefore share one query
//! (`figures::cell_query`). The `cache_bytes_retained` counter reports the
//! retained footprint.
//!
//! Lifecycle: the cache is **invalidation-free**. An entry can never go
//! stale — its key *is* the complete input of the computation — so there is
//! no eviction, no TTL, and no dirty tracking; [`install`] starts an empty
//! store and [`uninstall`] drops it, bracketing one `repro` run.
//!
//! Retention is **selective**. Only specs marked
//! [`shared`](SessionSpec::shared) — the cell-stream sessions a later
//! figure re-reads, listed by the figures' `re_read` table beside
//! `figures::cell_specs` — enter the store; every other session (Table 1's
//! bespoke videos, the cells only one figure samples, the `ext-qoe` sweep)
//! would retain memory that no later driver ever reads.
//! Trace-retaining runs ([`SessionSpec::run`]) never consult the cache.
//!
//! Alongside each reply the store keeps the session's exact metrics delta
//! (see `SessionSpec::obtain_reply` in `session.rs`), so a cache hit can
//! replay the skipped engine run into the observability ledger and a
//! metered run produces the same totals with the cache on or off.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use vstream_obs::Metrics;

use crate::query::{SessionQuery, SessionReply};
use crate::session::SessionSpec;

/// The content address of a session: every field of [`SessionSpec`] that
/// feeds the simulation, flattened to integers. Equal keys ⇒ bit-identical
/// outcomes. (The `shared` retention flag is deliberately *not* part of the
/// key — it changes where the result lives, never what it is.)
pub(crate) type SessionKey = [u64; 12];

/// One answered question retained by the cache.
pub(crate) struct CachedReply {
    /// The reply (`None` for inapplicable Table 1 cells).
    pub(crate) reply: Option<SessionReply>,
    /// The metrics the session recorded while it ran, replayed into the
    /// requesting worker's registry on every hit.
    pub(crate) metrics: Metrics,
    /// Approximate bytes this entry retains.
    pub(crate) bytes: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

type Store = HashMap<(SessionKey, SessionQuery), Arc<CachedReply>>;

fn store() -> MutexGuard<'static, Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE
        .get_or_init(Mutex::default)
        .lock()
        .expect("a worker panicked while holding the session cache")
}

/// Activates the cache with an empty store. Call once at the start of a
/// run; replies computed while active are retained until [`uninstall`].
pub fn install() {
    store().clear();
    ACTIVE.store(true, Ordering::Release);
}

/// Deactivates the cache and drops everything it retained.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::Release);
    store().clear();
}

/// True while the cache is installed. A single relaxed-ish atomic load —
/// the only cost the cache adds to an uncached run.
pub(crate) fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Number of distinct (spec, query) entries currently retained.
pub fn len() -> usize {
    store().len()
}

/// Total bytes currently retained.
pub fn bytes_retained() -> u64 {
    store().values().map(|c| c.bytes).sum()
}

/// The content address of `spec`.
pub fn key_of(spec: &SessionSpec) -> SessionKey {
    let (watch_present, watch_ns) = match spec.watch_time {
        Some(w) => (1, w.as_nanos()),
        None => (0, 0),
    };
    let (cross_present, cross_words) = match spec.cross {
        Some(c) => (1, c.key_words()),
        None => (0, [0; 1]),
    };
    [
        spec.client as u64,
        spec.container as u64,
        spec.profile as u64,
        spec.video.id,
        spec.video.encoding_bps,
        spec.video.duration.as_nanos(),
        spec.seed,
        spec.capture.as_nanos(),
        watch_present,
        watch_ns,
        cross_present,
        cross_words[0],
    ]
}

/// The reply stored for `query` asked of the spec behind `key`, if any.
pub(crate) fn lookup(key: &SessionKey, query: &SessionQuery) -> Option<Arc<CachedReply>> {
    store().get(&(*key, query.clone())).cloned()
}

/// Stores a finished reply. Returns the bytes the entry retains when this
/// call inserted it, `None` when the entry already existed — on a
/// concurrent double-miss the first insert wins (both computed
/// bit-identical replies, so which copy is retained cannot matter) and only
/// the winner accounts its bytes.
pub(crate) fn insert(
    key: SessionKey,
    query: &SessionQuery,
    reply: Option<SessionReply>,
    metrics: Metrics,
) -> Option<u64> {
    let bytes =
        (size_of::<CachedReply>() + reply.as_ref().map_or(0, SessionReply::heap_bytes)) as u64;
    match store().entry((key, query.clone())) {
        Entry::Occupied(_) => None,
        Entry::Vacant(e) => {
            e.insert(Arc::new(CachedReply {
                reply,
                metrics,
                bytes,
            }));
            Some(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_app::Video;
    use vstream_net::NetworkProfile;
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

    #[test]
    fn key_covers_every_spec_field() {
        let base = spec(7);
        assert_eq!(key_of(&base), key_of(&base.clone()));
        // Each field perturbation must move the key.
        let variants = [
            SessionSpec {
                client: Client::Chrome,
                ..base
            },
            SessionSpec {
                container: Container::Html5,
                ..base
            },
            SessionSpec {
                video: Video::new(2, 1_000_000, SimDuration::from_secs(600)),
                ..base
            },
            SessionSpec {
                video: Video::new(1, 2_000_000, SimDuration::from_secs(600)),
                ..base
            },
            SessionSpec {
                video: Video::new(1, 1_000_000, SimDuration::from_secs(601)),
                ..base
            },
            SessionSpec {
                profile: NetworkProfile::Home,
                ..base
            },
            SessionSpec { seed: 8, ..base },
            SessionSpec {
                capture: SimDuration::from_secs(31),
                ..base
            },
            base.interrupted(SimDuration::from_secs(5)),
            base.with_lrd_cross(vstream_net::LrdCrossConfig::for_load(20_000_000, 500)),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(key_of(v), key_of(&base), "variant {i} collided");
        }
        // A zero-length watch time is still distinct from no watch time.
        assert_ne!(
            key_of(&base.interrupted(SimDuration::from_nanos(0))),
            key_of(&base)
        );
        // A cross-traffic load change must move the key too.
        let crossed = base.with_lrd_cross(vstream_net::LrdCrossConfig::for_load(20_000_000, 500));
        let mut heavier = crossed;
        heavier.cross.as_mut().unwrap().peak_bps += 1;
        assert_ne!(key_of(&heavier), key_of(&crossed));
        // Retention is not identity: a shared spec keys the same as its
        // unshared twin.
        assert_eq!(key_of(&base.shared()), key_of(&base));
    }
}
