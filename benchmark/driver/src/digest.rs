//! Output digests: FNV-1a 64 over a canonical text rendering of each reply.

use std::fmt::Write;

use vstream::SessionReply;

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a reply carries, as text. The `Debug` forms are stable for
/// equal values (floats print their shortest round-trip form), so equal
/// replies render equally on every run and host; a field added to one of
/// these types changes the rendering, which is when the goldens are
/// regenerated (`run.py --update-golden`).
pub fn render_reply(reply: &SessionReply) -> String {
    let mut s = String::new();
    let logic = &reply.logic;
    write!(
        s,
        "answer={:?}\nplayer={:?}\nread_total={} blocks={} switches={}\nconnections={} base_rtt_ns={}\nstats={:?}\n",
        reply.answer,
        logic.player().stats(),
        logic.read_total(),
        logic.blocks(),
        logic.switches(),
        reply.connections,
        reply.base_rtt.as_nanos(),
        reply.connection_stats,
    )
    .expect("writing to a String cannot fail");
    s
}

/// Digest of one session slot; inapplicable cells (`None`) digest as 0,
/// which no rendered reply can produce in practice and which the caller
/// counts as a failed operation anyway.
pub fn reply_digest(reply: Option<&SessionReply>) -> u64 {
    reply.map_or(0, |r| fnv1a64(render_reply(r).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{workload_specs, Workload};
    use vstream::query_many_jobs;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn rendering_is_canonical_and_discriminating() {
        let w = Workload::SessionsPaced;
        let specs: Vec<_> = workload_specs(w, 5, 1).into_iter().take(3).collect();
        let a = query_many_jobs(&specs, 1, &w.query());
        let b = query_many_jobs(&specs, 2, &w.query());
        let da: Vec<u64> = a.iter().map(|r| reply_digest(r.as_ref())).collect();
        let db: Vec<u64> = b.iter().map(|r| reply_digest(r.as_ref())).collect();
        assert_eq!(da, db, "equal replies must render equally");
        assert!(da.iter().all(|&d| d != 0));
        assert_ne!(da[0], da[1], "different sessions must digest differently");
        let text = render_reply(a[0].as_ref().unwrap());
        assert!(
            text.contains("totals: Some"),
            "every queried feature is rendered"
        );
        assert_eq!(reply_digest(None), 0);
    }
}
