//! Receive-side stream reassembly and flow control.
//!
//! The [`ReceiveBuffer`] tracks which byte ranges have arrived, delivers them
//! to the application in order, and computes the advertised window from its
//! remaining capacity. Because payload bytes are never materialized, the
//! out-of-order store is an interval set rather than a byte buffer.
//!
//! The advertised window is the mechanism behind the paper's client-pull
//! streaming strategies: an application that stops calling
//! `ReceiveBuffer::read` lets the buffer fill, which drives the advertised
//! window to zero and silences the sender (Fig. 2b).

use crate::rangeset::RangeSet;
use crate::segment::SackBlocks;

/// Reassembly buffer and window accounting for one direction of a
/// connection.
#[derive(Clone, Debug)]
pub(crate) struct ReceiveBuffer {
    /// Next in-order byte expected from the peer.
    rcv_nxt: u64,
    /// Bytes delivered in order but not yet read by the application.
    unread: u64,
    /// Total buffer capacity in bytes.
    capacity: u64,
    /// Out-of-order ranges, all strictly above `rcv_nxt`.
    ooo: RangeSet,
    /// Sequence offset of the peer's FIN, once seen.
    fin_seq: Option<u64>,
    /// True once `rcv_nxt` has consumed the FIN.
    fin_reached: bool,
    /// Start of the range that absorbed the most recent insertion; reported
    /// first in the SACK option (RFC 2018).
    last_insert: Option<u64>,
    /// Rotation cursor over the remaining ranges, so that successive ACKs
    /// walk the whole out-of-order map and the sender can accumulate a
    /// complete scoreboard.
    sack_rotate: u64,
}

impl ReceiveBuffer {
    /// Creates an empty buffer with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "receive buffer capacity must be positive");
        ReceiveBuffer {
            rcv_nxt: 0,
            unread: 0,
            capacity,
            ooo: RangeSet::new(),
            fin_seq: None,
            fin_reached: false,
            last_insert: None,
            sack_rotate: 0,
        }
    }

    /// Next expected in-order sequence number (the cumulative ACK value).
    ///
    /// Includes the FIN's sequence slot once the FIN has been reached.
    pub(crate) fn ack_no(&self) -> u64 {
        if self.fin_reached {
            self.rcv_nxt + 1
        } else {
            self.rcv_nxt
        }
    }

    /// Currently advertised receive window in bytes.
    pub(crate) fn window(&self) -> u64 {
        self.capacity.saturating_sub(self.unread + self.ooo.bytes())
    }

    /// Bytes available for the application to read.
    pub(crate) fn available(&self) -> u64 {
        self.unread
    }

    /// True once the peer's FIN is in order and all data has been read.
    pub(crate) fn at_eof(&self) -> bool {
        self.fin_reached && self.unread == 0
    }

    /// Accepts a data segment `[seq, seq + len)`.
    ///
    /// Returns the number of *new* in-order bytes made available to the
    /// application by this segment (0 for duplicates, out-of-order data, and
    /// out-of-window data). Data beyond the advertised window is truncated —
    /// a correct peer never sends it, but a zero-window probe probes exactly
    /// this path.
    #[inline]
    pub(crate) fn on_data(&mut self, seq: u64, len: u32) -> u64 {
        let Some((start, end)) = self.clip(seq, len) else {
            return 0;
        };
        if self.ooo.is_empty() && start == self.rcv_nxt {
            // In order with nothing held back — almost every data segment
            // of a session: the bytes go straight to the application and
            // the interval set is never touched.
            // `last_insert` always names a stored range, so it is already
            // `None` here.
            debug_assert!(self.last_insert.is_none());
            self.rcv_nxt = end;
            self.unread += end - start;
            self.check_fin();
            return end - start;
        }
        self.store_and_deliver(start, end)
    }

    /// [`Self::on_data`] with every segment sent down the general path: the
    /// reference the in-order fast path is compared against.
    #[cfg(test)]
    fn on_data_general(&mut self, seq: u64, len: u32) -> u64 {
        match self.clip(seq, len) {
            Some((start, end)) => self.store_and_deliver(start, end),
            None => 0,
        }
    }

    /// The part of `[seq, seq + len)` that is new and inside the window.
    fn clip(&self, seq: u64, len: u32) -> Option<(u64, u64)> {
        // Clip below: already-received bytes.
        let start = seq.max(self.rcv_nxt);
        // Clip above: the window right edge promised to the peer.
        let end = (seq + len as u64).min(self.rcv_nxt + self.window());
        (start < end).then_some((start, end))
    }

    /// Records the peer's FIN at stream offset `seq` (one past the last data
    /// byte). Returns true if the FIN is (now) in order.
    pub(crate) fn on_fin(&mut self, seq: u64) -> bool {
        match self.fin_seq {
            Some(existing) => debug_assert_eq!(existing, seq, "peer moved its FIN"),
            None => self.fin_seq = Some(seq),
        }
        self.check_fin();
        self.fin_reached
    }

    /// The first (lowest) out-of-order ranges held, for the SACK option of
    /// outgoing ACKs. The lowest ranges are reported because they are the
    /// ones adjacent to the holes the sender must repair first.
    pub(crate) fn sack_blocks(&mut self) -> SackBlocks {
        let mut blocks = SackBlocks::default();
        // First block: the range containing the most recent insertion
        // (RFC 2018 §4), so the sender learns about fresh arrivals at once.
        // It is nearly always the top range: ascending arrivals grow it.
        let recent = self.last_insert.and_then(|s| match self.ooo.last() {
            Some(top) if top.0 <= s => (top.0 == s).then_some(top),
            _ => self.ooo.starting_from(s).first().copied().filter(|r| r.0 == s),
        });
        let Some((first_start, first_end)) = recent.or_else(|| self.ooo.first()) else {
            return blocks;
        };
        blocks.push(first_start, first_end);
        // Remaining slots: rotate through the other ranges so that a burst
        // of ACKs communicates the complete out-of-order map.
        let mut cursor = self.sack_rotate;
        for _ in 0..2 {
            let next = self
                .ooo
                .starting_from(cursor)
                .iter()
                .chain(self.ooo.as_slice())
                .find(|r| r.0 != first_start);
            match next {
                Some(&(s, e)) => {
                    blocks.push(s, e);
                    cursor = s + 1;
                }
                None => break,
            }
        }
        self.sack_rotate = cursor;
        if let Some((_, e)) = self.ooo.last() {
            blocks.set_highest_end(e);
        }
        blocks
    }

    /// Reads up to `max` bytes for the application, returning how many were
    /// consumed. Freed capacity reopens the advertised window.
    pub(crate) fn read(&mut self, max: u64) -> u64 {
        let n = self.unread.min(max);
        self.unread -= n;
        n
    }

    /// The general path of [`Self::on_data`]: stores the clipped range,
    /// then releases whatever became contiguous with `rcv_nxt`.
    fn store_and_deliver(&mut self, start: u64, end: u64) -> u64 {
        self.last_insert = Some(self.ooo.insert_merged(start, end));
        let mut delivered = 0;
        // Stored ranges are non-adjacent, so at most the lowest one can
        // have reached `rcv_nxt`.
        if let Some((s, e)) = self.ooo.first().filter(|r| r.0 <= self.rcv_nxt) {
            debug_assert!(s == self.rcv_nxt, "stored range below rcv_nxt");
            self.ooo.pop_first();
            delivered = e - self.rcv_nxt;
            self.rcv_nxt = e;
            if self.last_insert == Some(s) {
                self.last_insert = None;
            }
        }
        self.unread += delivered;
        self.check_fin();
        delivered
    }

    fn check_fin(&mut self) {
        if !self.fin_reached && self.fin_seq == Some(self.rcv_nxt) {
            self.fin_reached = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimRng;

    #[test]
    fn in_order_delivery() {
        let mut rb = ReceiveBuffer::new(10_000);
        assert_eq!(rb.on_data(0, 1000), 1000);
        assert_eq!(rb.on_data(1000, 500), 500);
        assert_eq!(rb.ack_no(), 1500);
        assert_eq!(rb.available(), 1500);
    }

    #[test]
    fn duplicate_data_is_ignored() {
        let mut rb = ReceiveBuffer::new(10_000);
        rb.on_data(0, 1000);
        assert_eq!(rb.on_data(0, 1000), 0);
        assert_eq!(rb.on_data(500, 500), 0);
        assert_eq!(rb.ack_no(), 1000);
    }

    #[test]
    fn out_of_order_held_then_released() {
        let mut rb = ReceiveBuffer::new(10_000);
        assert_eq!(rb.on_data(1000, 1000), 0);
        assert_eq!(rb.ack_no(), 0);
        // Filling the hole releases both ranges.
        assert_eq!(rb.on_data(0, 1000), 2000);
        assert_eq!(rb.ack_no(), 2000);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let mut rb = ReceiveBuffer::new(10_000);
        rb.on_data(2000, 1000);
        rb.on_data(2500, 1000); // overlaps the first
        rb.on_data(4000, 500); // separate
        assert_eq!(rb.on_data(0, 2000), 3500); // releases [0,3500)
        assert_eq!(rb.ack_no(), 3500);
        assert_eq!(rb.on_data(3500, 500), 1000); // joins [4000,4500)
    }

    #[test]
    fn window_shrinks_with_unread_data() {
        let mut rb = ReceiveBuffer::new(4_000);
        assert_eq!(rb.window(), 4_000);
        rb.on_data(0, 3000);
        assert_eq!(rb.window(), 1_000);
        rb.read(2000);
        assert_eq!(rb.window(), 3_000);
    }

    #[test]
    fn window_reaches_zero_when_app_stops_reading() {
        let mut rb = ReceiveBuffer::new(2_000);
        rb.on_data(0, 2000);
        assert_eq!(rb.window(), 0);
        // Out-of-window data is refused entirely.
        assert_eq!(rb.on_data(2000, 1000), 0);
        assert_eq!(rb.ack_no(), 2000);
        // The application drains one block; the window reopens.
        assert_eq!(rb.read(1500), 1500);
        assert_eq!(rb.window(), 1500);
        assert_eq!(rb.on_data(2000, 1000), 1000);
    }

    #[test]
    fn out_of_order_data_counts_against_window() {
        let mut rb = ReceiveBuffer::new(4_000);
        rb.on_data(1000, 1000);
        assert_eq!(rb.window(), 3_000);
    }

    #[test]
    fn data_beyond_window_is_truncated() {
        let mut rb = ReceiveBuffer::new(1_000);
        // Only the first 1000 bytes fit.
        assert_eq!(rb.on_data(0, 1460), 1000);
        assert_eq!(rb.ack_no(), 1000);
        assert_eq!(rb.window(), 0);
    }

    #[test]
    fn sack_blocks_lead_with_most_recent_insertion() {
        let mut rb = ReceiveBuffer::new(100_000);
        rb.on_data(1000, 500);
        rb.on_data(3000, 500);
        rb.on_data(5000, 500);
        rb.on_data(7000, 500);
        // 7000 was the last insertion, so it is reported first.
        let blocks: Vec<_> = rb.sack_blocks().iter().collect();
        assert_eq!(blocks[0], (7000, 7500));
        assert_eq!(blocks.len(), 3);
        assert_eq!(rb.sack_blocks().highest_end(), 7500);
    }

    #[test]
    fn sack_rotation_covers_all_ranges() {
        // Ten disjoint ranges; repeated ACKs must eventually mention all.
        let mut rb = ReceiveBuffer::new(1_000_000);
        for i in 0..10u64 {
            rb.on_data(1000 + i * 2000, 500);
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10 {
            for (s, _) in rb.sack_blocks().iter() {
                seen.insert(s);
            }
        }
        assert_eq!(seen.len(), 10, "rotation failed to cover all ranges: {seen:?}");
    }

    #[test]
    fn sack_blocks_empty_when_in_order() {
        let mut rb = ReceiveBuffer::new(100_000);
        rb.on_data(0, 1000);
        assert!(rb.sack_blocks().is_empty());
    }

    #[test]
    fn read_caps_at_available() {
        let mut rb = ReceiveBuffer::new(10_000);
        rb.on_data(0, 100);
        assert_eq!(rb.read(1_000), 100);
        assert_eq!(rb.read(1_000), 0);
    }

    #[test]
    fn fin_in_order_advances_ack() {
        let mut rb = ReceiveBuffer::new(10_000);
        rb.on_data(0, 1000);
        assert!(rb.on_fin(1000));
        assert_eq!(rb.ack_no(), 1001);
        assert!(!rb.at_eof(), "unread data pending");
        rb.read(1000);
        assert!(rb.at_eof());
    }

    #[test]
    fn fin_out_of_order_waits_for_data() {
        let mut rb = ReceiveBuffer::new(10_000);
        assert!(!rb.on_fin(1000));
        assert_eq!(rb.ack_no(), 0);
        rb.on_data(0, 1000);
        assert!(rb.at_eof() || rb.available() > 0);
        assert_eq!(rb.ack_no(), 1001);
    }

    /// Delivering segments in any order yields the same total stream:
    /// after all segments arrive, ack_no equals the stream length and the
    /// application can read every byte exactly once. Deterministic sweep of
    /// seeded Fisher-Yates permutations (formerly a proptest).
    #[test]
    fn any_arrival_order_reassembles() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x5E6_0000 + seed);
            let mut order: Vec<usize> = (0..20).collect();
            for i in (1..order.len()).rev() {
                let j = rng.choose_index(i + 1);
                order.swap(i, j);
            }
            let seg = 500u64;
            let mut rb = ReceiveBuffer::new(100_000);
            let mut total_read = 0;
            for &i in &order {
                rb.on_data(i as u64 * seg, seg as u32);
                total_read += rb.read(u64::MAX);
            }
            assert_eq!(rb.ack_no(), 20 * seg, "seed {seed}: order {order:?}");
            assert_eq!(total_read, 20 * seg, "seed {seed}");
            assert_eq!(rb.window(), 100_000, "seed {seed}");
        }
    }

    /// The advertised window never exceeds capacity and unread bytes
    /// never exceed what was accepted.
    #[test]
    fn window_invariants_random_writes() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x817D_0000 + seed);
            let n = 1 + rng.choose_index(100);
            let mut rb = ReceiveBuffer::new(8_192);
            for _ in 0..n {
                let seq = rng.uniform_u64(0, 5_000);
                let len = rng.uniform_u64(1, 1_500) as u32;
                rb.on_data(seq, len);
                assert!(rb.window() <= rb.capacity, "seed {seed}");
                assert!(rb.available() + rb.window() <= rb.capacity, "seed {seed}");
            }
        }
    }

    /// Everything an outgoing ACK is built from, plus the private SACK
    /// bookkeeping that shapes the *next* ACK.
    fn observable(rb: &mut ReceiveBuffer) -> impl PartialEq + std::fmt::Debug {
        let blocks: Vec<(u64, u64)> = rb.sack_blocks().iter().collect();
        (
            (rb.ack_no(), rb.window(), rb.available(), rb.at_eof()),
            (blocks, rb.sack_blocks().highest_end()),
            (rb.last_insert, rb.sack_rotate, rb.ooo.as_slice().to_vec(), rb.ooo.bytes()),
        )
    }

    /// The in-order fast path is an optimisation, not a behaviour: a buffer
    /// fed through `on_data` and one fed through the general path must be
    /// indistinguishable after every segment, read and FIN — on random
    /// arrival orders with duplicates, a window small enough to clip,
    /// zero-window probes, and the FIN arriving in and out of order.
    #[test]
    fn fast_path_matches_general_path_at_every_step() {
        const MSS: u64 = 1460;
        let mut fast_path_taken = 0u32;
        let mut clipped = 0u32;
        let mut probes_refused = 0u32;
        for seed in 0..96u64 {
            let mut rng = SimRng::new(0xFA57_0000 + seed);
            // Small buffers clip and close the window; large ones let long
            // in-order runs and deep out-of-order maps form.
            let capacity = [3 * MSS + 700, 16 * MSS, 256 * MSS][rng.choose_index(3)];
            let mut fast = ReceiveBuffer::new(capacity);
            let mut general = ReceiveBuffer::new(capacity);
            let stream_len = 60 * MSS + rng.uniform_u64(0, MSS);
            let fin_early = rng.choose_index(4) == 0;
            if fin_early {
                assert_eq!(fast.on_fin(stream_len), general.on_fin(stream_len), "seed {seed}");
            }
            // The sender's view: next new byte, and a pool of segments
            // "in the network" that arrive in a perturbed order.
            let mut snd_nxt = 0u64;
            let mut in_flight: Vec<(u64, u32)> = Vec::new();
            for step in 0..2_000 {
                let ctx = format!("seed {seed} step {step}");
                match rng.choose_index(10) {
                    // Send: the next segment, possibly beyond the window.
                    0..=2 if snd_nxt < stream_len => {
                        let len = MSS.min(stream_len - snd_nxt);
                        in_flight.push((snd_nxt, len as u32));
                        snd_nxt += len;
                    }
                    // Deliver: usually the oldest in flight (in order),
                    // sometimes a random one (reordering); sometimes the
                    // segment stays in flight as well (duplicate).
                    3..=6 if !in_flight.is_empty() => {
                        let i = if rng.choose_index(5) == 0 { rng.choose_index(in_flight.len()) } else { 0 };
                        let (seq, len) = in_flight[i];
                        if rng.choose_index(6) != 0 {
                            in_flight.remove(i);
                        }
                        let seg_end = seq + len as u64;
                        let brings_next_byte = seq <= fast.rcv_nxt && fast.rcv_nxt < seg_end;
                        if fast.ooo.is_empty() && brings_next_byte && fast.window() > 0 {
                            fast_path_taken += 1;
                        }
                        if seg_end > fast.rcv_nxt + fast.window() {
                            clipped += 1;
                        }
                        assert_eq!(fast.on_data(seq, len), general.on_data_general(seq, len), "{ctx}");
                        // Whatever was refused or clipped is sent again.
                        let ack = fast.ack_no().min(stream_len);
                        if ack < seq + len as u64 && !in_flight.iter().any(|s| s.0 <= ack && ack < s.0 + s.1 as u64) {
                            let from = ack.max(seq);
                            in_flight.push((from, (seq + len as u64 - from) as u32));
                        }
                    }
                    // Application read of a random amount.
                    7..=8 => {
                        let max = rng.uniform_u64(0, 6 * MSS);
                        assert_eq!(fast.read(max), general.read(max), "{ctx}");
                    }
                    // Zero-window probe: one byte past a closed window.
                    _ => {
                        if fast.window() == 0 && fast.rcv_nxt < stream_len {
                            let seq = fast.rcv_nxt;
                            assert_eq!(fast.on_data(seq, 1), 0, "{ctx}: probe accepted");
                            assert_eq!(general.on_data_general(seq, 1), 0, "{ctx}");
                            probes_refused += 1;
                        }
                    }
                }
                assert_eq!(observable(&mut fast), observable(&mut general), "{ctx}");
            }
            // Drain: deliver what is left in order, reading as we go, then
            // the FIN in order.
            while fast.rcv_nxt < stream_len {
                let seq = fast.rcv_nxt;
                let len = MSS.min(stream_len - seq) as u32;
                assert_eq!(fast.on_data(seq, len), general.on_data_general(seq, len), "seed {seed} drain");
                assert_eq!(fast.read(u64::MAX), general.read(u64::MAX), "seed {seed} drain");
                assert_eq!(observable(&mut fast), observable(&mut general), "seed {seed} drain");
            }
            if !fin_early {
                assert!(fast.on_fin(stream_len) && general.on_fin(stream_len), "seed {seed}: FIN in order");
            }
            assert_eq!(fast.ack_no(), stream_len + 1, "seed {seed}: FIN consumed its slot");
            assert!(fast.at_eof() && general.at_eof(), "seed {seed}");
            assert_eq!(observable(&mut fast), observable(&mut general), "seed {seed} end");
        }
        assert!(fast_path_taken > 2_000, "fast path barely exercised: {fast_path_taken}");
        assert!(clipped > 1_000, "window clipping barely exercised: {clipped}");
        assert!(probes_refused > 10, "zero-window probes barely exercised: {probes_refused}");
    }
}
