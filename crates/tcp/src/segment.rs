//! TCP segment descriptors.
//!
//! Payload bytes are never materialized: a segment records *how many* bytes
//! of the stream it carries and at which offset. This is sufficient for
//! every metric in the paper (download-amount evolution, block sizes,
//! receive-window traces, retransmission rates) while keeping the simulator
//! allocation-free on the data path.

use vstream_net::Wire;

/// Combined IP + TCP header overhead in bytes (20 + 20, no options).
pub(crate) const HEADER_BYTES: u32 = 40;

/// Up to three selective-acknowledgement ranges carried in an ACK, mirroring
/// the common on-the-wire limit when the timestamp option is in use.
///
/// Each block is a half-open byte range `[start, end)` that the receiver
/// holds out of order. 2011-era server stacks all negotiated SACK; without
/// it, a burst of losses (e.g. slow-start overshoot of a drop-tail queue)
/// costs one round trip *per lost segment* to repair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackBlocks {
    blocks: [(u64, u64); 3],
    len: u8,
    /// End of the highest out-of-order range the receiver holds. A real
    /// sender accumulates this across many ACKs' SACK options; carrying the
    /// running maximum directly models that accumulated knowledge without
    /// simulating the whole option history. Used for RFC 6675-style pipe
    /// estimation (everything below it is either SACKed or lost).
    highest_end: u64,
}

impl SackBlocks {
    /// No SACK information.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(0, 0); 3],
        len: 0,
        highest_end: 0,
    };

    /// Appends a block if there is room; silently ignores overflow (real
    /// stacks also report only the first few ranges).
    pub fn push(&mut self, start: u64, end: u64) {
        debug_assert!(start < end, "empty SACK block");
        if (self.len as usize) < self.blocks.len() {
            self.blocks[self.len as usize] = (start, end);
            self.len += 1;
        }
    }

    /// The blocks present.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// True if no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks present.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// End of the highest out-of-order range held by the receiver (0 if
    /// none).
    pub fn highest_end(&self) -> u64 {
        self.highest_end
    }

    /// Records the end of the highest out-of-order range.
    pub fn set_highest_end(&mut self, end: u64) {
        self.highest_end = end;
    }

    /// Wire overhead of the SACK option: 2 bytes of kind/length plus 8 per
    /// block, as in RFC 2018 (32-bit edges; our 64-bit offsets are a modeling
    /// convenience).
    pub(crate) fn wire_overhead(&self) -> u32 {
        if self.len == 0 {
            0
        } else {
            2 + 8 * self.len as u32
        }
    }
}

/// A TCP segment on the simulated wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Connection identifier, assigned by the session layer so packet
    /// captures can demultiplex multi-connection streaming sessions.
    pub conn: u32,
    /// First byte offset of the payload within the sender's stream.
    pub seq: u64,
    /// Cumulative acknowledgement: the next byte offset expected from the
    /// peer. Only meaningful when `ack` flag is set.
    pub ack_no: u64,
    /// Advertised receive window in bytes.
    pub window: u64,
    /// Payload length in bytes.
    pub payload: u32,
    /// SYN flag (connection setup).
    pub syn: bool,
    /// FIN flag (sender is done writing).
    pub fin: bool,
    /// ACK flag.
    pub ack: bool,
    /// True if this segment repeats previously transmitted payload. A real
    /// capture infers retransmissions from sequence overlap; the simulator
    /// labels them directly so that tests and statistics are exact.
    pub retx: bool,
    /// Selective acknowledgement blocks (on ACKs from a SACK-enabled
    /// receiver).
    pub sack: SackBlocks,
}

impl Segment {
    /// Offset one past the last payload byte.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload as u64
    }

    /// True if the segment carries stream data.
    pub fn has_payload(&self) -> bool {
        self.payload > 0
    }

    /// A pure ACK (no payload, no SYN/FIN) — window updates and
    /// acknowledgements.
    pub(crate) fn is_pure_ack(&self) -> bool {
        self.ack && !self.syn && !self.fin && self.payload == 0
    }
}

impl Wire for Segment {
    fn wire_len(&self) -> u32 {
        self.payload + HEADER_BYTES + self.sack.wire_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_segment(seq: u64, payload: u32) -> Segment {
        Segment {
            conn: 0,
            seq,
            ack_no: 0,
            window: 65535,
            payload,
            syn: false,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        }
    }

    #[test]
    fn seq_end_spans_payload() {
        let s = data_segment(1000, 1460);
        assert_eq!(s.seq_end(), 2460);
        assert!(s.has_payload());
    }

    #[test]
    fn wire_len_includes_headers() {
        assert_eq!(data_segment(0, 1460).wire_len(), 1500);
        assert_eq!(data_segment(0, 0).wire_len(), 40);
    }

    #[test]
    fn sack_blocks_push_and_iterate() {
        let mut sb = SackBlocks::default();
        assert!(sb.is_empty());
        assert_eq!(sb.wire_overhead(), 0);
        sb.push(100, 200);
        sb.push(300, 400);
        let v: Vec<_> = sb.iter().collect();
        assert_eq!(v, vec![(100, 200), (300, 400)]);
        assert_eq!(sb.wire_overhead(), 2 + 16);
    }

    #[test]
    fn sack_blocks_cap_at_three() {
        let mut sb = SackBlocks::default();
        for i in 0..5 {
            sb.push(i * 100, i * 100 + 50);
        }
        assert_eq!(sb.len(), 3);
    }

    #[test]
    fn wire_len_includes_sack_overhead() {
        let mut s = data_segment(0, 0);
        s.sack.push(10, 20);
        assert_eq!(s.wire_len(), 40 + 10);
    }

    #[test]
    fn pure_ack_classification() {
        let mut s = data_segment(0, 0);
        assert!(s.is_pure_ack());
        s.payload = 1;
        assert!(!s.is_pure_ack());
        s.payload = 0;
        s.fin = true;
        assert!(!s.is_pure_ack());
    }
}
