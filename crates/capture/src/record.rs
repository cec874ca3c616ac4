//! A single captured packet.

use vstream_sim::SimTime;
use vstream_tcp::Segment;

/// Direction of a packet relative to the capture point (the client machine,
/// where the paper ran tcpdump).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TapDirection {
    /// Server to client: video data, SYN-ACKs, the server's FIN.
    Incoming,
    /// Client to server: requests, ACKs, window updates.
    Outgoing,
}

/// One packet as seen on the client's interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRecord {
    /// Capture timestamp (arrival time for incoming, send time for
    /// outgoing).
    pub at: SimTime,
    /// Direction relative to the client.
    pub dir: TapDirection,
    /// The captured segment.
    pub seg: Segment,
}

impl PacketRecord {
    /// True if this packet carries video payload toward the client.
    pub fn is_incoming_data(&self) -> bool {
        self.dir == TapDirection::Incoming && self.seg.has_payload()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_tcp::SackBlocks;

    fn seg(payload: u32) -> Segment {
        Segment {
            conn: 0,
            seq: 0,
            ack_no: 0,
            window: 1000,
            payload,
            syn: false,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        }
    }

    #[test]
    fn incoming_data_classification() {
        let data = PacketRecord {
            at: SimTime::ZERO,
            dir: TapDirection::Incoming,
            seg: seg(1460),
        };
        assert!(data.is_incoming_data());
        let ack = PacketRecord {
            at: SimTime::ZERO,
            dir: TapDirection::Outgoing,
            seg: seg(0),
        };
        assert!(!ack.is_incoming_data());
    }
}
