//! Packet abstraction shared by the link and path models.

/// Anything that can be serialized onto a simulated wire.
///
/// The simulator never materializes payload bytes — a packet only needs to
/// report how many bytes it occupies on the wire, which determines its
/// serialization time and queue footprint.
pub trait Wire {
    /// Total on-wire length in bytes, including all protocol headers.
    fn wire_len(&self) -> u32;
}

/// Why a link refused to deliver a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The drop-tail queue in front of the transmitter was full.
    QueueOverflow,
    /// The loss model discarded the packet in flight (models both wire loss
    /// and corruption, which a checksum-validating receiver also discards).
    RandomLoss,
}

/// Outcome of offering a packet to a [`crate::Link`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The packet will arrive at the far end of the link at this time.
    Delivered(vstream_sim::SimTime),
    /// The packet was dropped.
    Dropped(DropReason),
}

impl Verdict {
    /// Delivery time, or `None` if the packet was dropped.
    pub fn delivery_time(self) -> Option<vstream_sim::SimTime> {
        match self {
            Verdict::Delivered(t) => Some(t),
            Verdict::Dropped(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimTime;

    #[test]
    fn verdict_accessors() {
        let ok = Verdict::Delivered(SimTime::from_secs(1));
        assert_eq!(ok.delivery_time(), Some(SimTime::from_secs(1)));

        let bad = Verdict::Dropped(DropReason::RandomLoss);
        assert_eq!(bad.delivery_time(), None);
    }
}
