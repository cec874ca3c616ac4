//! A bidirectional end-to-end path between a client and a server.

use vstream_sim::{SimRng, SimTime};

use crate::cross::{CrossSources, CrossTraffic};
use crate::link::{Link, LinkConfig};
use crate::packet::{Verdict, Wire};

/// Direction of travel on a [`DuplexPath`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Server to client (the video content direction).
    Down,
    /// Client to server (requests and ACKs).
    Up,
}

/// Two independent [`Link`]s forming a full-duplex path.
///
/// The downlink carries video data, the uplink carries requests and ACKs.
/// Asymmetric configurations (ADSL, cable) give the two directions different
/// rates, as on the paper's Residence and Home networks. A path may also
/// carry [`CrossTraffic`] on its downlink, generated by the path itself.
pub struct DuplexPath {
    down: Link,
    up: Link,
    cross: CrossSources,
}

impl DuplexPath {
    /// Builds a path from per-direction link configurations, with no
    /// competing traffic.
    pub fn new(down: LinkConfig, up: LinkConfig) -> Self {
        DuplexPath {
            down: Link::new(down),
            up: Link::new(up),
            cross: CrossSources::None,
        }
    }

    /// The same path with `traffic` competing on its downlink. LRD sources
    /// draw from streams derived from `seed`; bursts ignore it and draw from
    /// the RNG passed to [`Self::cross_starts`] and [`Self::cross_tick`].
    pub fn with_cross_traffic(mut self, traffic: CrossTraffic, seed: u64) -> Self {
        self.set_cross_traffic(traffic, seed);
        self
    }

    /// [`Self::with_cross_traffic`] in place.
    pub fn set_cross_traffic(&mut self, traffic: CrossTraffic, seed: u64) {
        self.cross = CrossSources::new(traffic, seed);
    }

    /// The first tick of each cross-traffic source, by source index; empty
    /// without competing traffic. Answer each with [`Self::cross_tick`].
    pub fn cross_starts<'a>(&'a mut self, rng: &mut SimRng) -> impl Iterator<Item = SimTime> + 'a {
        self.cross.starts(rng)
    }

    /// Cross-traffic source `src` ticks at `now`: its bytes occupy the
    /// downlink, and the answer is when it ticks next.
    pub fn cross_tick(&mut self, src: u32, now: SimTime, rng: &mut SimRng) -> SimTime {
        let (bytes, next) = self.cross.tick(src, now, rng);
        self.down.occupy(now, bytes);
        next
    }

    /// Offers a packet in the given direction.
    pub fn send<P: Wire>(&mut self, dir: Direction, now: SimTime, packet: &P, rng: &mut SimRng) -> Verdict {
        match dir {
            Direction::Down => self.down.send(now, packet, rng),
            Direction::Up => self.up.send(now, packet, rng),
        }
    }

    /// The link carrying the given direction.
    pub fn link(&self, dir: Direction) -> &Link {
        match dir {
            Direction::Down => &self.down,
            Direction::Up => &self.up,
        }
    }

    /// Round-trip propagation delay (down + up), excluding serialization.
    pub fn base_rtt(&self) -> vstream_sim::SimDuration {
        self.down.config().propagation + self.up.config().propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimDuration;

    struct Pkt(u32);
    impl Wire for Pkt {
        fn wire_len(&self) -> u32 {
            self.0
        }
    }

    fn asymmetric_path() -> DuplexPath {
        DuplexPath::new(
            LinkConfig::new(8_000_000, SimDuration::from_millis(10)),
            LinkConfig::new(1_000_000, SimDuration::from_millis(10)),
        )
    }

    #[test]
    fn directions_are_independent() {
        let mut path = asymmetric_path();
        let mut rng = SimRng::new(1);
        let t = SimTime::from_secs(1);
        // Saturate the downlink; the uplink must stay idle.
        for _ in 0..10 {
            path.send(Direction::Down, t, &Pkt(1000), &mut rng);
        }
        assert_eq!(path.link(Direction::Up).backlog_bytes(t), 0);
        assert!(path.link(Direction::Down).backlog_bytes(t) > 0);
    }

    #[test]
    fn asymmetric_rates_apply() {
        let mut path = asymmetric_path();
        let mut rng = SimRng::new(2);
        let t = SimTime::from_secs(1);
        let down = path.send(Direction::Down, t, &Pkt(1000), &mut rng).delivery_time().unwrap();
        let up = path.send(Direction::Up, t, &Pkt(1000), &mut rng).delivery_time().unwrap();
        // 1000 B: 1 ms at 8 Mbps, 8 ms at 1 Mbps; both plus 10 ms propagation.
        assert_eq!(down, t + SimDuration::from_millis(11));
        assert_eq!(up, t + SimDuration::from_millis(18));
    }

    #[test]
    fn base_rtt_sums_propagation() {
        let path = asymmetric_path();
        assert_eq!(path.base_rtt(), SimDuration::from_millis(20));
    }
}
