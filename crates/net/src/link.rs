//! Unidirectional link with finite rate, propagation delay, a drop-tail
//! queue, and a pluggable loss model.
//!
//! The transmitter is modelled with a *busy-until* horizon rather than an
//! explicit packet list: if the link is busy until time `B` and a packet of
//! `L` bytes arrives at time `t ≤ B`, the packet starts serializing at `B`
//! and the backlog at `t` is `(B - t) · rate / 8` bytes. This closed form is
//! exact for a FIFO queue and keeps the link O(1) per packet.

use vstream_sim::{SimDuration, SimRng, SimTime};

use crate::loss::LossModel;
use crate::packet::{DropReason, Verdict, Wire};

/// Static configuration of a [`Link`].
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Capacity of the drop-tail queue in bytes (backlog excluding the packet
    /// currently serializing).
    pub queue_capacity_bytes: u64,
    /// Loss process applied to packets that made it through the queue.
    pub loss: LossModel,
}

impl LinkConfig {
    /// A link with the given rate and delay, no loss, and a queue sized at
    /// twice the bandwidth-delay product (min 64 kB) — a common home-router
    /// buffer provisioning rule.
    pub fn new(rate_bps: u64, propagation: SimDuration) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        let bdp_bytes = (rate_bps as u128 * propagation.as_nanos() as u128 / 8 / 1_000_000_000) as u64;
        LinkConfig {
            rate_bps,
            propagation,
            queue_capacity_bytes: (2 * bdp_bytes).max(64 * 1024),
            loss: LossModel::None,
        }
    }

    /// Replaces the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Replaces the queue capacity.
    pub(crate) fn with_queue_capacity(mut self, bytes: u64) -> Self {
        self.queue_capacity_bytes = bytes;
        self
    }
}

/// Counters exported by a link for analysis and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted and delivered.
    pub delivered: u64,
    /// Packets dropped by the queue.
    pub queue_drops: u64,
    /// Packets dropped by the loss model.
    pub random_drops: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Highest backlog observed behind the transmitter when a packet was
    /// offered, in bytes (queue-depth high-water mark).
    pub backlog_hwm_bytes: u64,
}

/// A unidirectional transmission link.
pub struct Link {
    config: LinkConfig,
    /// The transmitter is serializing previously accepted packets until this
    /// instant.
    busy_until: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Creates an idle link.
    pub(crate) fn new(config: LinkConfig) -> Self {
        Link {
            config,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link configuration.
    pub(crate) fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Delivery counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Bytes currently waiting behind the transmitter at time `now`.
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        let waiting = self.busy_until.saturating_duration_since(now);
        // u64 fast path (same result): backlogs are bounded by the queue
        // capacity, so `nanos * rate` only overflows u64 in degenerate
        // configurations; this runs for every offered packet.
        match waiting.as_nanos().checked_mul(self.config.rate_bps) {
            Some(prod) => prod / 8 / 1_000_000_000,
            None => {
                (waiting.as_nanos() as u128 * self.config.rate_bps as u128 / 8 / 1_000_000_000)
                    as u64
            }
        }
    }

    /// Occupies the transmitter with `bytes` of competing (cross) traffic at
    /// time `now`, without delivering anything: the bytes consume
    /// serialization time and queue space exactly like foreign packets
    /// sharing the bottleneck. Used to model transient congestion.
    pub(crate) fn occupy(&mut self, now: SimTime, bytes: u64) {
        let start = self.busy_until.max(now);
        let tx = SimDuration::transmission(bytes.max(1), self.config.rate_bps);
        self.busy_until = start + tx;
    }

    /// Offers a packet to the link at time `now`.
    ///
    /// On success the returned verdict carries the time the packet fully
    /// arrives at the far end (serialization + queueing + propagation).
    pub(crate) fn send<P: Wire>(&mut self, now: SimTime, packet: &P, rng: &mut SimRng) -> Verdict {
        let len = packet.wire_len() as u64;

        // Tail drop: measure the backlog *before* admitting this packet.
        let backlog = self.backlog_bytes(now);
        self.stats.backlog_hwm_bytes = self.stats.backlog_hwm_bytes.max(backlog);
        if backlog + len > self.config.queue_capacity_bytes {
            self.stats.queue_drops += 1;
            return Verdict::Dropped(DropReason::QueueOverflow);
        }

        let start = self.busy_until.max(now);
        let tx = SimDuration::transmission(len, self.config.rate_bps);
        self.busy_until = start + tx;

        // The loss model runs after queueing: a lost packet still occupied
        // the transmitter (it was sent, then lost in flight or corrupted).
        if self.config.loss.should_drop(rng) {
            self.stats.random_drops += 1;
            return Verdict::Dropped(DropReason::RandomLoss);
        }

        self.stats.delivered += 1;
        self.stats.bytes_delivered += len;
        Verdict::Delivered(self.busy_until + self.config.propagation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pkt(u32);
    impl Wire for Pkt {
        fn wire_len(&self) -> u32 {
            self.0
        }
    }

    fn mbps(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn idle_link_delivers_after_tx_plus_prop() {
        let mut link = Link::new(LinkConfig::new(mbps(8), SimDuration::from_millis(10)));
        let mut rng = SimRng::new(1);
        // 1000 bytes at 8 Mbps = 1 ms serialization.
        let v = link.send(SimTime::from_secs(1), &Pkt(1000), &mut rng);
        assert_eq!(
            v,
            Verdict::Delivered(SimTime::from_secs(1) + SimDuration::from_millis(11))
        );
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = Link::new(LinkConfig::new(mbps(8), SimDuration::ZERO));
        let mut rng = SimRng::new(2);
        let t = SimTime::from_secs(1);
        let v1 = link.send(t, &Pkt(1000), &mut rng).delivery_time().unwrap();
        let v2 = link.send(t, &Pkt(1000), &mut rng).delivery_time().unwrap();
        let v3 = link.send(t, &Pkt(1000), &mut rng).delivery_time().unwrap();
        assert_eq!(v2 - v1, SimDuration::from_millis(1));
        assert_eq!(v3 - v2, SimDuration::from_millis(1));
    }

    #[test]
    fn transmitter_drains_over_time() {
        let mut link = Link::new(LinkConfig::new(mbps(8), SimDuration::ZERO));
        let mut rng = SimRng::new(3);
        let t = SimTime::from_secs(1);
        link.send(t, &Pkt(2000), &mut rng);
        assert!(link.backlog_bytes(t) > 0);
        assert_eq!(link.backlog_bytes(t), 2000);
        // After 1 ms, half the packet (1000 bytes) has been serialized.
        assert_eq!(link.backlog_bytes(t + SimDuration::from_millis(1)), 1000);
        assert_eq!(link.backlog_bytes(t + SimDuration::from_millis(2)), 0);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let cfg = LinkConfig::new(mbps(8), SimDuration::ZERO).with_queue_capacity(2500);
        let mut link = Link::new(cfg);
        let mut rng = SimRng::new(4);
        let t = SimTime::from_secs(1);
        assert!(link.send(t, &Pkt(1000), &mut rng).delivery_time().is_some());
        assert!(link.send(t, &Pkt(1000), &mut rng).delivery_time().is_some());
        // Backlog is now 2000 bytes; a third 1000-byte packet exceeds 2500.
        assert_eq!(
            link.send(t, &Pkt(1000), &mut rng),
            Verdict::Dropped(DropReason::QueueOverflow)
        );
        assert_eq!(link.stats().queue_drops, 1);
        // Once the queue drains, the link accepts packets again.
        let later = t + SimDuration::from_secs(1);
        assert!(link.send(later, &Pkt(1000), &mut rng).delivery_time().is_some());
    }

    #[test]
    fn random_loss_counts_and_still_occupies_link() {
        let cfg = LinkConfig::new(mbps(8), SimDuration::ZERO).with_loss(LossModel::every_nth(2));
        let mut link = Link::new(cfg);
        let mut rng = SimRng::new(5);
        let t = SimTime::from_secs(1);
        let v1 = link.send(t, &Pkt(1000), &mut rng);
        let v2 = link.send(t, &Pkt(1000), &mut rng);
        let v3 = link.send(t, &Pkt(1000), &mut rng);
        assert!(v1.delivery_time().is_some());
        assert_eq!(v2, Verdict::Dropped(DropReason::RandomLoss));
        // The lost packet still consumed 1 ms of transmitter time, so the
        // third packet is delivered 2 ms after the first.
        let d1 = v1.delivery_time().unwrap();
        let d3 = v3.delivery_time().unwrap();
        assert_eq!(d3 - d1, SimDuration::from_millis(2));
        assert_eq!(link.stats().random_drops, 1);
        assert_eq!(link.stats().delivered, 2);
    }

    #[test]
    fn default_queue_capacity_is_at_least_64k() {
        let cfg = LinkConfig::new(mbps(1), SimDuration::from_micros(10));
        assert!(cfg.queue_capacity_bytes >= 64 * 1024);
    }

    #[test]
    fn backlog_high_water_mark_tracks_peak() {
        let mut link = Link::new(
            LinkConfig::new(mbps(8), SimDuration::ZERO).with_queue_capacity(100_000),
        );
        let mut rng = SimRng::new(10);
        let t = SimTime::from_secs(1);
        assert_eq!(link.stats().backlog_hwm_bytes, 0);
        link.send(t, &Pkt(1000), &mut rng);
        link.send(t, &Pkt(1000), &mut rng); // offered against a 1000-byte backlog
        link.send(t, &Pkt(1000), &mut rng); // offered against 2000
        assert_eq!(link.stats().backlog_hwm_bytes, 2000);
        // The mark is a maximum: a later idle-link send does not lower it.
        link.send(t + SimDuration::from_secs(1), &Pkt(1000), &mut rng);
        assert_eq!(link.stats().backlog_hwm_bytes, 2000);
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut link = Link::new(LinkConfig::new(mbps(8), SimDuration::ZERO));
        let mut rng = SimRng::new(6);
        link.send(SimTime::ZERO, &Pkt(700), &mut rng);
        link.send(SimTime::ZERO, &Pkt(300), &mut rng);
        assert_eq!(link.stats().bytes_delivered, 1000);
    }

    #[test]
    fn occupy_delays_subsequent_packets() {
        let mut link = Link::new(LinkConfig::new(mbps(8), SimDuration::ZERO));
        let mut rng = SimRng::new(9);
        let t = SimTime::from_secs(1);
        link.occupy(t, 2000); // 2 ms of foreign traffic
        let v = link.send(t, &Pkt(1000), &mut rng).delivery_time().unwrap();
        assert_eq!(v, t + SimDuration::from_millis(3));
    }

    /// Delivery times along a link never decrease, and strictly increase
    /// for non-empty packets, whatever the arrival pattern (FIFO, no
    /// reordering) — with cross traffic occupying the transmitter between
    /// sends, and with or without propagation delay. The engine's FIFO
    /// event lanes rest on this. Deterministic sweep over seeded random
    /// arrival patterns (formerly a proptest).
    #[test]
    fn fifo_no_reordering_random_arrivals() {
        for seed in 0..32u64 {
            let mut gen = SimRng::new(0xF1F0_0000 + seed);
            let n = 1 + gen.choose_index(100);
            // One packet in eight is empty: it takes no serialization time
            // and may share its predecessor's delivery instant.
            let sizes: Vec<u32> = (0..n)
                .map(|_| if gen.choose_index(8) == 0 { 0 } else { gen.uniform_u64(40, 3000) as u32 })
                .collect();
            let gaps: Vec<u64> = (0..n).map(|_| gen.uniform_u64(0, 2_000_000)).collect();
            let propagation = if seed % 2 == 0 { SimDuration::from_millis(5) } else { SimDuration::ZERO };
            let mut link = Link::new(LinkConfig::new(10_000_000, propagation)
                .with_queue_capacity(u64::MAX));
            let mut rng = SimRng::new(7);
            let mut now = SimTime::ZERO;
            let mut last_delivery: Option<SimTime> = None;
            for (size, gap) in sizes.iter().zip(gaps.iter()) {
                now += SimDuration::from_nanos(*gap);
                if gen.choose_index(3) == 0 {
                    link.occupy(now, gen.uniform_u64(1, 20_000));
                }
                if let Some(t) = link.send(now, &Pkt(*size), &mut rng).delivery_time() {
                    if let Some(prev) = last_delivery {
                        assert!(t >= prev, "seed {seed}: reordering: {t} < {prev}");
                        assert!(t > prev || *size == 0, "seed {seed}: non-empty packet at {t} <= {prev}");
                    }
                    last_delivery = Some(t);
                }
            }
        }
    }

    /// The backlog never exceeds the configured queue capacity plus one
    /// in-service packet.
    #[test]
    fn backlog_bounded_random_bursts() {
        for seed in 0..32u64 {
            let mut gen = SimRng::new(0xBAC0_0000 + seed);
            let n = 1 + gen.choose_index(200);
            let cap = 10_000u64;
            let mut link = Link::new(
                LinkConfig::new(1_000_000, SimDuration::ZERO).with_queue_capacity(cap));
            let mut rng = SimRng::new(8);
            let now = SimTime::ZERO;
            for _ in 0..n {
                let size = gen.uniform_u64(40, 1600) as u32;
                let _ = link.send(now, &Pkt(size), &mut rng);
                assert!(link.backlog_bytes(now) <= cap + 1600, "seed {seed}");
            }
        }
    }
}
