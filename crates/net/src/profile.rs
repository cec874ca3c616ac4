//! Calibrated vantage-point profiles.
//!
//! Section 4.2 of the paper lists four measurement locations. Each profile
//! below reproduces the stated access rates and, where given, the measured
//! typical throughput and median retransmission rate:
//!
//! | Profile   | Location | Down / Up           | Median retx |
//! |-----------|----------|---------------------|-------------|
//! | Research  | France   | 100 Mbps symmetric (500 Mbps upstream link) | ~0 % |
//! | Residence | France   | 7.7 / 1.2 Mbps (ADSL behind 54 Mbps Wi-Fi)  | 1.02 % |
//! | Academic  | USA      | 100 Mbps symmetric (1 Gbps upstream link)   | 0.76 % |
//! | Home      | USA      | 20 / 3 Mbps (cable, Comcast)                | ~0.1 % |
//!
//! Propagation delays are not stated in the paper; we pick values typical of
//! 2011 paths from the respective locations to a nearby CDN node (France to
//! YouTube edge ≈ 15–30 ms RTT, US campus/home to CDN ≈ 20–30 ms RTT). The
//! traffic *shapes* under study are insensitive to the exact RTT as long as
//! it is small compared to ON/OFF periods, which these are.

use vstream_sim::SimDuration;

use crate::link::LinkConfig;
use crate::loss::LossModel;
use crate::path::DuplexPath;

/// A named measurement vantage point from the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetworkProfile {
    /// 100 Mbps wired, France, behind a 500 Mbps uplink; effectively
    /// loss-free and overprovisioned.
    Research,
    /// 54 Mbps Wi-Fi behind an ADSL router: 7.7 Mbps down / 1.2 Mbps up,
    /// 1.02 % median retransmissions.
    Residence,
    /// 100 Mbps wired, USA, behind a 1 Gbps uplink; 0.76 % median
    /// retransmissions.
    Academic,
    /// 100 Mbps wired behind a Comcast cable modem: 20 Mbps down / 3 Mbps up.
    Home,
}

impl NetworkProfile {
    /// All four vantage points, in the order the paper's figures list them.
    pub const ALL: [NetworkProfile; 4] = [
        NetworkProfile::Research,
        NetworkProfile::Residence,
        NetworkProfile::Academic,
        NetworkProfile::Home,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            NetworkProfile::Research => "Research",
            NetworkProfile::Residence => "Residence",
            NetworkProfile::Academic => "Academic",
            NetworkProfile::Home => "Home",
        }
    }

    /// Downlink rate in bits per second.
    pub fn down_bps(self) -> u64 {
        match self {
            NetworkProfile::Research => 100_000_000,
            NetworkProfile::Residence => 7_700_000,
            NetworkProfile::Academic => 100_000_000,
            NetworkProfile::Home => 20_000_000,
        }
    }

    /// Uplink rate in bits per second.
    pub(crate) fn up_bps(self) -> u64 {
        match self {
            NetworkProfile::Research => 100_000_000,
            NetworkProfile::Residence => 1_200_000,
            NetworkProfile::Academic => 100_000_000,
            NetworkProfile::Home => 3_000_000,
        }
    }

    /// One-way propagation delay to the streaming server.
    pub fn one_way_delay(self) -> SimDuration {
        match self {
            NetworkProfile::Research => SimDuration::from_millis(15),
            NetworkProfile::Residence => SimDuration::from_millis(30),
            NetworkProfile::Academic => SimDuration::from_millis(10),
            NetworkProfile::Home => SimDuration::from_millis(13),
        }
    }

    /// Downlink packet-loss probability, calibrated so the simulated TCP
    /// retransmission rate matches the paper's reported medians.
    pub(crate) fn loss_probability(self) -> f64 {
        match self {
            NetworkProfile::Research => 0.0001,
            NetworkProfile::Residence => 0.0102,
            NetworkProfile::Academic => 0.0076,
            NetworkProfile::Home => 0.001,
        }
    }

    /// Builds the duplex path for this vantage point.
    ///
    /// Loss is applied on the downlink only: it carries all the video bytes,
    /// and a lost ACK is almost always covered by the next cumulative ACK, so
    /// uplink loss has no visible effect on the studied metrics. Queues hold
    /// 100 ms of line rate (a typical 2011 router provisioning rule), so a
    /// slow-start overshoot drops a burst rather than an avalanche.
    pub fn build_path(self) -> DuplexPath {
        let queue = |bps: u64| (bps / 8 / 10).max(64 * 1024); // 100 ms of buffering
        let down = LinkConfig::new(self.down_bps(), self.one_way_delay())
            .with_queue_capacity(queue(self.down_bps()))
            .with_loss(LossModel::bernoulli(self.loss_probability()));
        let up = LinkConfig::new(self.up_bps(), self.one_way_delay())
            .with_queue_capacity(queue(self.up_bps()));
        DuplexPath::new(down, up)
    }
}

impl std::fmt::Display for NetworkProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_build() {
        for p in NetworkProfile::ALL {
            let path = p.build_path();
            assert!(path.base_rtt() > SimDuration::ZERO, "{p}");
        }
    }

    #[test]
    fn residence_is_asymmetric_adsl() {
        assert_eq!(NetworkProfile::Residence.down_bps(), 7_700_000);
        assert_eq!(NetworkProfile::Residence.up_bps(), 1_200_000);
    }

    #[test]
    fn loss_ordering_matches_paper() {
        // Residence (1.02 %) > Academic (0.76 %) > Home > Research.
        let l = |p: NetworkProfile| p.loss_probability();
        assert!(l(NetworkProfile::Residence) > l(NetworkProfile::Academic));
        assert!(l(NetworkProfile::Academic) > l(NetworkProfile::Home));
        assert!(l(NetworkProfile::Home) > l(NetworkProfile::Research));
    }

    #[test]
    fn labels_match_figure_legends() {
        let labels: Vec<&str> = NetworkProfile::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["Research", "Residence", "Academic", "Home"]);
    }

    #[test]
    fn every_profile_can_stream_hd() {
        // The paper assumes overprovisioning relative to encoding rates up to
        // 4.8 Mbps; every profile's downlink exceeds that.
        for p in NetworkProfile::ALL {
            assert!(p.down_bps() > 4_800_000, "{p} cannot stream HD");
        }
    }
}
