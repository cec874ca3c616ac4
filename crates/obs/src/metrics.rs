//! Fixed-slot counters, max-merged gauges, and log2-bucketed histograms.
//!
//! A [`Metrics`] registry is a small flat block of `u64`s — one slot per
//! [`Counter`] / [`Gauge`] / [`HistId`] plus a fixed per-network-profile
//! table — cheap enough to live inside every worker's `SessionScratch` and
//! to merge by simple slot-wise reduction. All mutation goes through three
//! inlined methods ([`Metrics::add`], [`Metrics::gauge_max`],
//! [`Metrics::record`]).

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k` holds
/// `[2^(k-1), 2^k)`, and bucket 64 holds `[2^63, u64::MAX]`.
pub const HIST_BUCKETS: usize = 65;

/// Maximum number of per-profile slots a registry carries. The paper has
/// four vantage points; the headroom is for future profiles.
pub const MAX_PROFILES: usize = 8;

/// A log2-bucketed histogram over `u64` values.
///
/// The bucket layout is exact at the edges: 0 is its own bucket, 1 lands in
/// bucket 1, and `u64::MAX` lands in bucket 64 — see
/// [`Hist::bucket_of`] / [`Hist::bucket_range`]. `sum` wraps on overflow
/// (only reachable after ~2^64 recorded bytes), which keeps `record` free
/// of branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Hist {
    /// An empty histogram.
    pub const fn new() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index for `v`: 0 for 0, otherwise `⌊log2 v⌋ + 1`.
    #[inline]
    pub const fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The inclusive `[lo, hi]` value range of bucket `k`.
    pub const fn bucket_range(k: usize) -> (u64, u64) {
        match k {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (k - 1), (1 << k) - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise sum with `other` (commutative and associative).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(k, &c)| (k, c))
    }
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

/// Defines a fixed-slot id enum with stable snake_case ledger names.
macro_rules! slots {
    ($(#[$outer:meta])* $kind:ident { $($(#[$doc:meta])* $variant:ident => $name:literal,)+ }) => {
        $(#[$outer])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $kind { $($(#[$doc])* $variant,)+ }

        impl $kind {
            /// Number of slots.
            pub const COUNT: usize = [$($kind::$variant),+].len();
            /// Every slot, in declaration order.
            pub const ALL: [$kind; Self::COUNT] = [$($kind::$variant),+];

            /// The stable ledger key of this slot.
            pub const fn name(self) -> &'static str {
                match self { $($kind::$variant => $name,)+ }
            }
        }
    };
}

slots! {
    /// Sum-merged event counters, one slot per instrumented quantity.
    Counter {
        /// Sessions completed (one per `Engine` run that was recycled).
        SimSessions => "sim_sessions",
        /// Events pushed onto the event queue, across all sessions.
        SimEventsScheduled => "sim_events_scheduled",
        /// Compatibility key: never incremented, always 0. The timing wheel
        /// it counted is gone, but `benchmark/run.py --trace 1` indexes this
        /// key for `sim.wheel_spill_ratio` and nothing under `benchmark/`
        /// may change with the queue; ROADMAP item 2(i) deletes key and
        /// metric together.
        SimWheelSpillPushes => "sim_wheel_spill_pushes",
        /// Events appended to a FIFO lane beside the timer heap (packets in flight).
        SimLanePushes => "sim_lane_pushes",
        /// FIFO-lane pushes that arrived out of order and took the timer heap instead.
        SimLaneFallbacks => "sim_lane_fallbacks",
        /// Sessions built from a `SessionScratch` (fresh or recycled).
        SimScratchUses => "sim_scratch_uses",
        /// Sessions whose scratch had already run a session (allocation reuse).
        SimScratchReuseHits => "sim_scratch_reuse_hits",
        /// Packets tail-dropped by a link queue.
        NetQueueDrops => "net_queue_drops",
        /// Packets dropped by a link's loss model.
        NetRandomDrops => "net_random_drops",
        /// Packets delivered end to end.
        NetPacketsDelivered => "net_packets_delivered",
        /// Wire bytes delivered end to end.
        NetBytesDelivered => "net_bytes_delivered",
        /// TCP connections opened.
        TcpConnections => "tcp_connections",
        /// Data segments carrying new payload.
        TcpDataSegmentsSent => "tcp_data_segments_sent",
        /// New payload bytes sent.
        TcpDataBytesSent => "tcp_data_bytes_sent",
        /// Retransmitted segments.
        TcpRetxSegments => "tcp_retx_segments",
        /// Retransmitted payload bytes.
        TcpRetxBytes => "tcp_retx_bytes",
        /// Pure ACK segments sent.
        TcpAcksSent => "tcp_acks_sent",
        /// Retransmission timeouts fired.
        TcpRtoFires => "tcp_rto_fires",
        /// Fast retransmits triggered.
        TcpFastRetransmits => "tcp_fast_retransmits",
        /// SACK blocks carried on outgoing ACKs.
        TcpSackBlocksSent => "tcp_sack_blocks_sent",
        /// Zero-window probes sent.
        TcpZeroWindowProbes => "tcp_zero_window_probes",
        /// Mid-playback player stalls.
        AppPlayerStalls => "app_player_stalls",
        /// Steady-state blocks written or requested (ON periods).
        AppBlocks => "app_blocks",
        /// Sessions in which playback started.
        AppPlaybackStarted => "app_playback_started",
        /// Packet records written by the capture tap.
        CapturePackets => "capture_packets",
        /// Compatibility key: never incremented, always 0. Trace
        /// pre-sizing is gone (no production session retains a trace), but
        /// `benchmark/run.py --trace 1` indexes this key for
        /// `capture.trace_regrows` and nothing under `benchmark/` may
        /// change with it; ROADMAP item 2(i) deletes key and metric
        /// together.
        CaptureTraceRegrows => "capture_trace_regrows",
        /// Session-cache lookups answered from a previously stored outcome.
        CacheHits => "cache_hits",
        /// Session-cache lookups that had to run the engine.
        CacheMisses => "cache_misses",
        /// Bytes retained by the session cache across the run (the cache is
        /// per-run and never evicts, so inserts accumulate monotonically).
        CacheBytesRetained => "cache_bytes_retained",
    }
}

slots! {
    /// Max-merged high-water marks.
    Gauge {
        /// Peak downlink backlog behind the transmitter, in bytes.
        NetDownBacklogHwmBytes => "net_down_backlog_hwm_bytes",
        /// Peak uplink backlog behind the transmitter, in bytes.
        NetUpBacklogHwmBytes => "net_up_backlog_hwm_bytes",
        /// Peak player buffer occupancy, in bytes.
        AppPeakBufferBytes => "app_peak_buffer_bytes",
        /// Peak number of pending events in any session's queue.
        SimQueuePeakLen => "sim_queue_peak_len",
        /// Peak bytes resident in any session's retained packet trace
        /// (its one packet vector), measured at harvest.
        PeakTraceBytes => "peak_trace_bytes",
        /// Peak bytes resident in any figure's streaming fold state
        /// (per-flow high-water tables, cycle lists, series buffers).
        PeakFlowstateBytes => "peak_flowstate_bytes",
    }
}

slots! {
    /// Log2-bucketed histogram slots.
    HistId {
        /// Events scheduled per session.
        SimSessionEvents => "sim_session_events",
        /// Congestion-window samples (bytes) at each new ACK.
        TcpCwndBytes => "tcp_cwnd_bytes",
        /// Completed player stall durations, in milliseconds.
        AppStallMs => "app_stall_ms",
        /// Startup delay per started session, in milliseconds.
        AppStartupDelayMs => "app_startup_delay_ms",
    }
}

impl Counter {
    /// Counters that measure the *execution* (worker count, allocator
    /// warm-up, cache configuration) rather than the simulation: a worker's
    /// first session runs on a cold scratch, so scratch reuse legitimately
    /// varies with `--jobs`, and the session-cache counters vary with
    /// `--no-cache` while the simulated output does not. The collector
    /// zeroes them alongside wall time when byte-comparable ledgers are
    /// requested.
    pub const EXECUTION_DEPENDENT: [Counter; 4] = [
        Counter::SimScratchReuseHits,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheBytesRetained,
    ];
}

impl Gauge {
    /// Gauges that measure the *execution* rather than the simulation: peak
    /// trace residency depends on scratch reuse (worker layout) and on
    /// whether the caller retains traces at all (queries never do), and
    /// fold-state residency is recorded only by queries. The collector
    /// zeroes them alongside wall time when byte-comparable ledgers are
    /// requested.
    pub const EXECUTION_DEPENDENT: [Gauge; 2] = [Gauge::PeakTraceBytes, Gauge::PeakFlowstateBytes];
}

/// Per-network-profile counters, for questions that need the vantage-point
/// dimension (e.g. events per session per base RTT).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileMetrics {
    /// Sessions run on this profile.
    pub sessions: u64,
    /// Events scheduled by those sessions.
    pub events_scheduled: u64,
}

impl ProfileMetrics {
    fn merge(&mut self, other: &ProfileMetrics) {
        self.sessions += other.sessions;
        self.events_scheduled += other.events_scheduled;
    }

    fn is_empty(&self) -> bool {
        self.sessions == 0 && self.events_scheduled == 0
    }
}

/// A per-worker metrics registry: flat slot arrays, no interior sharing.
///
/// Merging two registries ([`Metrics::merge`]) is slot-wise and both
/// commutative and associative, so per-worker registries combine into the
/// same ledger regardless of which worker ran which session or in what
/// order workers finished.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    hists: [Hist; HistId::COUNT],
    profiles: [ProfileMetrics; MAX_PROFILES],
}

impl Metrics {
    /// An all-zero registry.
    pub const fn new() -> Self {
        Metrics {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: [Hist::new(); HistId::COUNT],
            profiles: [ProfileMetrics { sessions: 0, events_scheduled: 0 }; MAX_PROFILES],
        }
    }

    /// Adds `n` to a counter slot.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Raises a gauge slot to `v` if `v` is higher.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g as usize];
        if v > *slot {
            *slot = v;
        }
    }

    /// Records one observation into a histogram slot.
    #[inline]
    pub fn record(&mut self, h: HistId, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Merges a pre-accumulated histogram into a slot (e.g. a per-endpoint
    /// cwnd histogram harvested at session end).
    pub fn merge_hist(&mut self, h: HistId, other: &Hist) {
        self.hists[h as usize].merge(other);
    }

    /// A counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// A gauge's value.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// A histogram slot.
    pub fn hist(&self, h: HistId) -> &Hist {
        &self.hists[h as usize]
    }

    /// The per-profile slot for `idx` (clamped into range).
    pub fn profile_mut(&mut self, idx: usize) -> &mut ProfileMetrics {
        &mut self.profiles[idx.min(MAX_PROFILES - 1)]
    }

    /// The per-profile slot for `idx` (clamped into range).
    pub fn profile(&self, idx: usize) -> &ProfileMetrics {
        &self.profiles[idx.min(MAX_PROFILES - 1)]
    }

    /// True if a profile slot has recorded anything.
    pub fn profile_is_empty(&self, idx: usize) -> bool {
        self.profile(idx).is_empty()
    }

    /// Slot-wise reduction: counters sum, gauges max, histograms add
    /// bucket-wise, profile slots sum.
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        for (a, b) in self.profiles.iter_mut().zip(other.profiles.iter()) {
            a.merge(b);
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(Hist::is_empty)
            && self.profiles.iter().all(ProfileMetrics::is_empty)
    }

    /// Replaces `self` with an empty registry and returns the accumulated
    /// one (the per-worker flush operation).
    pub fn take(&mut self) -> Metrics {
        std::mem::replace(self, Metrics::new())
    }

    /// Zeroes the [`Counter::EXECUTION_DEPENDENT`] and
    /// [`Gauge::EXECUTION_DEPENDENT`] slots, making the registry a pure
    /// function of the session set.
    pub fn clear_execution_dependent(&mut self) {
        for c in Counter::EXECUTION_DEPENDENT {
            self.counters[c as usize] = 0;
        }
        for g in Gauge::EXECUTION_DEPENDENT {
            self.gauges[g as usize] = 0;
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_bucketing_at_u64_edges() {
        // The exact edge cases the log2 layout must get right.
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of((1 << 20) - 1), 20);
        assert_eq!(Hist::bucket_of(1 << 20), 21);
        assert_eq!(Hist::bucket_of(1 << 63), 64);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);

        // Every value lands inside its bucket's advertised range.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, 1 << 62, (1 << 63) - 1, 1 << 63, u64::MAX] {
            let k = Hist::bucket_of(v);
            let (lo, hi) = Hist::bucket_range(k);
            assert!(lo <= v && v <= hi, "v={v} bucket={k} range=({lo},{hi})");
        }

        // Ranges tile the u64 line with no gaps or overlaps.
        let mut expect_lo = 0u64;
        for k in 0..HIST_BUCKETS {
            let (lo, hi) = Hist::bucket_range(k);
            assert_eq!(lo, expect_lo, "bucket {k} does not start where {} ended", k.max(1) - 1);
            assert!(hi >= lo);
            expect_lo = hi.wrapping_add(1);
        }
        assert_eq!(expect_lo, 0, "final bucket must end at u64::MAX");
    }

    #[test]
    fn hist_record_and_stats() {
        let mut h = Hist::new();
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(2)); // wraps by design
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 1), (1, 2), (64, 1)]);
    }

    fn sample_metrics(seed: u64) -> Metrics {
        let mut m = Metrics::new();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for c in Counter::ALL {
            m.add(c, next() % 1000);
        }
        for g in Gauge::ALL {
            m.gauge_max(g, next() % 1_000_000);
        }
        for h in HistId::ALL {
            for _ in 0..8 {
                m.record(h, next());
            }
        }
        for i in 0..MAX_PROFILES {
            let p = m.profile_mut(i);
            p.sessions = next() % 10;
            p.events_scheduled = next() % 100_000;
        }
        m
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (sample_metrics(1), sample_metrics(2), sample_metrics(3));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
    }

    #[test]
    fn take_flushes_and_resets() {
        let mut m = sample_metrics(4);
        assert!(!m.is_empty());
        let taken = m.take();
        assert!(m.is_empty());
        assert!(!taken.is_empty());
    }

    #[test]
    fn slot_names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate slot name");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "non-snake-case slot name {n:?}"
            );
        }
    }
}
