//! The streaming-session engine.
//!
//! [`Engine`] owns the simulated world of one streaming session: the network
//! path, any number of TCP connections between the client machine and the
//! streaming server, a packet-capture tap at the client (the simulated
//! tcpdump), and the future-event list. Strategy behaviour is supplied by a
//! [`SessionLogic`] implementation, which the engine calls back when
//! connections establish, data arrives, streams end, or application timers
//! fire.
//!
//! Like the paper's measurements, a session runs until a configured capture
//! deadline (the authors captured 180 s per video) or until the logic calls
//! [`Engine::stop`].

use vstream_capture::{NullSink, PacketSink, TapDirection, TapPacket, Tee, Trace};
use vstream_net::cross::LRD_SOURCES;
use vstream_net::{Direction, DuplexPath, LrdCrossConfig};
use vstream_obs::{collector, Counter, Gauge, HistId, Metrics};
use vstream_sim::{derive_seed, EventQueue, QueueStats, SimDuration, SimRng, SimTime};
use vstream_tcp::segment::SackBlocks;
use vstream_tcp::{Endpoint, EndpointStats, Role, Segment, TcpConfig};

/// Which endpoint of a connection pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Client,
    Server,
}

/// [`EventQueue::schedule_fifo`] lane of each link direction: deliveries
/// over one FIFO link are scheduled in non-decreasing time order.
const DOWN_LANE: usize = 0;
const UP_LANE: usize = 1;

/// A session's future events. Packet deliveries are 94.6 % of them and sit
/// on the queue's FIFO lanes, so the enum is kept to 48 bytes and a queue
/// entry `(SimTime, u64, Event)` to one 64-byte cache line (DESIGN §7.1): a
/// delivery carries a [`QueuedSegment`], not the 104-byte [`Segment`].
enum Event {
    DeliverToClient(QueuedSegment),
    DeliverToServer(QueuedSegment),
    TcpTick { conn: u32, side: Side },
    AppTimer { id: u32 },
    CrossBurst,
    LrdTick { src: u32 },
}

/// [`QueuedSegment::sack`] of a segment whose SACK option is empty.
const NO_SACK: u32 = u32::MAX;

const FLAG_SYN: u8 = 1;
const FLAG_FIN: u8 = 2;
const FLAG_ACK: u8 = 4;
const FLAG_RETX: u8 = 8;

/// A [`Segment`] as it waits in the event queue: every field but the SACK
/// option, which is empty on almost every packet and would be 64 of its
/// bytes. A non-empty option waits in the session's [`SackSlab`] instead,
/// named by slot.
#[derive(Clone, Copy)]
struct QueuedSegment {
    seq: u64,
    ack_no: u64,
    window: u64,
    conn: u32,
    payload: u32,
    /// Slot of the SACK option in the session's [`SackSlab`], or [`NO_SACK`].
    sack: u32,
    /// `syn`, `fin`, `ack` and `retx` as `FLAG_*` bits.
    flags: u8,
}

impl QueuedSegment {
    /// Queues `seg`, parking a non-empty SACK option in `sacks`.
    #[inline]
    fn stash(seg: &Segment, sacks: &mut SackSlab) -> Self {
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        QueuedSegment {
            seq: seg.seq,
            ack_no: seg.ack_no,
            window: seg.window,
            conn: seg.conn,
            payload: seg.payload,
            sack: if seg.sack == SackBlocks::EMPTY { NO_SACK } else { sacks.insert(seg.sack) },
            flags: flag(seg.syn, FLAG_SYN)
                | flag(seg.fin, FLAG_FIN)
                | flag(seg.ack, FLAG_ACK)
                | flag(seg.retx, FLAG_RETX),
        }
    }

    /// The segment as it was stashed; its SACK slot goes back to `sacks`.
    #[inline]
    fn restore(self, sacks: &mut SackSlab) -> Segment {
        Segment {
            conn: self.conn,
            seq: self.seq,
            ack_no: self.ack_no,
            window: self.window,
            payload: self.payload,
            syn: self.flags & FLAG_SYN != 0,
            fin: self.flags & FLAG_FIN != 0,
            ack: self.flags & FLAG_ACK != 0,
            retx: self.flags & FLAG_RETX != 0,
            sack: if self.sack == NO_SACK { SackBlocks::EMPTY } else { sacks.remove(self.sack) },
        }
    }
}

/// The SACK options of the queued segments that carry one, kept out of line
/// because most segments carry none (DESIGN §7.1): a slot is taken when a
/// link accepts the segment and freed when its delivery pops.
#[derive(Default)]
struct SackSlab {
    slots: Vec<SackBlocks>,
    /// Slots no queued segment holds, reused last-freed first.
    free: Vec<u32>,
}

impl SackSlab {
    fn insert(&mut self, sack: SackBlocks) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = sack;
            return slot;
        }
        // The slab never holds more options than packets are queued, a few
        // hundred at the busiest, so `NO_SACK` is never a real slot.
        let slot = self.slots.len() as u32;
        self.slots.push(sack);
        slot
    }

    fn remove(&mut self, slot: u32) -> SackBlocks {
        self.free.push(slot);
        self.slots[slot as usize]
    }

    /// Frees every slot, keeping the allocations.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Slots held by queued segments.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Competing traffic sharing the downlink bottleneck: bursts with
/// exponentially distributed sizes and inter-arrival times. Models the
/// transient congestion the paper's §3 says the buffering phase guards
/// against, for the accumulation-ratio resilience experiments.
#[derive(Clone, Debug)]
pub struct CrossTraffic {
    /// Mean interval between bursts.
    pub mean_period: SimDuration,
    /// Mean burst size in bytes.
    pub mean_burst_bytes: u64,
}

impl CrossTraffic {
    /// Average offered load in bits per second.
    pub fn mean_load_bps(&self) -> f64 {
        self.mean_burst_bytes as f64 * 8.0 / self.mean_period.as_secs_f64()
    }
}

/// One heavy-tailed on/off source of the LRD aggregate (state machine of
/// [`LrdCrossConfig`]): Pareto-distributed ON periods emitted as peak-rate
/// chunks, exponential OFF gaps. Each source owns a private RNG derived
/// from the session seed and the source index, so the aggregate never
/// perturbs the engine's main random stream — adding or removing LRD
/// traffic must not reshuffle the loss pattern of the video flow itself.
struct LrdSource {
    rng: SimRng,
    /// End of the current ON period; a tick at or past this instant opens
    /// the next ON period (it was scheduled after an OFF gap).
    on_until: SimTime,
}

struct LrdState {
    cfg: LrdCrossConfig,
    sources: Vec<LrdSource>,
}

/// ON periods are emitted in peak-rate chunks of this length, so a burst
/// occupies the bottleneck progressively rather than as one packet-queue
/// spike — matching how a competing TCP/UDP flow would actually drain.
const LRD_CHUNK: SimDuration = SimDuration::from_millis(20);

/// Seed-derivation tag for per-source LRD RNG streams.
const LRD_SEED_TAG: u64 = 0x1BD0;

struct Conn {
    client: Endpoint,
    server: Endpoint,
    tick_scheduled: [Option<SimTime>; 2],
    established_notified: bool,
    eof_notified: bool,
}

/// Reusable per-worker allocations for back-to-back sessions.
///
/// A session's hot-path allocations — the event queue's lane and heap
/// storage, the slab of queued SACK options and the segment buffer the
/// endpoints emit into — reach a steady-state size within the first
/// simulated seconds. When a worker runs many sessions (every figure does),
/// constructing each [`Engine`] via [`Engine::with_scratch`] and recycling
/// the scratch from [`Engine::into_parts`] replaces per-session
/// allocation/doubling with reuse of the previous session's high-water
/// capacities.
///
/// The scratch carries **capacity only, never state**: the queue is reset
/// and the slab and segment buffer cleared, so results are bit-identical
/// whether a scratch is new, reused, or absent — the determinism suite
/// checks exactly this across `--jobs` counts. It carries no
/// trace-capacity hint: no session of `repro` retains a trace, and one that
/// does (`SessionSpec::run`) grows it by doubling.
/// The scratch also carries the worker's [`Metrics`] registry: each session
/// harvested by [`Engine::into_parts`] folds its telemetry in, and the batch
/// executor flushes the accumulated registry to the `vstream-obs` collector
/// once per worker. Metrics flow strictly out of the simulation — nothing
/// ever reads them back — so this does not violate the capacity-only rule.
pub struct SessionScratch {
    queue: EventQueue<Event>,
    sacks: SackSlab,
    seg_buf: Vec<Segment>,
    metrics: Metrics,
    /// True once a session has run on this scratch (drives the
    /// allocation-reuse hit-rate metric).
    used: bool,
}

impl SessionScratch {
    /// A fresh scratch, its event queue pre-sized for 1024 pending events.
    pub fn new() -> Self {
        SessionScratch {
            // Sessions peak at 723–1087 pending events (the
            // `sim.queue_peak_len` gauge over the benchmark workloads and
            // `repro all`), all but a few tens of them packets in flight on
            // the queue's two FIFO lanes. 1024 entries split over the lanes
            // cover all but the busiest: two 32 KiB rings of 64-byte
            // entries, plus 4 KiB for the 64-entry heap that holds the
            // timers. A scratch is built per worker per batch, so each
            // allocation stays below glibc's 128 KiB mmap threshold (no
            // map/fault/unmap per batch); a session that peaks higher
            // doubles a lane once and the scratch keeps it. The SACK slab
            // starts empty: only lossy sessions use it, and it grows to
            // the SACK-carrying packets they hold in flight at once.
            queue: EventQueue::with_capacity(1024),
            sacks: SackSlab::default(),
            seg_buf: Vec::with_capacity(64),
            metrics: Metrics::new(),
            used: false,
        }
    }

    /// The telemetry accumulated by sessions run on this scratch.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access for callers that harvest session-level quantities
    /// (player stats, strategy block counts) after [`Engine::into_parts`].
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Flushes the accumulated registry to the process-wide `vstream-obs`
    /// collector (a no-op when no ledger was requested) and resets it.
    pub fn flush_metrics(&mut self) {
        collector::merge(&self.metrics.take());
    }
}

impl Default for SessionScratch {
    /// An *empty* scratch — no pre-sized buffers. This is what
    /// `std::mem::take` leaves behind while an engine borrows the real
    /// scratch, so it must cost (almost) nothing to build; use
    /// [`SessionScratch::new`] when the scratch will actually run sessions.
    fn default() -> Self {
        SessionScratch {
            queue: EventQueue::new(),
            sacks: SackSlab::default(),
            seg_buf: Vec::new(),
            metrics: Metrics::new(),
            used: false,
        }
    }
}

/// Strategy callbacks. All methods default to doing nothing, so a logic
/// implements only what it needs.
pub trait SessionLogic {
    /// The session begins: open connections, arm timers.
    fn on_start(&mut self, eng: &mut Engine);
    /// Both sides of `conn` completed the handshake.
    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        let _ = (eng, conn);
    }
    /// The client has unread data on `conn`.
    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        let _ = (eng, conn);
    }
    /// The server's FIN arrived in order on `conn` and all data was read.
    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        let _ = (eng, conn);
    }
    /// An application timer armed with [`Engine::schedule_app_timer`] fired.
    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        let _ = (eng, id);
    }
}

/// The simulated world of one streaming session.
pub struct Engine {
    queue: EventQueue<Event>,
    /// The SACK options of the segments queued for delivery.
    sacks: SackSlab,
    path: DuplexPath,
    rng: SimRng,
    trace: Trace,
    conns: Vec<Conn>,
    limit: SimTime,
    stopped: bool,
    cross_traffic: Option<CrossTraffic>,
    lrd_cross: Option<LrdState>,
    /// Staging buffer the endpoints emit segments into; taken out of the
    /// engine around each `_into` call and drained by the transmit helpers.
    seg_buf: Vec<Segment>,
    /// The worker's telemetry registry, borrowed from the scratch for the
    /// session's lifetime and harvested into by [`Engine::into_parts`].
    metrics: Metrics,
    /// Whether the scratch this engine was built from had run a session.
    scratch_was_used: bool,
    /// Staging row for packets tapped where the streaming sink is out of
    /// reach — inside a [`SessionLogic`] callback, which holds the engine
    /// but not the sink: filled by [`Engine::tap_staged`], drained to the
    /// sink in capture order when the callback's event ends.
    tap_buf: Vec<TapPacket>,
    /// Packets seen by the tap.
    packets_tapped: u64,
}

impl Engine {
    /// Creates an engine over `path` that captures until `capture_limit`.
    pub fn new(path: DuplexPath, seed: u64, capture_limit: SimDuration) -> Self {
        Self::with_scratch(path, seed, capture_limit, SessionScratch::new())
    }

    /// Like [`Engine::new`], but reusing the allocations of a previous
    /// session's [`SessionScratch`] (see [`Engine::into_parts`]). The
    /// scratch contributes only capacity: the queue is reset and the SACK
    /// slab and segment buffer cleared, so the session's behaviour is
    /// identical to one built with [`Engine::new`].
    pub fn with_scratch(
        path: DuplexPath,
        seed: u64,
        capture_limit: SimDuration,
        scratch: SessionScratch,
    ) -> Self {
        let SessionScratch {
            mut queue,
            mut sacks,
            mut seg_buf,
            metrics,
            used,
        } = scratch;
        queue.reset();
        sacks.clear();
        seg_buf.clear();
        Engine {
            queue,
            sacks,
            path,
            rng: SimRng::new(seed),
            // Empty until a retaining run stores its capture here.
            trace: Trace::new(),
            conns: Vec::new(),
            limit: SimTime::ZERO + capture_limit,
            stopped: false,
            cross_traffic: None,
            lrd_cross: None,
            seg_buf,
            metrics,
            scratch_was_used: used,
            tap_buf: Vec::new(),
            packets_tapped: 0,
        }
    }

    /// Adds competing cross traffic on the downlink for the whole session.
    ///
    /// # Panics
    /// Panics if called after [`Engine::run`] has started processing events.
    pub fn set_cross_traffic(&mut self, ct: CrossTraffic) {
        assert!(
            self.now() == SimTime::ZERO,
            "cross traffic must be configured before the session runs"
        );
        self.cross_traffic = Some(ct);
    }

    /// Adds a long-range-dependent cross-traffic aggregate on the downlink:
    /// [`LRD_SOURCES`] superposed Pareto-ON / exponential-OFF sources. Each
    /// source's randomness comes from `derive_seed(seed, [tag, index])`, so
    /// the aggregate is a pure function of `(cfg, seed)` — identical across
    /// `--jobs` counts and cache on/off — and the engine's
    /// main RNG (packet loss, strategy jitter) is untouched. A zero-peak
    /// aggregate offers no load and schedules nothing: the session is the
    /// cross-free one.
    ///
    /// # Panics
    /// Panics if called after [`Engine::run`] has started processing events.
    pub fn set_lrd_cross_traffic(&mut self, cfg: LrdCrossConfig, seed: u64) {
        assert!(
            self.now() == SimTime::ZERO,
            "LRD cross traffic must be configured before the session runs"
        );
        if cfg.peak_bps == 0 {
            return;
        }
        let sources = (0..LRD_SOURCES)
            .map(|i| LrdSource {
                rng: SimRng::new(derive_seed(seed, &[LRD_SEED_TAG, i as u64])),
                on_until: SimTime::ZERO,
            })
            .collect();
        self.lrd_cross = Some(LrdState { cfg, sources });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The randomness source (for strategies that add jitter).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Stops the session at the current instant (user closed the player).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// The capture a retaining run ([`Engine::run`], or
    /// [`Engine::run_observed`] with `keep_trace`) stored when it returned.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the engine, returning the capture and a [`SessionScratch`]
    /// holding this session's allocations for the next one.
    ///
    /// When a metrics ledger is active, the session's telemetry — queue,
    /// path, endpoint, and capture counters — is harvested into the
    /// scratch's registry here, once per session, never on the event loop.
    pub fn into_parts(mut self) -> (Trace, SessionScratch) {
        if collector::is_active() {
            self.harvest_metrics();
        }
        let scratch = SessionScratch {
            queue: self.queue,
            sacks: self.sacks,
            seg_buf: self.seg_buf,
            metrics: self.metrics,
            used: true,
        };
        (self.trace, scratch)
    }

    /// Folds everything this session's components counted into the worker
    /// registry. Pure observation: reads stats, writes metrics, mutates no
    /// simulation state.
    fn harvest_metrics(&mut self) {
        let m = &mut self.metrics;
        m.add(Counter::SimSessions, 1);
        m.add(Counter::SimScratchUses, 1);
        if self.scratch_was_used {
            m.add(Counter::SimScratchReuseHits, 1);
        }

        let q: &QueueStats = self.queue.stats();
        m.add(Counter::SimEventsScheduled, q.scheduled);
        m.add(Counter::SimLanePushes, q.lane_pushes);
        m.add(Counter::SimLaneFallbacks, q.lane_fallbacks);
        m.gauge_max(Gauge::SimQueuePeakLen, q.peak_len);
        m.record(HistId::SimSessionEvents, q.scheduled);

        let down = self.path.link(Direction::Down).stats();
        let up = self.path.link(Direction::Up).stats();
        m.add(Counter::NetQueueDrops, down.queue_drops + up.queue_drops);
        m.add(Counter::NetRandomDrops, down.random_drops + up.random_drops);
        m.add(Counter::NetPacketsDelivered, down.delivered + up.delivered);
        m.add(Counter::NetBytesDelivered, down.bytes_delivered + up.bytes_delivered);
        m.gauge_max(Gauge::NetDownBacklogHwmBytes, down.backlog_hwm_bytes);
        m.gauge_max(Gauge::NetUpBacklogHwmBytes, up.backlog_hwm_bytes);

        for conn in &self.conns {
            m.add(Counter::TcpConnections, 1);
            for stats in [conn.client.stats(), conn.server.stats()] {
                m.add(Counter::TcpDataSegmentsSent, stats.data_segments_sent);
                m.add(Counter::TcpDataBytesSent, stats.data_bytes_sent);
                m.add(Counter::TcpRetxSegments, stats.retx_segments);
                m.add(Counter::TcpRetxBytes, stats.retx_bytes);
                m.add(Counter::TcpAcksSent, stats.acks_sent);
                m.add(Counter::TcpRtoFires, stats.timeouts);
                m.add(Counter::TcpFastRetransmits, stats.fast_retransmits);
                m.add(Counter::TcpSackBlocksSent, stats.sack_blocks_sent);
                m.add(Counter::TcpZeroWindowProbes, stats.probes_sent);
                m.merge_hist(HistId::TcpCwndBytes, &stats.cwnd_hist);
            }
        }

        m.add(Counter::CapturePackets, self.packets_tapped);
    }

    /// The event queue's accumulated telemetry (e.g. for per-profile event
    /// attribution before [`Engine::into_parts`]).
    pub fn queue_stats(&self) -> &QueueStats {
        self.queue.stats()
    }

    /// Number of connections opened so far.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// `(client, server)` endpoint statistics of a connection.
    pub fn connection_stats(&self, conn: usize) -> (EndpointStats, EndpointStats) {
        (self.conns[conn].client.stats(), self.conns[conn].server.stats())
    }

    /// The round-trip propagation delay of the underlying path.
    pub fn base_rtt(&self) -> SimDuration {
        self.path.base_rtt()
    }

    // ------------------------------------------------------------------
    // Logic-facing operations
    // ------------------------------------------------------------------

    /// Opens a new client-server connection pair; the SYN goes out
    /// immediately. Returns the connection index.
    pub fn open_connection(&mut self, client_cfg: TcpConfig, server_cfg: TcpConfig) -> usize {
        let idx = self.conns.len();
        let id = idx as u32;
        let mut client = Endpoint::new(Role::Client, id, client_cfg);
        let server = Endpoint::new(Role::Server, id, server_cfg);
        let syn = client.connect(self.now());
        self.conns.push(Conn {
            client,
            server,
            tick_scheduled: [None, None],
            established_notified: false,
            eof_notified: false,
        });
        let mut buf = std::mem::take(&mut self.seg_buf);
        buf.clear();
        buf.extend(syn);
        self.transmit_from_client(&mut buf);
        self.seg_buf = buf;
        self.sync_ticks(idx);
        idx
    }

    /// Server-side application write: queue `bytes` of video content.
    pub fn server_write(&mut self, conn: usize, bytes: u64) {
        let now = self.now();
        let mut buf = std::mem::take(&mut self.seg_buf);
        buf.clear();
        self.conns[conn].server.write_into(now, bytes, &mut buf);
        self.transmit_from_server(&mut buf);
        self.seg_buf = buf;
        self.sync_tick_side(conn, Side::Server);
    }

    /// Server-side close: FIN after all queued data.
    pub fn server_close(&mut self, conn: usize) {
        let now = self.now();
        let mut buf = std::mem::take(&mut self.seg_buf);
        buf.clear();
        self.conns[conn].server.close_into(now, &mut buf);
        self.transmit_from_server(&mut buf);
        self.seg_buf = buf;
        self.sync_tick_side(conn, Side::Server);
    }

    /// Client-side application read of up to `max` bytes. Window updates
    /// triggered by the read are transmitted.
    pub fn client_read(&mut self, conn: usize, max: u64) -> u64 {
        let now = self.now();
        let mut buf = std::mem::take(&mut self.seg_buf);
        buf.clear();
        let n = self.conns[conn].client.read_into(now, max, &mut buf);
        self.transmit_from_client(&mut buf);
        self.seg_buf = buf;
        self.sync_tick_side(conn, Side::Client);
        n
    }

    /// Bytes the client could read right now on `conn`.
    pub fn available(&self, conn: usize) -> u64 {
        self.conns[conn].client.available_to_read()
    }

    /// True once the server's whole stream (and FIN) has been read.
    pub fn client_at_eof(&self, conn: usize) -> bool {
        self.conns[conn].client.at_eof()
    }

    /// True once the connection is established end to end.
    pub fn is_established(&self, conn: usize) -> bool {
        self.conns[conn].client.is_established() && self.conns[conn].server.is_established()
    }

    /// Arms an application timer that fires `delay` from now with `id`.
    pub fn schedule_app_timer(&mut self, delay: SimDuration, id: u32) {
        let at = self.now() + delay;
        self.queue.schedule(at, Event::AppTimer { id });
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Runs the session to completion: until the capture limit, an empty
    /// event queue, or [`Engine::stop`].
    pub fn run<L: SessionLogic>(&mut self, logic: &mut L) {
        self.run_observed(logic, &mut NullSink, true);
    }

    /// Like [`Engine::run`], but additionally streams every tapped packet
    /// into `sink`, in capture order, as the session executes. With
    /// `keep_trace = false` the engine never materialises a [`Trace`] at
    /// all — the sink is the only consumer — which is how the figure
    /// drivers run, in O(flows) analysis memory; with `keep_trace = true`
    /// a [`Trace`] rides a [`Tee`] beside `sink` and becomes
    /// [`Engine::trace`] when the run returns.
    pub fn run_observed<L: SessionLogic, S: PacketSink + ?Sized>(
        &mut self,
        logic: &mut L,
        sink: &mut S,
        keep_trace: bool,
    ) {
        if keep_trace {
            let mut trace = std::mem::take(&mut self.trace);
            self.run_loop(logic, &mut Tee::new(&mut trace, sink));
            self.trace = trace;
        } else {
            self.run_loop(logic, sink);
        }
    }

    /// The event loop of [`Engine::run_observed`]: every tapped packet goes
    /// to `sink`.
    fn run_loop<L: SessionLogic, S: PacketSink + ?Sized>(&mut self, logic: &mut L, sink: &mut S) {
        if self.cross_traffic.is_some() {
            self.schedule_cross_burst();
        }
        if let Some(mut st) = self.lrd_cross.take() {
            // Every source starts OFF with an independent exponential gap,
            // so the aggregate does not begin with a synchronized burst.
            for (i, src) in st.sources.iter_mut().enumerate() {
                let gap = src.rng.exponential(1.0 / LrdCrossConfig::mean_off_secs());
                let at = SimTime::ZERO + SimDuration::from_secs_f64(gap);
                self.queue.schedule(at, Event::LrdTick { src: i as u32 });
            }
            self.lrd_cross = Some(st);
        }
        logic.on_start(self);
        self.drain_tap(sink);
        // Safety valve: a streaming session is bounded by (capture seconds)
        // x (packet rate); 50M events is far beyond any legitimate run.
        for _ in 0..50_000_000u64 {
            if self.stopped {
                return;
            }
            let Some((t, ev)) = self.queue.pop_before(self.limit) else {
                return;
            };
            match ev {
                Event::DeliverToClient(queued) => {
                    let conn = queued.conn as usize;
                    let seg = queued.restore(&mut self.sacks);
                    self.tap_direct(t, TapDirection::Incoming, &seg, sink);
                    let mut buf = std::mem::take(&mut self.seg_buf);
                    buf.clear();
                    self.conns[conn].client.on_segment_into(t, seg, &mut buf);
                    self.transmit_from_client_direct(&mut buf, sink);
                    self.seg_buf = buf;
                    self.after_touch(conn, Side::Client, logic);
                }
                Event::DeliverToServer(queued) => {
                    let conn = queued.conn as usize;
                    let seg = queued.restore(&mut self.sacks);
                    let mut buf = std::mem::take(&mut self.seg_buf);
                    buf.clear();
                    self.conns[conn].server.on_segment_into(t, seg, &mut buf);
                    self.transmit_from_server(&mut buf);
                    self.seg_buf = buf;
                    self.after_touch(conn, Side::Server, logic);
                }
                Event::TcpTick { conn, side } => {
                    let conn = conn as usize;
                    let slot = match side {
                        Side::Client => 0,
                        Side::Server => 1,
                    };
                    // A tick superseded by an earlier reschedule for the
                    // same side is stale: the earlier tick already ran the
                    // timers and re-synced, so processing it again is pure
                    // overhead. Skip it without touching the endpoints.
                    if self.conns[conn].tick_scheduled[slot] != Some(t) {
                        continue;
                    }
                    self.conns[conn].tick_scheduled[slot] = None;
                    let mut buf = std::mem::take(&mut self.seg_buf);
                    buf.clear();
                    match side {
                        Side::Client => {
                            self.conns[conn].client.on_timer_into(t, &mut buf);
                            self.transmit_from_client_direct(&mut buf, sink);
                        }
                        Side::Server => {
                            self.conns[conn].server.on_timer_into(t, &mut buf);
                            self.transmit_from_server(&mut buf);
                        }
                    }
                    self.seg_buf = buf;
                    self.after_touch(conn, side, logic);
                }
                Event::AppTimer { id } => {
                    logic.on_app_timer(self, id);
                }
                Event::CrossBurst => {
                    let now = self.now();
                    if let Some(ct) = &self.cross_traffic {
                        let bytes = self.rng.exponential(1.0 / ct.mean_burst_bytes as f64) as u64;
                        self.path.occupy(Direction::Down, now, bytes.max(1));
                    }
                    self.schedule_cross_burst();
                }
                Event::LrdTick { src } => {
                    self.lrd_tick(src);
                }
            }
            self.drain_tap(sink);
        }
        panic!("session event-count safety valve tripped: runaway event loop");
    }

    /// Feeds the packets an event's logic callbacks staged via
    /// [`Engine::tap_staged`] to the streaming sink, preserving capture
    /// order.
    #[inline]
    fn drain_tap<S: PacketSink + ?Sized>(&mut self, sink: &mut S) {
        for p in self.tap_buf.drain(..) {
            sink.packet(&p);
        }
    }

    /// The capture tap: every segment crossing the client NIC lands here
    /// and leaves as the packet for the sink.
    #[inline]
    fn tap(&mut self, at: SimTime, dir: TapDirection, seg: &Segment) -> TapPacket {
        self.packets_tapped += 1;
        TapPacket::new(at, dir, seg)
    }

    /// [`Self::tap`] where the event loop holds the sink: the packet goes
    /// straight to it.
    #[inline]
    fn tap_direct<S: PacketSink + ?Sized>(
        &mut self,
        at: SimTime,
        dir: TapDirection,
        seg: &Segment,
        sink: &mut S,
    ) {
        // Within one event every direct tap (the delivered packet, the
        // endpoint's immediate replies) happens before the first logic
        // callback, and the staging row is drained when the event ends: a
        // direct tap never overtakes a staged one, so capture order is the
        // order of the tap calls.
        debug_assert!(self.tap_buf.is_empty(), "direct tap behind staged packets");
        let p = self.tap(at, dir, seg);
        sink.packet(&p);
    }

    /// [`Self::tap`] inside a [`SessionLogic`] callback (`client_read`,
    /// `open_connection`), where only the engine is in hand: the sink's
    /// copy waits in `tap_buf` for [`Engine::drain_tap`].
    #[inline]
    fn tap_staged(&mut self, at: SimTime, dir: TapDirection, seg: &Segment) {
        let p = self.tap(at, dir, seg);
        self.tap_buf.push(p);
    }

    fn after_touch<L: SessionLogic>(&mut self, conn: usize, side: Side, logic: &mut L) {
        self.sync_tick_side(conn, side);
        if !self.conns[conn].established_notified && self.is_established(conn) {
            self.conns[conn].established_notified = true;
            logic.on_established(self, conn);
        }
        if self.conns[conn].client.available_to_read() > 0 {
            logic.on_data_available(self, conn);
        }
        if !self.conns[conn].eof_notified && self.conns[conn].client.at_eof() {
            self.conns[conn].eof_notified = true;
            logic.on_eof(self, conn);
        }
    }

    /// Transmits client-origin segments emitted inside a [`SessionLogic`]
    /// callback: the tap records them (tcpdump sees every outgoing packet),
    /// then they traverse the uplink. Drains `segs` so the caller's buffer
    /// can be reused.
    fn transmit_from_client(&mut self, segs: &mut Vec<Segment>) {
        let now = self.now();
        for seg in segs.drain(..) {
            self.tap_staged(now, TapDirection::Outgoing, &seg);
            self.send_up(now, &seg);
        }
    }

    /// [`Self::transmit_from_client`] for segments the event loop itself
    /// takes from the client endpoint, tapped straight into `sink`.
    fn transmit_from_client_direct<S: PacketSink + ?Sized>(
        &mut self,
        segs: &mut Vec<Segment>,
        sink: &mut S,
    ) {
        let now = self.now();
        for seg in segs.drain(..) {
            self.tap_direct(now, TapDirection::Outgoing, &seg, sink);
            self.send_up(now, &seg);
        }
    }

    /// Offers one tapped client-origin segment to the uplink.
    #[inline]
    fn send_up(&mut self, now: SimTime, seg: &Segment) {
        if let Some(at) = self.path.send(Direction::Up, now, seg, &mut self.rng).delivery_time() {
            let queued = QueuedSegment::stash(seg, &mut self.sacks);
            self.queue.schedule_fifo(UP_LANE, at, Event::DeliverToServer(queued));
        }
    }

    /// Transmits server-origin segments; the tap records them on *arrival*
    /// (a dropped packet never reaches the client's tcpdump). Drains `segs`
    /// so the caller's buffer can be reused.
    fn transmit_from_server(&mut self, segs: &mut Vec<Segment>) {
        let now = self.now();
        for seg in segs.drain(..) {
            if let Some(at) = self
                .path
                .send(Direction::Down, now, &seg, &mut self.rng)
                .delivery_time()
            {
                let queued = QueuedSegment::stash(&seg, &mut self.sacks);
                self.queue.schedule_fifo(DOWN_LANE, at, Event::DeliverToClient(queued));
            }
        }
    }

    /// Advances one LRD source's on/off state machine. A tick arriving at
    /// or past `on_until` was scheduled across an OFF gap and opens a new
    /// Pareto-length ON period; every tick then occupies the downlink with
    /// up to one chunk of peak-rate bytes and schedules either the next
    /// chunk (still ON) or the next period start (across an OFF gap).
    fn lrd_tick(&mut self, src: u32) {
        let now = self.now();
        let Some(mut st) = self.lrd_cross.take() else { return };
        {
            let cfg = st.cfg;
            let s = &mut st.sources[src as usize];
            if now >= s.on_until {
                let on = s
                    .rng
                    .pareto(LrdCrossConfig::on_x_min_secs(), LrdCrossConfig::alpha());
                s.on_until = now + SimDuration::from_secs_f64(on);
            }
            // The final chunk of a period is pro-rated to the ON time it
            // actually covers, so the aggregate's mean load is exactly
            // `cfg.mean_load_bps()` rather than biased up by tail chunks.
            let next_chunk = now + LRD_CHUNK;
            let covered = s.on_until.min(next_chunk) - now;
            let bytes = cfg.on_bytes(covered.as_nanos());
            self.path.occupy(Direction::Down, now, bytes.max(1));
            let at = if next_chunk < s.on_until {
                next_chunk
            } else {
                let gap = s.rng.exponential(1.0 / LrdCrossConfig::mean_off_secs());
                s.on_until + SimDuration::from_secs_f64(gap)
            };
            self.queue.schedule(at, Event::LrdTick { src });
        }
        self.lrd_cross = Some(st);
    }

    fn schedule_cross_burst(&mut self) {
        let Some(ct) = &self.cross_traffic else { return };
        let gap = self.rng.exponential(1.0 / ct.mean_period.as_secs_f64());
        let at = self.now() + vstream_sim::SimDuration::from_secs_f64(gap);
        self.queue.schedule(at, Event::CrossBurst);
    }

    /// Ensures a TCP tick event is queued for each armed endpoint timer.
    fn sync_ticks(&mut self, conn: usize) {
        self.sync_tick_side(conn, Side::Client);
        self.sync_tick_side(conn, Side::Server);
    }

    /// [`Self::sync_ticks`] for one endpoint. Each event in the loop mutates
    /// exactly one endpoint of the pair, and the other side's earliest
    /// deadline / scheduled-tick pair is unchanged since its own last sync
    /// (every mutation path ends in a sync of the side it touched), so a
    /// re-sync of the untouched side is always a no-op — skipping it halves
    /// the per-event timer bookkeeping without changing any schedule.
    fn sync_tick_side(&mut self, conn: usize, side: Side) {
        let c = &mut self.conns[conn];
        let (slot, deadline) = match side {
            Side::Client => (0, c.client.next_timer()),
            Side::Server => (1, c.server.next_timer()),
        };
        let Some(d) = deadline else { return };
        let at = d.max(self.queue.now());
        let stored = &mut c.tick_scheduled[slot];
        if stored.is_none_or(|s| at < s) {
            *stored = Some(at);
            self.queue.schedule(at, Event::TcpTick { conn: conn as u32, side });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_net::NetworkProfile;

    /// A bulk-download logic used to exercise the engine itself.
    struct BulkLogic {
        size: u64,
        read_total: u64,
        finished_at: Option<SimTime>,
    }

    impl SessionLogic for BulkLogic {
        fn on_start(&mut self, eng: &mut Engine) {
            let cfg = TcpConfig::default().with_recv_buffer(4 << 20);
            eng.open_connection(cfg.clone(), cfg);
        }
        fn on_established(&mut self, eng: &mut Engine, conn: usize) {
            eng.server_write(conn, self.size);
            eng.server_close(conn);
        }
        fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
            self.read_total += eng.client_read(conn, u64::MAX);
        }
        fn on_eof(&mut self, eng: &mut Engine, _conn: usize) {
            self.finished_at = Some(eng.now());
            eng.stop();
        }
    }

    #[test]
    fn bulk_session_downloads_everything() {
        let mut eng = Engine::new(
            NetworkProfile::Research.build_path(),
            7,
            SimDuration::from_secs(180),
        );
        let mut logic = BulkLogic {
            size: 3_000_000,
            read_total: 0,
            finished_at: None,
        };
        eng.run(&mut logic);
        assert_eq!(logic.read_total, 3_000_000);
        assert!(logic.finished_at.is_some());
        assert_eq!(eng.trace().total_downloaded(), 3_000_000);
    }

    #[test]
    fn capture_limit_truncates_session() {
        // 100 MB over ~100 Mbps takes >8 s; a 1 s capture must stop early.
        let mut eng = Engine::new(
            NetworkProfile::Research.build_path(),
            7,
            SimDuration::from_secs(1),
        );
        let mut logic = BulkLogic {
            size: 100_000_000,
            read_total: 0,
            finished_at: None,
        };
        eng.run(&mut logic);
        assert!(logic.finished_at.is_none());
        assert!(eng.now() <= SimTime::from_secs(1));
        assert!(logic.read_total < 100_000_000);
        assert!(logic.read_total > 0);
    }

    #[test]
    fn app_timers_fire_in_order() {
        struct TimerLogic {
            fired: Vec<u32>,
        }
        impl SessionLogic for TimerLogic {
            fn on_start(&mut self, eng: &mut Engine) {
                eng.schedule_app_timer(SimDuration::from_secs(2), 2);
                eng.schedule_app_timer(SimDuration::from_secs(1), 1);
                eng.schedule_app_timer(SimDuration::from_secs(3), 3);
            }
            fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
                self.fired.push(id);
                if id == 3 {
                    eng.stop();
                }
            }
        }
        let mut eng = Engine::new(
            NetworkProfile::Research.build_path(),
            1,
            SimDuration::from_secs(60),
        );
        let mut logic = TimerLogic { fired: Vec::new() };
        eng.run(&mut logic);
        assert_eq!(logic.fired, vec![1, 2, 3]);
    }

    #[test]
    fn multiple_connections_are_independent() {
        struct TwoConnLogic {
            read: [u64; 2],
        }
        impl SessionLogic for TwoConnLogic {
            fn on_start(&mut self, eng: &mut Engine) {
                let cfg = TcpConfig::default().with_recv_buffer(1 << 20);
                eng.open_connection(cfg.clone(), cfg.clone());
                eng.open_connection(cfg.clone(), cfg);
            }
            fn on_established(&mut self, eng: &mut Engine, conn: usize) {
                eng.server_write(conn, (conn as u64 + 1) * 100_000);
                eng.server_close(conn);
            }
            fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
                self.read[conn] += eng.client_read(conn, u64::MAX);
            }
        }
        let mut eng = Engine::new(
            NetworkProfile::Research.build_path(),
            5,
            SimDuration::from_secs(30),
        );
        let mut logic = TwoConnLogic { read: [0, 0] };
        eng.run(&mut logic);
        assert_eq!(logic.read, [100_000, 200_000]);
        let conns: std::collections::BTreeSet<u32> = eng.trace().records().map(|p| p.conn).collect();
        assert_eq!(conns, [0, 1].into());
        assert_eq!(eng.connection_count(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| {
            let mut eng = Engine::new(
                NetworkProfile::Residence.build_path(),
                seed,
                SimDuration::from_secs(30),
            );
            let mut logic = BulkLogic {
                size: 2_000_000,
                read_total: 0,
                finished_at: None,
            };
            eng.run(&mut logic);
            (logic.finished_at, eng.trace().len(), eng.connection_stats(0))
        };
        assert_eq!(run(42), run(42));
        // The Residence path has 1% loss, so a different seed almost surely
        // yields a different packet count.
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn cross_traffic_slows_the_transfer() {
        let run = |ct: Option<CrossTraffic>| {
            let mut eng = Engine::new(
                NetworkProfile::Home.build_path(), // 20 Mbps downlink
                7,
                SimDuration::from_secs(120),
            );
            if let Some(ct) = ct {
                eng.set_cross_traffic(ct);
            }
            let mut logic = BulkLogic {
                size: 20_000_000,
                read_total: 0,
                finished_at: None,
            };
            eng.run(&mut logic);
            logic.finished_at.expect("transfer completes")
        };
        let clean = run(None);
        // ~10 Mbps of competing traffic halves the available bandwidth.
        let congested = run(Some(CrossTraffic {
            mean_period: SimDuration::from_millis(10),
            mean_burst_bytes: 12_500,
        }));
        assert!(
            congested > clean + SimDuration::from_secs(3),
            "cross traffic had no effect: clean {clean}, congested {congested}"
        );
    }

    #[test]
    fn lrd_cross_traffic_slows_the_transfer_and_is_deterministic() {
        use vstream_net::LrdCrossConfig;
        let run = |cfg: Option<LrdCrossConfig>| {
            let mut eng = Engine::new(
                NetworkProfile::Home.build_path(), // 20 Mbps downlink
                7,
                SimDuration::from_secs(120),
            );
            if let Some(cfg) = cfg {
                eng.set_lrd_cross_traffic(cfg, 99);
            }
            let mut logic = BulkLogic {
                size: 20_000_000,
                read_total: 0,
                finished_at: None,
            };
            eng.run(&mut logic);
            (logic.finished_at.expect("transfer completes"), eng.trace().len())
        };
        let (clean, _) = run(None);
        let cfg = LrdCrossConfig::for_load(20_000_000, 500); // ~10 Mbps mean
        let (congested, len_a) = run(Some(cfg));
        let (again, len_b) = run(Some(cfg));
        assert!(
            congested > clean + SimDuration::from_secs(3),
            "LRD traffic had no effect: clean {clean}, congested {congested}"
        );
        assert_eq!((congested, len_a), (again, len_b), "same (cfg, seed) must replay exactly");
    }

    #[test]
    fn lrd_sources_do_not_perturb_the_main_rng() {
        use vstream_net::LrdCrossConfig;
        // On a loss-free path whose queue is never pressured (tiny load),
        // the video flow's packet schedule depends only on the main RNG —
        // which the LRD machinery must never touch. The *byte* stream is
        // identical; arrival jitter from sharing the link is fine, so we
        // compare totals rather than packet timings.
        let run = |with_lrd: bool| {
            let mut eng = Engine::new(
                NetworkProfile::Research.build_path(),
                13,
                SimDuration::from_secs(30),
            );
            if with_lrd {
                eng.set_lrd_cross_traffic(LrdCrossConfig::for_load(100_000_000, 1), 4);
            }
            let mut logic = BulkLogic {
                size: 1_000_000,
                read_total: 0,
                finished_at: None,
            };
            eng.run(&mut logic);
            logic.read_total
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn streamed_tap_matches_batch_trace() {
        struct Collect(Vec<TapPacket>);
        impl PacketSink for Collect {
            fn packet(&mut self, p: &TapPacket) {
                self.0.push(*p);
            }
        }
        /// Drives both tap roads in one event: a receive buffer smaller
        /// than two segments closes the window on every arrival, so each
        /// read in `on_data_available` emits a window update from inside
        /// the callback (staged) right behind the endpoint's own ACK
        /// (direct), and `on_eof` opens a second connection whose SYN is
        /// staged too.
        struct SmallWindowLogic {
            size: u64,
            staged: usize,
        }
        impl SessionLogic for SmallWindowLogic {
            fn on_start(&mut self, eng: &mut Engine) {
                let cfg = TcpConfig::default();
                eng.open_connection(cfg.clone().with_recv_buffer(2_000), cfg);
            }
            fn on_established(&mut self, eng: &mut Engine, conn: usize) {
                eng.server_write(conn, self.size);
                eng.server_close(conn);
            }
            fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
                let before = eng.tap_buf.len();
                eng.client_read(conn, u64::MAX);
                self.staged += eng.tap_buf.len() - before;
            }
            fn on_eof(&mut self, eng: &mut Engine, _conn: usize) {
                if eng.connection_count() == 1 {
                    self.on_start(eng);
                    self.staged += eng.tap_buf.len();
                } else {
                    eng.stop();
                }
            }
        }
        // The Residence path has loss, so retransmissions and SACKs cross
        // the tap too.
        fn capture<L: SessionLogic>(mut logic: L, streamed: bool, keep_trace: bool) -> (Vec<TapPacket>, usize, L) {
            let mut eng = Engine::new(
                NetworkProfile::Residence.build_path(),
                11,
                SimDuration::from_secs(20),
            );
            let mut sink = Collect(Vec::new());
            if streamed {
                eng.run_observed(&mut logic, &mut sink, keep_trace);
            } else {
                eng.run(&mut logic);
                eng.trace().replay(&mut sink);
            }
            (sink.0, eng.trace().len(), logic)
        }
        fn check<L: SessionLogic>(make: impl Fn() -> L) -> (Vec<TapPacket>, L) {
            let (batch, batch_len, _) = capture(make(), false, true);
            let (streamed, kept_len, logic) = capture(make(), true, true);
            let (streamed_no_trace, no_trace_len, _) = capture(make(), true, false);
            assert!(!batch.is_empty());
            assert_eq!(batch.len(), batch_len);
            assert_eq!(batch, streamed, "live sink must see what the trace stores");
            assert_eq!(batch, streamed_no_trace, "trace retention must not change the stream");
            assert_eq!(kept_len, batch_len);
            assert_eq!(no_trace_len, 0, "keep_trace=false must not materialise a trace");
            (streamed, logic)
        }
        check(|| BulkLogic {
            size: 1_500_000,
            read_total: 0,
            finished_at: None,
        });
        let (packets, logic) = check(|| SmallWindowLogic { size: 60_000, staged: 0 });
        assert!(logic.staged > 40, "window updates and the second SYN must take the staged road");
        assert!(packets.iter().any(|p| p.conn == 1 && p.is_incoming_data()), "second connection carried data");
        assert!(packets.iter().any(|p| p.flags & vstream_capture::FLAG_RETX != 0), "the lossy path retransmitted");
    }

    #[test]
    fn trace_records_both_directions() {
        let mut eng = Engine::new(
            NetworkProfile::Research.build_path(),
            7,
            SimDuration::from_secs(30),
        );
        let mut logic = BulkLogic {
            size: 500_000,
            read_total: 0,
            finished_at: None,
        };
        eng.run(&mut logic);
        let incoming = eng.trace().records().filter(|r| r.dir() == TapDirection::Incoming).count();
        let outgoing = eng.trace().records().filter(|r| r.dir() == TapDirection::Outgoing).count();
        assert!(incoming > 0);
        assert!(outgoing > 0, "tap must record ACKs too");
    }

    /// Every packet in flight is one lane entry, and DESIGN §7.1 sizes the
    /// lanes and the timer heap on entries of one 64-byte cache line. A
    /// field that grows `Event` past 48 bytes spills every entry into a
    /// second line and fails here.
    #[test]
    fn queue_entries_fill_one_cache_line() {
        assert_eq!(std::mem::size_of::<QueuedSegment>(), 40);
        assert_eq!(std::mem::size_of::<Event>(), 48);
        assert_eq!(std::mem::size_of::<(SimTime, u64, Event)>(), 64);
    }

    fn sack_of(blocks: &[(u64, u64)], highest_end: u64) -> SackBlocks {
        let mut sack = SackBlocks::EMPTY;
        for &(start, end) in blocks {
            sack.push(start, end);
        }
        sack.set_highest_end(highest_end);
        sack
    }

    /// Queuing a segment and popping it gives back every field bit for bit:
    /// all 16 flag combinations, each with no SACK option, `highest_end`
    /// alone and one to three blocks, and slots reused after being freed
    /// out of allocation order.
    #[test]
    fn queued_segments_restore_bit_for_bit() {
        let mut segs = Vec::new();
        for flags in 0..16u32 {
            // `highest_end` varies with the flags, so no two options are
            // equal and a slot handed to the wrong segment shows.
            let f = u64::from(flags);
            let options = [
                SackBlocks::EMPTY,
                sack_of(&[], 9_000 + f),
                sack_of(&[(5_000, 6_460)], 6_460 + f),
                sack_of(&[(9_000, 10_000), (5_000, 6_000)], 10_000 + f),
                sack_of(&[(u64::MAX - 10, u64::MAX - 1), (1, 2), (70, 80)], u64::MAX - 1 - f),
            ];
            for (k, &sack) in options.iter().enumerate() {
                let k = k as u32;
                segs.push(Segment {
                    conn: u32::MAX - flags,
                    seq: u64::MAX - 1_460 * u64::from(k),
                    ack_no: u64::from(flags) << 40 | u64::from(k),
                    window: 1 << (20 + k),
                    payload: u32::MAX - k,
                    syn: flags & 1 != 0,
                    fin: flags & 2 != 0,
                    ack: flags & 4 != 0,
                    retx: flags & 8 != 0,
                    sack,
                });
            }
        }
        let with_sack = segs.iter().filter(|s| s.sack != SackBlocks::EMPTY).count();
        let mut slab = SackSlab::default();
        let mut queued: Vec<_> = segs.iter().map(|s| QueuedSegment::stash(s, &mut slab)).collect();
        assert_eq!(slab.live(), with_sack, "an empty option takes no slot");
        let peak = slab.slots.len();

        // 7 is coprime to the 80 segments, so this visits each once, in an
        // order unrelated to the one the slots were handed out in. Queued
        // again in the order they were freed, the segments take each
        // other's slots (the free list is last-in, first-out).
        let n = segs.len();
        let order: Vec<usize> = (0..n).map(|i| i * 7 % n).collect();
        let (first, _) = order.split_at(n / 2);
        for &i in first {
            assert_eq!(queued[i].restore(&mut slab), segs[i]);
        }
        for &i in first {
            queued[i] = QueuedSegment::stash(&segs[i], &mut slab);
        }
        assert_eq!(slab.slots.len(), peak, "freed slots are reused before the slab grows");
        assert_eq!(slab.live(), with_sack);
        for &i in order.iter().rev() {
            assert_eq!(queued[i].restore(&mut slab), segs[i]);
        }
        assert_eq!(slab.live(), 0);
    }

    /// The slab holds exactly the options of the packets still queued, and
    /// a recycled scratch starts the next session with none. Residence
    /// drops 1 % of the downlink, so the client SACKs; each capture limit,
    /// every quarter second from 1 s to 9.75 s, cuts the transfer off with
    /// packets in flight (and at 5 of the 36, SACKs among them).
    #[test]
    fn sack_slab_holds_exactly_the_queued_options() {
        let mut scratch = SessionScratch::new();
        let mut sacks_in_flight = 0;
        for limit_ms in (4..40).map(|k| k * 250) {
            let mut eng = Engine::with_scratch(
                NetworkProfile::Residence.build_path(),
                11,
                SimDuration::from_millis(limit_ms),
                scratch,
            );
            assert_eq!(eng.sacks.live(), 0, "a recycled scratch starts with no live slot");
            let mut logic = BulkLogic {
                size: 50_000_000,
                read_total: 0,
                finished_at: None,
            };
            eng.run_observed(&mut logic, &mut NullSink, false);
            assert!(eng.connection_stats(0).0.sack_blocks_sent > 0, "the client never SACKed");
            let live = eng.sacks.live();
            let mut queued_with_sack = 0;
            while let Some((_, ev)) = eng.queue.pop() {
                if let Event::DeliverToClient(q) | Event::DeliverToServer(q) = ev {
                    queued_with_sack += usize::from(q.sack != NO_SACK);
                }
            }
            assert_eq!(live, queued_with_sack, "capture limit {limit_ms} ms");
            sacks_in_flight += live;
            scratch = eng.into_parts().1;
        }
        assert!(sacks_in_flight > 0, "no capture limit caught a SACK in flight");
    }
}
