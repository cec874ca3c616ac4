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
//! [`Engine::stop`]. The engine is also the one writer of the session's
//! flight recorder, when its scratch carries one
//! ([`SessionScratch::attach_recorder`]): endpoint events come through the
//! [`Output`] they write into, link drops off each send verdict, player and
//! strategy events through the `&mut Engine`.

use vstream_capture::{PacketSink, TapDirection, TapPacket, Tee, Trace};
use vstream_net::{CrossTraffic, Direction, DropReason, DuplexPath, LrdCrossConfig, Verdict, Wire};
use vstream_obs::trace::{self, EventKind, Recorder, SIDE_NONE};
use vstream_obs::{collector, Counter, Gauge, HistId, Metrics};
use vstream_sim::{EventQueue, QueueStats, SimDuration, SimRng, SimTime};
use vstream_tcp::SackBlocks;
use vstream_tcp::{Endpoint, EndpointStats, Output, Role, Segment, TcpConfig};

use crate::viewer::Viewer;

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
    /// Source `src` of the path's cross traffic ticks.
    Cross { src: u32 },
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

/// What the endpoints write into: the segments to transmit, drained by the
/// transmit helpers after each `_into` call, and the session's flight
/// recorder (`None` records nothing), which takes their events as they
/// happen.
#[derive(Default)]
struct Outbox {
    segs: Vec<Segment>,
    recorder: Option<Recorder>,
}

impl Output for Outbox {
    #[inline]
    fn push(&mut self, seg: Segment) {
        self.segs.push(seg);
    }

    #[inline]
    fn recorder(&mut self) -> Option<&mut Recorder> {
        self.recorder.as_mut()
    }
}

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
/// once per worker. And it carries the next session's flight recorder, if
/// the caller attached one: the engine records into it and
/// [`Engine::into_parts`] hands it back for [`SessionScratch::take_recorder`].
/// Metrics and events flow strictly out of the simulation — nothing ever
/// reads them back — so this does not violate the capacity-only rule.
pub struct SessionScratch {
    queue: EventQueue<Event>,
    sacks: SackSlab,
    out: Outbox,
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
            out: Outbox { segs: Vec::with_capacity(64), recorder: None },
            metrics: Metrics::new(),
            used: false,
        }
    }

    /// Makes the next engine built from this scratch record into `rec`.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.out.recorder = Some(rec);
    }

    /// Takes the ring back after [`Engine::into_parts`] (`None` if none was
    /// attached), so the next session records nothing unless given one.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.out.recorder.take()
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
            out: Outbox::default(),
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
    /// An application timer armed with `Engine::schedule_app_timer` fired.
    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        let _ = (eng, id);
    }
    /// The session's player and counters; `None` for a logic without a
    /// player. A wrapper forwards its inner logic's: the session bracket
    /// reads the ledger's `app_*` slots, the dump footer and the QoE row
    /// from here.
    fn viewer(&self) -> Option<&Viewer> {
        None
    }
}

/// A boxed logic is the logic it holds: `logic_for` hands out boxes.
impl<L: SessionLogic + ?Sized> SessionLogic for Box<L> {
    fn on_start(&mut self, eng: &mut Engine) {
        (**self).on_start(eng);
    }
    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        (**self).on_established(eng, conn);
    }
    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        (**self).on_data_available(eng, conn);
    }
    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        (**self).on_eof(eng, conn);
    }
    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        (**self).on_app_timer(eng, id);
    }
    fn viewer(&self) -> Option<&Viewer> {
        (**self).viewer()
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
    /// What the endpoints write into; the recorder comes from the scratch.
    out: Outbox,
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
    /// Creates an engine over `path` that captures until `capture_limit`,
    /// reusing the allocations of a previous session's [`SessionScratch`]
    /// (see [`Engine::into_parts`]) or of [`SessionScratch::new`]. The
    /// scratch contributes only capacity: the queue is reset and the SACK
    /// slab and segment buffer cleared, so the session's behaviour does not
    /// depend on which scratch it got.
    pub fn with_scratch(
        path: DuplexPath,
        seed: u64,
        capture_limit: SimDuration,
        scratch: SessionScratch,
    ) -> Self {
        let SessionScratch {
            mut queue,
            mut sacks,
            mut out,
            metrics,
            used,
        } = scratch;
        queue.reset();
        sacks.clear();
        out.segs.clear();
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
            out,
            metrics,
            scratch_was_used: used,
            tap_buf: Vec::new(),
            packets_tapped: 0,
        }
    }

    /// Adds a long-range-dependent cross-traffic aggregate to the path:
    /// [`DuplexPath::set_cross_traffic`] with [`CrossTraffic::Lrd`]. An alias
    /// kept for callers that build the engine before choosing the load;
    /// everything else builds the path with
    /// [`DuplexPath::with_cross_traffic`].
    pub fn set_lrd_cross_traffic(&mut self, cfg: LrdCrossConfig, seed: u64) {
        self.path.set_cross_traffic(CrossTraffic::Lrd(cfg), seed);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Stops the session at the current instant (user closed the player).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Consumes the engine, returning the capture a retaining run
    /// ([`Engine::run_observed`] with `keep_trace`) stored, empty otherwise,
    /// and a [`SessionScratch`] holding this session's allocations for the
    /// next one, and its flight recorder, if it had one.
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
            out: self.out,
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
        client.connect_into(self.now(), &mut self.out);
        self.conns.push(Conn {
            client,
            server,
            tick_scheduled: [None, None],
            established_notified: false,
            eof_notified: false,
        });
        self.transmit_from_client();
        self.sync_ticks(idx);
        idx
    }

    /// Server-side application write: queue `bytes` of video content.
    pub fn server_write(&mut self, conn: usize, bytes: u64) {
        let now = self.now();
        self.conns[conn].server.write_into(now, bytes, &mut self.out);
        self.transmit_from_server();
        self.sync_tick_side(conn, Side::Server);
    }

    /// Server-side close: FIN after all queued data.
    pub fn server_close(&mut self, conn: usize) {
        let now = self.now();
        self.conns[conn].server.close_into(now, &mut self.out);
        self.transmit_from_server();
        self.sync_tick_side(conn, Side::Server);
    }

    /// Client-side application read of up to `max` bytes. Window updates
    /// triggered by the read are transmitted.
    pub fn client_read(&mut self, conn: usize, max: u64) -> u64 {
        let now = self.now();
        let n = self.conns[conn].client.read_into(now, max, &mut self.out);
        self.transmit_from_client();
        self.sync_tick_side(conn, Side::Client);
        n
    }

    /// True once the connection is established end to end.
    pub(crate) fn is_established(&self, conn: usize) -> bool {
        self.conns[conn].client.is_established() && self.conns[conn].server.is_established()
    }

    /// Arms an application timer that fires `delay` from now with `id`.
    pub(crate) fn schedule_app_timer(&mut self, delay: SimDuration, id: u32) {
        let at = self.now() + delay;
        self.queue.schedule(at, Event::AppTimer { id });
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Runs the session to completion — until the capture limit, an empty
    /// event queue, or [`Engine::stop`] — streaming every tapped packet
    /// into `sink`, in capture order, as the session executes. With
    /// `keep_trace = false` the engine never materialises a [`Trace`] at
    /// all — the sink is the only consumer — which is how every session of
    /// `repro` runs, in O(flows) analysis memory; with `keep_trace = true`
    /// a [`Trace`] rides a [`Tee`] beside `sink` and [`Engine::into_parts`]
    /// returns it. A caller that wants the capture can instead pass a
    /// [`Trace`] as `sink`, as `SessionSpec::run` does.
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
        for (src, at) in self.path.cross_starts(&mut self.rng).enumerate() {
            self.queue.schedule(at, Event::Cross { src: src as u32 });
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
                    self.conns[conn].client.on_segment_into(t, seg, &mut self.out);
                    self.transmit_from_client_direct(sink);
                    self.after_touch(conn, Side::Client, logic);
                }
                Event::DeliverToServer(queued) => {
                    let conn = queued.conn as usize;
                    let seg = queued.restore(&mut self.sacks);
                    self.conns[conn].server.on_segment_into(t, seg, &mut self.out);
                    self.transmit_from_server();
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
                    match side {
                        Side::Client => {
                            self.conns[conn].client.on_timer_into(t, &mut self.out);
                            self.transmit_from_client_direct(sink);
                        }
                        Side::Server => {
                            self.conns[conn].server.on_timer_into(t, &mut self.out);
                            self.transmit_from_server();
                        }
                    }
                    self.after_touch(conn, side, logic);
                }
                Event::AppTimer { id } => {
                    logic.on_app_timer(self, id);
                }
                Event::Cross { src } => self.cross_tick(src, t),
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

    /// Transmits the client-origin segments a [`SessionLogic`] callback's
    /// endpoint call left in the staging buffer: the tap records them
    /// (tcpdump sees every outgoing packet), then they traverse the uplink.
    /// Leaves the buffer empty for the next call.
    fn transmit_from_client(&mut self) {
        let now = self.now();
        let mut segs = std::mem::take(&mut self.out.segs);
        for seg in segs.drain(..) {
            self.tap_staged(now, TapDirection::Outgoing, &seg);
            self.send_up(now, &seg);
        }
        self.out.segs = segs;
    }

    /// [`Self::transmit_from_client`] for segments the event loop itself
    /// takes from the client endpoint, tapped straight into `sink`.
    #[inline]
    fn transmit_from_client_direct<S: PacketSink + ?Sized>(&mut self, sink: &mut S) {
        let now = self.now();
        let mut segs = std::mem::take(&mut self.out.segs);
        for seg in segs.drain(..) {
            self.tap_direct(now, TapDirection::Outgoing, &seg, sink);
            self.send_up(now, &seg);
        }
        self.out.segs = segs;
    }

    /// Offers one tapped client-origin segment to the uplink.
    #[inline]
    fn send_up(&mut self, now: SimTime, seg: &Segment) {
        if let Some(at) = self.offer(Direction::Up, now, seg) {
            let queued = QueuedSegment::stash(seg, &mut self.sacks);
            self.queue.schedule_fifo(UP_LANE, at, Event::DeliverToServer(queued));
        }
    }

    /// Transmits the server-origin segments an endpoint call left in the
    /// staging buffer; the tap records them on *arrival* (a dropped packet
    /// never reaches the client's tcpdump). Leaves the buffer empty.
    fn transmit_from_server(&mut self) {
        let now = self.now();
        let mut segs = std::mem::take(&mut self.out.segs);
        for seg in segs.drain(..) {
            if let Some(at) = self.offer(Direction::Down, now, &seg) {
                let queued = QueuedSegment::stash(&seg, &mut self.sacks);
                self.queue.schedule_fifo(DOWN_LANE, at, Event::DeliverToClient(queued));
            }
        }
        self.out.segs = segs;
    }

    /// Offers `seg` to the `dir` link at `now`: its delivery time, or `None`
    /// when the link dropped it.
    #[inline]
    fn offer(&mut self, dir: Direction, now: SimTime, seg: &Segment) -> Option<SimTime> {
        if self.out.recorder.is_some() {
            return self.offer_recorded(dir, now, seg);
        }
        self.path.send(dir, now, seg, &mut self.rng).delivery_time()
    }

    /// [`Self::offer`] in a session that records. The link records nothing
    /// itself, so its counters and verdict are read here: a backlog
    /// high-water mark that entered a new power-of-two bucket (per-byte
    /// growth would flood the ring), then a drop, in the order the link met
    /// them.
    #[inline(never)]
    fn offer_recorded(&mut self, dir: Direction, now: SimTime, seg: &Segment) -> Option<SimTime> {
        let before = self.path.link(dir).stats().backlog_hwm_bytes;
        let verdict = self.path.send(dir, now, seg, &mut self.rng);
        let (link, len) = (self.path.link(dir), u64::from(seg.wire_len()));
        let mut note = |kind, a, b| record(self.out.recorder.as_mut(), now, kind, a, b);
        let hwm = link.stats().backlog_hwm_bytes;
        if hwm.leading_zeros() < before.leading_zeros() {
            note(EventKind::NetBacklogHwm, hwm, u64::from(u64::BITS - hwm.leading_zeros()));
        }
        match verdict {
            // A refused packet left the link as it was: the backlog now is
            // the one it met.
            Verdict::Dropped(DropReason::QueueOverflow) => {
                note(EventKind::NetQueueDrop, link.backlog_bytes(now), len)
            }
            Verdict::Dropped(DropReason::RandomLoss) => note(EventKind::NetRandomDrop, len, 0),
            Verdict::Delivered(_) => {}
        }
        verdict.delivery_time()
    }

    /// Records a strategy's event now, when the session records.
    #[inline]
    pub(crate) fn record(&mut self, kind: EventKind, a: u64, b: u64) {
        record(self.out.recorder.as_mut(), self.queue.now(), kind, a, b);
    }

    /// The session's flight recorder, for the player's methods to record into.
    #[inline]
    pub(crate) fn recorder(&mut self) -> Option<&mut Recorder> {
        self.out.recorder.as_mut()
    }

    /// Cross-traffic source `src` ticks: the path occupies its downlink and
    /// names the source's next tick. Kept out of the event loop: inlined
    /// there, the timer-heap push made every packet event slower
    /// (`sessions_bulk`, which has no cross traffic, read `wall_s` ≈ 15 %
    /// higher on a 2-core host).
    #[inline(never)]
    fn cross_tick(&mut self, src: u32, now: SimTime) {
        let next = self.path.cross_tick(src, now, &mut self.rng);
        self.queue.schedule(next, Event::Cross { src });
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

/// Records an event of no connection (a link's, the player's, a
/// strategy's) at `now` into `rec`, when the session records.
#[inline]
pub(crate) fn record(rec: Option<&mut Recorder>, now: SimTime, kind: EventKind, a: u64, b: u64) {
    if let Some(rec) = rec {
        rec.push(trace::Event { at_ns: now.as_nanos(), kind, side: SIDE_NONE, conn: 0, a, b });
    }
}

/// Test support: an engine built the way `session::run_engine` builds one,
/// run with a [`Trace`] as the packet sink — how `SessionSpec::run` retains
/// a capture.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// An engine on a fresh [`SessionScratch`].
    pub(crate) fn engine(path: DuplexPath, seed: u64, capture_limit: SimDuration) -> Engine {
        Engine::with_scratch(path, seed, capture_limit, SessionScratch::new())
    }

    /// Runs `logic` to the end and returns the session's capture.
    pub(crate) fn run_traced<L: SessionLogic>(eng: &mut Engine, logic: &mut L) -> Trace {
        let mut trace = Trace::new();
        eng.run_observed(logic, &mut trace, false);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{engine, run_traced};
    use super::*;
    use vstream_capture::NullSink;
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
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            7,
            SimDuration::from_secs(180),
        );
        let mut logic = BulkLogic {
            size: 3_000_000,
            read_total: 0,
            finished_at: None,
        };
        let trace = run_traced(&mut eng, &mut logic);
        assert_eq!(logic.read_total, 3_000_000);
        assert!(logic.finished_at.is_some());
        assert_eq!(trace.total_downloaded(), 3_000_000);
    }

    #[test]
    fn capture_limit_truncates_session() {
        // 100 MB over ~100 Mbps takes >8 s; a 1 s capture must stop early.
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            7,
            SimDuration::from_secs(1),
        );
        let mut logic = BulkLogic {
            size: 100_000_000,
            read_total: 0,
            finished_at: None,
        };
        eng.run_observed(&mut logic, &mut NullSink, false);
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
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            1,
            SimDuration::from_secs(60),
        );
        let mut logic = TimerLogic { fired: Vec::new() };
        eng.run_observed(&mut logic, &mut NullSink, false);
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
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            5,
            SimDuration::from_secs(30),
        );
        let mut logic = TwoConnLogic { read: [0, 0] };
        let trace = run_traced(&mut eng, &mut logic);
        assert_eq!(logic.read, [100_000, 200_000]);
        let conns: std::collections::BTreeSet<u32> = trace.records().map(|p| p.conn).collect();
        assert_eq!(conns, [0, 1].into());
        assert_eq!(eng.connection_count(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| {
            let mut eng = engine(
                NetworkProfile::Residence.build_path(),
                seed,
                SimDuration::from_secs(30),
            );
            let mut logic = BulkLogic {
                size: 2_000_000,
                read_total: 0,
                finished_at: None,
            };
            let trace = run_traced(&mut eng, &mut logic);
            (logic.finished_at, trace.len(), eng.connection_stats(0))
        };
        assert_eq!(run(42), run(42));
        // The Residence path has 1% loss, so a different seed almost surely
        // yields a different packet count.
        assert_ne!(run(42).1, run(43).1);
    }

    /// A bulk transfer over the 20 Mbps Home downlink, with `cross`
    /// competing on it (LRD sources seeded from 99).
    fn home_transfer(cross: Option<CrossTraffic>, size: u64) -> (SimTime, usize) {
        let mut path = NetworkProfile::Home.build_path();
        if let Some(cross) = cross {
            path = path.with_cross_traffic(cross, 99);
        }
        let mut eng = engine(path, 7, SimDuration::from_secs(120));
        let mut logic = BulkLogic {
            size,
            read_total: 0,
            finished_at: None,
        };
        let trace = run_traced(&mut eng, &mut logic);
        (logic.finished_at.expect("transfer completes"), trace.len())
    }

    #[test]
    fn cross_traffic_slows_the_transfer() {
        // Bursts offer 3.2 Mbps on average, but each one holds the
        // bottleneck for about half a second and overflows its queue.
        let (clean, _) = home_transfer(None, 40_000_000);
        let (congested, _) = home_transfer(Some(CrossTraffic::Bursts), 40_000_000);
        assert!(
            congested > clean + SimDuration::from_secs(3),
            "cross traffic had no effect: clean {clean}, congested {congested}"
        );
    }

    #[test]
    fn lrd_cross_traffic_slows_the_transfer_and_is_deterministic() {
        let run = |cfg: Option<LrdCrossConfig>| home_transfer(cfg.map(CrossTraffic::Lrd), 20_000_000);
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
        // On a loss-free path whose queue is never pressured (tiny load),
        // the video flow's packet schedule depends only on the main RNG —
        // which the LRD machinery must never touch. The *byte* stream is
        // identical; arrival jitter from sharing the link is fine, so we
        // compare totals rather than packet timings.
        let run = |with_lrd: bool| {
            let mut path = NetworkProfile::Research.build_path();
            if with_lrd {
                let cfg = LrdCrossConfig::for_load(100_000_000, 1);
                path = path.with_cross_traffic(CrossTraffic::Lrd(cfg), 4);
            }
            let mut eng = engine(path, 13, SimDuration::from_secs(30));
            let mut logic = BulkLogic {
                size: 1_000_000,
                read_total: 0,
                finished_at: None,
            };
            eng.run_observed(&mut logic, &mut NullSink, false);
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
            let mut eng = engine(
                NetworkProfile::Residence.build_path(),
                11,
                SimDuration::from_secs(20),
            );
            let mut sink = Collect(Vec::new());
            let kept = if streamed {
                eng.run_observed(&mut logic, &mut sink, keep_trace);
                eng.into_parts().0
            } else {
                let trace = run_traced(&mut eng, &mut logic);
                trace.replay(&mut sink);
                trace
            };
            (sink.0, kept.len(), logic)
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
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            7,
            SimDuration::from_secs(30),
        );
        let mut logic = BulkLogic {
            size: 500_000,
            read_total: 0,
            finished_at: None,
        };
        let trace = run_traced(&mut eng, &mut logic);
        let incoming = trace.records().filter(|r| r.dir() == TapDirection::Incoming).count();
        let outgoing = trace.records().filter(|r| r.dir() == TapDirection::Outgoing).count();
        assert!(incoming > 0);
        assert!(outgoing > 0, "tap must record ACKs too");
    }

    /// The links record nothing themselves: the engine reads every drop off
    /// the send verdict. On a path that drops in both directions, by queue
    /// overflow and by loss, the ring holds one event per drop the links
    /// counted.
    #[test]
    fn drop_events_equal_the_links_drop_counters() {
        use vstream_net::{LinkConfig, LossModel};
        let link = |bps, queue| {
            let mut cfg = LinkConfig::new(bps, SimDuration::from_millis(20))
                .with_loss(LossModel::bernoulli(0.01));
            cfg.queue_capacity_bytes = queue;
            cfg
        };
        let path = DuplexPath::new(link(10_000_000, 16_000), link(100_000, 600));
        let mut scratch = SessionScratch::new();
        scratch.attach_recorder(Recorder::new(1 << 20));
        let mut eng = Engine::with_scratch(path, 3, SimDuration::from_secs(60), scratch);
        let mut logic = BulkLogic { size: 4_000_000, read_total: 0, finished_at: None };
        eng.run_observed(&mut logic, &mut NullSink, false);
        let links = [Direction::Down, Direction::Up].map(|d| eng.path.link(d).stats());
        let rec = eng.into_parts().1.take_recorder().expect("the engine hands the ring back");
        assert_eq!(rec.dropped(), 0);
        let count = |kind| rec.events().iter().filter(|e| e.kind == kind).count() as u64;
        for (dir, l) in ["down", "up"].iter().zip(&links) {
            assert!(l.queue_drops > 0 && l.random_drops > 0, "{dir}: {l:?}");
        }
        let [down, up] = links;
        assert_eq!(count(EventKind::NetQueueDrop), down.queue_drops + up.queue_drops);
        assert_eq!(count(EventKind::NetRandomDrop), down.random_drops + up.random_drops);
        assert!(count(EventKind::NetBacklogHwm) > 0);
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
