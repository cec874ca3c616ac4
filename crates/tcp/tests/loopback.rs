//! End-to-end TCP tests over a real simulated path: finite bandwidth,
//! propagation delay, queues, and random loss. A miniature event loop drives
//! two endpoints through a `DuplexPath`, mirroring what the streaming session
//! orchestrator in `vstream-app` does at full scale.

use std::collections::BTreeMap;

use vstream_net::{Direction, DuplexPath, LinkConfig, LossModel, NetworkProfile};
use vstream_sim::{EventQueue, SimDuration, SimRng, SimTime};
use vstream_tcp::{Endpoint, Role, Segment, TcpConfig};

/// Calls one of the endpoint's `_into` methods on a fresh buffer and returns
/// the segments it appended.
fn emitted(call: impl FnOnce(&mut Vec<Segment>)) -> Vec<Segment> {
    let mut out = Vec::new();
    call(&mut out);
    out
}

/// Events of the miniature loop.
enum Event {
    DeliverToClient(Segment),
    DeliverToServer(Segment),
    /// Re-check endpoint timers.
    Tick,
}

/// The server's SACK scoreboard rebuilt from the ACKs it receives: the
/// union of the reported blocks above the cumulative ACK, as a start → end
/// map kept merged.
#[derive(Default)]
struct WireScoreboard {
    una: u64,
    ranges: BTreeMap<u64, u64>,
    /// Most ranges held at once.
    widest: usize,
}

impl WireScoreboard {
    fn on_ack(&mut self, seg: &Segment) {
        if !seg.ack {
            return;
        }
        for (start, end) in seg.sack.iter() {
            let (mut start, mut end) = (start.max(self.una), end);
            if start >= end {
                continue;
            }
            let touched: Vec<(u64, u64)> =
                self.ranges.range(..=end).filter(|r| *r.1 >= start).map(|(&s, &e)| (s, e)).collect();
            for (s, e) in touched {
                self.ranges.remove(&s);
                start = start.min(s);
                end = end.max(e);
            }
            self.ranges.insert(start, end);
        }
        if seg.ack_no > self.una {
            self.una = seg.ack_no;
            let straddler = self.ranges.range(..self.una).next_back().map(|(_, &e)| e);
            self.ranges = self.ranges.split_off(&self.una);
            if let Some(end) = straddler.filter(|&e| e > self.una) {
                self.ranges.insert(self.una, end);
            }
        }
        self.widest = self.widest.max(self.ranges.len());
    }
}

struct Harness {
    client: Endpoint,
    server: Endpoint,
    path: DuplexPath,
    queue: EventQueue<Event>,
    rng: SimRng,
    scoreboard: WireScoreboard,
    /// The client's and the server's timer deadline when a `Tick` was last
    /// queued for it.
    tick_queued: [Option<SimTime>; 2],
}

impl Harness {
    fn new(client_cfg: TcpConfig, server_cfg: TcpConfig, path: DuplexPath) -> Self {
        Harness {
            client: Endpoint::new(Role::Client, 1, client_cfg),
            server: Endpoint::new(Role::Server, 1, server_cfg),
            path,
            queue: EventQueue::new(),
            rng: SimRng::new(0xBEEF),
            scoreboard: WireScoreboard::default(),
            tick_queued: [None, None],
        }
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn transmit_from_client(&mut self, segs: Vec<Segment>) {
        let now = self.now();
        for seg in segs {
            if let Some(at) = self.path.send(Direction::Up, now, &seg, &mut self.rng).delivery_time() {
                self.queue.schedule(at, Event::DeliverToServer(seg));
            }
        }
    }

    fn transmit_from_server(&mut self, segs: Vec<Segment>) {
        let now = self.now();
        for seg in segs {
            if let Some(at) = self.path.send(Direction::Down, now, &seg, &mut self.rng).delivery_time() {
                self.queue.schedule(at, Event::DeliverToClient(seg));
            }
        }
    }

    /// Queues a `Tick` for each endpoint whose timer deadline moved since
    /// the last one queued for it. A tick finds the due timers itself, so a
    /// stale one (its deadline since moved or fired) is a harmless no-op.
    fn reschedule_timers(&mut self) {
        let now = self.now();
        let deadlines = [self.client.next_timer(), self.server.next_timer()];
        for (queued, deadline) in self.tick_queued.iter_mut().zip(deadlines) {
            if deadline != *queued {
                *queued = deadline;
                if let Some(at) = deadline {
                    self.queue.schedule(at.max(now), Event::Tick);
                }
            }
        }
    }

    /// Runs until `until` or until the event queue drains and no timers are
    /// pending; panics if that takes more than its step budget. The
    /// `each_step` hook lets tests model an application (e.g. one that
    /// reads continuously).
    fn run(&mut self, until: SimTime, mut each_step: impl FnMut(&mut Endpoint, &mut Endpoint, SimTime) -> (Vec<Segment>, Vec<Segment>)) {
        const STEPS: u32 = 2_000_000;
        for _ in 0..STEPS {
            self.reschedule_timers();
            let Some((t, ev)) = (match self.queue.peek_time() {
                Some(t) if t <= until => self.queue.pop(),
                _ => None,
            }) else {
                return;
            };
            match ev {
                Event::DeliverToClient(seg) => {
                    let replies = emitted(|o| self.client.on_segment_into(t, seg, o));
                    self.transmit_from_client(replies);
                }
                Event::DeliverToServer(seg) => {
                    self.scoreboard.on_ack(&seg);
                    let replies = emitted(|o| self.server.on_segment_into(t, seg, o));
                    self.transmit_from_server(replies);
                }
                Event::Tick => {
                    let from_client = emitted(|o| self.client.on_timer_into(t, o));
                    self.transmit_from_client(from_client);
                    let from_server = emitted(|o| self.server.on_timer_into(t, o));
                    self.transmit_from_server(from_server);
                }
            }
            let (cs, ss) = each_step(&mut self.client, &mut self.server, t);
            self.transmit_from_client(cs);
            self.transmit_from_server(ss);
        }
        panic!("the harness ran out of its {STEPS}-step budget at {}", self.now());
    }
}

fn research_path() -> DuplexPath {
    NetworkProfile::Research.build_path()
}

#[test]
fn bulk_transfer_completes_over_real_path() {
    let cfg = TcpConfig::default().with_recv_buffer(4 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, research_path());
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 5_000_000;
    let mut wrote = false;
    let mut read_total = 0u64;
    h.run(SimTime::from_secs(60), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            ss.extend(emitted(|o| server.close_into(t, o)));
            wrote = true;
        }
        // The client application reads continuously (bulk download).
        let mut cs = Vec::new();
        let n = client.read_into(t, u64::MAX, &mut cs);
        read_total += n;
        (cs, ss)
    });
    assert!(wrote);
    assert_eq!(read_total, SIZE);
    assert!(h.client.at_eof());
    assert!(h.server.all_acked());
}

#[test]
fn bulk_transfer_throughput_is_near_link_rate() {
    // 100 Mbps, 30 ms RTT: 10 MB should take just over 0.8 s once slow start
    // has opened up.
    let cfg = TcpConfig::default().with_recv_buffer(8 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, research_path());
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 10_000_000;
    let mut wrote = false;
    let mut read_total = 0u64;
    let mut finished_at = None;
    h.run(SimTime::from_secs(30), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            wrote = true;
        }
        let mut cs = Vec::new();
        let n = client.read_into(t, u64::MAX, &mut cs);
        read_total += n;
        if read_total == SIZE && finished_at.is_none() {
            finished_at = Some(t);
        }
        (cs, ss)
    });
    let t = finished_at.expect("transfer did not finish").as_secs_f64();
    // Ideal: 10 MB * 8 / 100 Mbps = 0.8 s. Allow up to 4 s for slow start,
    // the recovery from its queue overshoot, and the occasional
    // Research-network random loss.
    assert!(t < 4.0, "transfer took {t:.2} s");
    assert!(t > 0.8, "transfer finished impossibly fast ({t:.2} s)");
}

#[test]
fn transfer_survives_heavy_loss() {
    // 5% Bernoulli loss on the downlink: everything must still arrive.
    let down = LinkConfig::new(10_000_000, SimDuration::from_millis(20))
        .with_loss(LossModel::bernoulli(0.05));
    let up = LinkConfig::new(10_000_000, SimDuration::from_millis(20));
    let path = DuplexPath::new(down, up);
    let cfg = TcpConfig::default().with_recv_buffer(2 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, path);
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 1_000_000;
    let mut wrote = false;
    let mut read_total = 0u64;
    h.run(SimTime::from_secs(120), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            ss.extend(emitted(|o| server.close_into(t, o)));
            wrote = true;
        }
        let mut cs = Vec::new();
        let n = client.read_into(t, u64::MAX, &mut cs);
        read_total += n;
        (cs, ss)
    });
    assert_eq!(read_total, SIZE, "stream corrupted by loss recovery");
    assert!(h.client.at_eof());
    assert!(h.server.stats().retx_segments > 0, "no retransmissions under 5% loss?");
}

#[test]
fn recovery_from_bursts_that_lose_a_quarter_of_a_large_window() {
    // A large window hit by a quarter of its segments lost. Bernoulli loss
    // from the first segment never lets the window open (the scoreboard
    // stays at one or two ranges), so the downlink is a Gilbert-Elliott
    // channel: lossless, then bursts of about 500 packets that drop 25 %
    // each. With an 8 MB receive window the SACK scoreboard grows far past
    // 64 ranges; every byte must still arrive, and in debug builds the
    // endpoint's own checks (canonical interval stores, nothing held below
    // `snd_una`) run on every edit and every ACK.
    let down = LinkConfig::new(100_000_000, SimDuration::from_millis(40))
        .with_loss(LossModel::gilbert_elliott(0.0005, 0.002, 0.0, 0.25));
    let up = LinkConfig::new(100_000_000, SimDuration::from_millis(40));
    let cfg = TcpConfig::default().with_recv_buffer(8 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, DuplexPath::new(down, up));
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 8_000_000;
    let mut wrote = false;
    let mut read_total = 0u64;
    h.run(SimTime::from_secs(600), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            ss.extend(emitted(|o| server.close_into(t, o)));
            wrote = true;
        }
        let mut cs = Vec::new();
        read_total += client.read_into(t, u64::MAX, &mut cs);
        (cs, ss)
    });
    assert_eq!(read_total, SIZE, "stream corrupted by loss recovery");
    assert!(h.client.at_eof());
    assert!(h.server.all_acked());
    assert!(h.scoreboard.widest > 64, "scoreboard peaked at {} ranges", h.scoreboard.widest);
}

#[test]
fn long_fat_transfer_completes_within_the_step_budget() {
    // 20 MB over a loss-free 100 Mbps path with an 80 ms round trip and an
    // 8 MB receive window: slow start overshoots the bottleneck queue, and
    // the recovery that follows re-arms the timers on nearly every step.
    let link = || LinkConfig::new(100_000_000, SimDuration::from_millis(40));
    let cfg = TcpConfig::default().with_recv_buffer(8 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, DuplexPath::new(link(), link()));
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 20_000_000;
    let mut wrote = false;
    let mut read_total = 0u64;
    h.run(SimTime::from_secs(600), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            ss.extend(emitted(|o| server.close_into(t, o)));
            wrote = true;
        }
        let mut cs = Vec::new();
        read_total += client.read_into(t, u64::MAX, &mut cs);
        (cs, ss)
    });
    assert_eq!(read_total, SIZE);
    assert!(h.client.at_eof());
    assert!(h.server.all_acked());
}

#[test]
fn retx_rate_tracks_link_loss_rate() {
    let down = LinkConfig::new(10_000_000, SimDuration::from_millis(15))
        .with_loss(LossModel::bernoulli(0.01));
    let up = LinkConfig::new(10_000_000, SimDuration::from_millis(15));
    let path = DuplexPath::new(down, up);
    let cfg = TcpConfig::default().with_recv_buffer(2 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, path);
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 20_000_000;
    let mut wrote = false;
    h.run(SimTime::from_secs(300), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            wrote = true;
        }
        let mut cs = Vec::new();
        client.read_into(t, u64::MAX, &mut cs);
        (cs, ss)
    });
    let rate = h.server.stats().retx_rate();
    assert!(
        rate > 0.005 && rate < 0.03,
        "retx rate {rate:.4} far from the 1% link loss rate"
    );
}

#[test]
fn client_pull_produces_zero_window_and_resumes() {
    // The client reads nothing until the buffer fills, then drains blocks —
    // the HTML5-on-IE pattern. The receive window must hit zero and reopen.
    let client_cfg = TcpConfig::default().with_recv_buffer(256 * 1024);
    let server_cfg = TcpConfig::default();
    let mut h = Harness::new(client_cfg, server_cfg, research_path());
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    const SIZE: u64 = 4_000_000;
    const BLOCK: u64 = 256 * 1024;
    let mut wrote = false;
    let mut read_total = 0u64;
    let mut next_read = SimTime::from_secs(2);
    let mut saw_zero_window = false;
    h.run(SimTime::from_secs(120), |client, server, t| {
        let mut ss = Vec::new();
        let mut cs = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, SIZE, o)));
            ss.extend(emitted(|o| server.close_into(t, o)));
            wrote = true;
        }
        if client.advertised_window() == 0 {
            saw_zero_window = true;
        }
        // Every 2 s, pull one block.
        if t >= next_read {
            let mut upd = Vec::new();
            let n = client.read_into(t, BLOCK, &mut upd);
            read_total += n;
            cs.extend(upd);
            next_read = t + SimDuration::from_secs(2);
        }
        (cs, ss)
    });
    assert!(saw_zero_window, "receive window never closed");
    // Drain whatever remains buffered.
    let n = h.client.read_into(h.now(), u64::MAX, &mut Vec::new());
    read_total += n;
    assert_eq!(read_total, SIZE);
    assert!(h.server.all_acked());
}

#[test]
fn deterministic_given_seed() {
    // Two identical runs produce byte-identical endpoint statistics.
    let run = || {
        let down = LinkConfig::new(10_000_000, SimDuration::from_millis(20))
            .with_loss(LossModel::bernoulli(0.02));
        let up = LinkConfig::new(10_000_000, SimDuration::from_millis(20));
        let cfg = TcpConfig::default().with_recv_buffer(1 << 20);
        let mut h = Harness::new(cfg.clone(), cfg, DuplexPath::new(down, up));
        let syn = h.client.connect(SimTime::ZERO);
        h.transmit_from_client(syn);
        let mut wrote = false;
        h.run(SimTime::from_secs(60), |client, server, t| {
            let mut ss = Vec::new();
            if !wrote && server.is_established() {
                ss.extend(emitted(|o| server.write_into(t, 3_000_000, o)));
                ss.extend(emitted(|o| server.close_into(t, o)));
                wrote = true;
            }
            let mut cs = Vec::new();
            client.read_into(t, u64::MAX, &mut cs);
            (cs, ss)
        });
        (h.server.stats(), h.client.stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn slow_start_ramp_is_visible_on_the_wire() {
    // Measure arrival times at the client: the first RTT delivers the
    // initial window (4 MSS), the next roughly doubles it.
    let cfg = TcpConfig::default().with_recv_buffer(8 << 20);
    let mut h = Harness::new(cfg.clone(), cfg, research_path());
    let syn = h.client.connect(SimTime::ZERO);
    h.transmit_from_client(syn);

    let mut wrote = false;
    let mut arrivals: Vec<(f64, u64)> = Vec::new();
    let mut last_seen = 0u64;
    h.run(SimTime::from_secs(5), |client, server, t| {
        let mut ss = Vec::new();
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, 2_000_000, o)));
            wrote = true;
        }
        let avail = client.available_to_read();
        let mut cs = Vec::new();
        let n = client.read_into(t, u64::MAX, &mut cs);
        if n > 0 {
            last_seen += n;
            arrivals.push((t.as_secs_f64(), last_seen));
        }
        let _ = avail;
        (cs, ss)
    });
    // Bytes delivered within the first ~1.5 RTT after data starts flowing.
    let t0 = arrivals.first().expect("no data arrived").0;
    let in_first_rtt: u64 = arrivals
        .iter()
        .filter(|(t, _)| *t < t0 + 0.030 * 0.9)
        .map(|(_, cum)| *cum)
        .max()
        .unwrap_or(0);
    assert!(
        in_first_rtt <= 5 * 1460,
        "more than the initial window arrived in the first RTT: {in_first_rtt}"
    );
    assert_eq!(arrivals.last().unwrap().1, 2_000_000);
}
