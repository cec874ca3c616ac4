//! End-to-end integrity over randomized loss patterns: whatever the loss
//! pattern, the receiver reads exactly the bytes the sender wrote — once
//! each, in order (our byte-counting model checks length and offset
//! coverage). Each case sweeps a deterministic set of seeded random
//! parameters (formerly proptests).

use vstream_net::{Direction, DuplexPath, LinkConfig, LossModel};
use vstream_sim::{EventQueue, SimDuration, SimRng, SimTime};
use vstream_tcp::{CcAlgorithm, Endpoint, Role, Segment, TcpConfig};

/// Calls one of the endpoint's `_into` methods on a fresh buffer and returns
/// the segments it appended.
fn emitted(call: impl FnOnce(&mut Vec<Segment>)) -> Vec<Segment> {
    let mut out = Vec::new();
    call(&mut out);
    out
}

enum Event {
    ToClient(Segment),
    ToServer(Segment),
    Tick,
}

/// Drives a transfer of `size` bytes over a path with the given loss model
/// until completion or the time limit; returns the bytes read.
fn transfer(
    size: u64,
    loss: LossModel,
    recv_buffer: u64,
    algorithm: CcAlgorithm,
    seed: u64,
) -> u64 {
    let down = LinkConfig::new(8_000_000, SimDuration::from_millis(25)).with_loss(loss);
    let up = LinkConfig::new(8_000_000, SimDuration::from_millis(25));
    let mut path = DuplexPath::new(down, up);
    let mut rng = SimRng::new(seed);
    let mut queue: EventQueue<Event> = EventQueue::new();

    let client_cfg = TcpConfig::default()
        .with_recv_buffer(recv_buffer)
        .with_congestion(algorithm);
    let server_cfg = TcpConfig::default().with_congestion(algorithm);
    let mut client = Endpoint::new(Role::Client, 1, client_cfg);
    let mut server = Endpoint::new(Role::Server, 1, server_cfg);

    for seg in client.connect(SimTime::ZERO) {
        if let Some(at) = path
            .send(Direction::Up, SimTime::ZERO, &seg, &mut rng)
            .delivery_time()
        {
            queue.schedule(at, Event::ToServer(seg));
        }
    }

    let mut wrote = false;
    let mut read = 0u64;
    let limit = SimTime::from_secs(600);
    for _ in 0..5_000_000u64 {
        // (Re-)arm timer ticks.
        for d in [client.next_timer(), server.next_timer()].into_iter().flatten() {
            if queue.peek_time().is_none_or(|pt| d < pt) {
                queue.schedule(d.max(queue.now()), Event::Tick);
            }
        }
        let Some((t, ev)) = (match queue.peek_time() {
            Some(pt) if pt <= limit => queue.pop(),
            _ => None,
        }) else {
            break;
        };
        let (mut cs, mut ss) = (Vec::new(), Vec::new());
        match ev {
            Event::ToClient(seg) => cs = emitted(|o| client.on_segment_into(t, seg, o)),
            Event::ToServer(seg) => ss = emitted(|o| server.on_segment_into(t, seg, o)),
            Event::Tick => {
                cs = emitted(|o| client.on_timer_into(t, o));
                ss = emitted(|o| server.on_timer_into(t, o));
            }
        }
        if !wrote && server.is_established() {
            ss.extend(emitted(|o| server.write_into(t, size, o)));
            ss.extend(emitted(|o| server.close_into(t, o)));
            wrote = true;
        }
        let mut upd = Vec::new();
        let n = client.read_into(t, u64::MAX, &mut upd);
        read += n;
        cs.extend(upd);
        for seg in cs {
            if let Some(at) = path.send(Direction::Up, t, &seg, &mut rng).delivery_time() {
                queue.schedule(at, Event::ToServer(seg));
            }
        }
        for seg in ss {
            if let Some(at) = path.send(Direction::Down, t, &seg, &mut rng).delivery_time() {
                queue.schedule(at, Event::ToClient(seg));
            }
        }
        if read >= size && client.at_eof() {
            break;
        }
    }
    read
}

/// Random Bernoulli loss up to 8%, random sizes and buffers, both
/// congestion controllers: every byte arrives exactly once.
#[test]
fn stream_integrity_bernoulli() {
    for case in 0..24u64 {
        let mut gen = SimRng::new(0xBE12_0000 + case);
        let size = gen.uniform_u64(1_000, 600_000);
        let loss_pct = gen.uniform_u64(0, 8);
        let recv_kb = gen.uniform_u64(8, 256);
        let cubic = gen.bernoulli(0.5);
        let seed = gen.uniform_u64(0, u64::MAX);
        let algorithm = if cubic { CcAlgorithm::Cubic } else { CcAlgorithm::Reno };
        let read = transfer(
            size,
            LossModel::bernoulli(loss_pct as f64 / 100.0),
            recv_kb * 1024,
            algorithm,
            seed,
        );
        assert_eq!(read, size, "case {case}: size {size}, loss {loss_pct}%, recv {recv_kb}kB");
    }
}

/// Deterministic every-Nth loss (adversarial periodic pattern). The
/// floor of n = 4 keeps the loss rate at or below 25%: beyond that,
/// exponential RTO backoff legitimately stretches a transfer past any
/// reasonable time limit (TCP survives, but geologically).
#[test]
fn stream_integrity_periodic_loss() {
    for case in 0..24u64 {
        let mut gen = SimRng::new(0x9E81_0000 + case);
        let size = gen.uniform_u64(1_000, 200_000);
        let n = gen.uniform_u64(4, 40);
        let seed = gen.uniform_u64(0, u64::MAX);
        let read = transfer(size, LossModel::every_nth(n), 64 * 1024, CcAlgorithm::Reno, seed);
        assert_eq!(read, size, "case {case}: size {size}, every_nth {n}");
    }
}

/// Bursty Gilbert-Elliott loss.
#[test]
fn stream_integrity_bursty() {
    for case in 0..24u64 {
        let mut gen = SimRng::new(0xB025_0000 + case);
        let size = gen.uniform_u64(1_000, 300_000);
        let p_gb = gen.uniform_range(0.0, 0.01);
        let seed = gen.uniform_u64(0, u64::MAX);
        let read = transfer(
            size,
            LossModel::gilbert_elliott(p_gb, 0.2, 0.0, 0.8),
            128 * 1024,
            CcAlgorithm::Reno,
            seed,
        );
        assert_eq!(read, size, "case {case}: size {size}, p_gb {p_gb}");
    }
}

#[test]
fn no_loss_baseline() {
    assert_eq!(
        transfer(500_000, LossModel::None, 64 * 1024, CcAlgorithm::Reno, 1),
        500_000
    );
}
