//! Congestion control: one loss-recovery state machine, two growth laws.
//!
//! The controller is a pure state machine over byte counts — it never touches
//! segments or timers — which makes every transition unit-testable. The
//! [`crate::Endpoint`] feeds it ACK events and asks it for the current
//! congestion window.
//!
//! Duplicate-ACK counting, NewReno/SACK fast recovery, the timeout collapse
//! and the idle restart are the same for every algorithm and exist once.
//! What [`CcAlgorithm`] selects is the *law*: how the window grows in
//! congestion avoidance and how far it backs off on loss. Reno is the
//! default (it is what the workspace's vantage-point calibration assumes).
//! CUBIC — the actual 2011 Linux default — is provided for the `ext-cc`
//! ablation, which confirms that the paper's ON-OFF traffic structure is
//! application-driven and survives a controller swap: only the shape of the
//! ramp inside each ON burst changes.
//!
//! CUBIC follows RFC 8312 with two simplifications, chosen because the
//! streaming workloads never exercise them: no TCP-friendly region (it needs
//! an RTT estimate inside the controller and only matters on long-lived
//! loss-limited flows sharing a bottleneck with Reno), and no fast
//! convergence heuristic.

use vstream_sim::SimTime;

use crate::config::{INITIAL_CWND_SEGMENTS, MSS};

/// The initial (and idle-restart) congestion window in bytes.
const INITIAL_CWND: u64 = MSS * INITIAL_CWND_SEGMENTS;

/// Which congestion-control algorithm a connection runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Reno with NewReno recovery.
    #[default]
    Reno,
    /// CUBIC (RFC 8312, simplified).
    Cubic,
}

/// Outcome of processing a cumulative ACK that advanced `snd_una`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NewAckOutcome {
    /// Normal ACK outside loss recovery.
    Normal,
    /// ACK covered everything outstanding at the time recovery started;
    /// recovery is over.
    RecoveryComplete,
    /// Partial ACK inside recovery: the next hole should be retransmitted
    /// immediately (NewReno).
    RecoveryPartial,
}

/// CUBIC's scaling constant, in MSS/s³ (RFC 8312 recommends 0.4).
const CUBIC_C: f64 = 0.4;
/// CUBIC's multiplicative decrease factor (RFC 8312: 0.7).
const CUBIC_BETA: f64 = 0.7;

/// The state CUBIC's growth law carries between ACKs.
#[derive(Clone, Debug)]
struct Cubic {
    /// Window (bytes) just before the last loss event.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// cwnd at the start of the epoch, in bytes.
    epoch_cwnd: f64,
}

impl Cubic {
    /// The cubic window function W(t), in bytes.
    fn window_at(&self, t_secs: f64) -> f64 {
        let mss = MSS as f64;
        let w_max_mss = self.w_max / mss;
        // K = cbrt(W_max * (1 - beta) / C), in seconds.
        let k = (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let w_mss = CUBIC_C * (t_secs - k).powi(3) + w_max_mss;
        w_mss * mss
    }
}

/// The congestion controller of one connection.
#[derive(Clone, Debug)]
pub(crate) struct CongestionController {
    max_cwnd: u64,
    cwnd: u64,
    ssthresh: u64,
    dup_acks: u32,
    in_recovery: bool,
    /// Highest sequence sent when the current recovery started; recovery ends
    /// once the cumulative ACK passes this point.
    recover: u64,
    /// True when the endpoint negotiated SACK. With SACK, recovery is
    /// governed by the RFC 6675 pipe estimate, so the classic Reno window
    /// inflation (one MSS per duplicate ACK) must be disabled — applying
    /// both would double-count every departure and blow the window up.
    sack_mode: bool,
    /// CUBIC's growth-law state; `None` runs Reno's law.
    cubic: Option<Cubic>,
}

impl CongestionController {
    /// Creates a controller for `algorithm`, in slow start with the
    /// initial window.
    pub(crate) fn new(algorithm: CcAlgorithm, max_cwnd: u64) -> Self {
        CongestionController {
            max_cwnd,
            cwnd: INITIAL_CWND,
            ssthresh: u64::MAX,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            sack_mode: false,
            cubic: match algorithm {
                CcAlgorithm::Reno => None,
                CcAlgorithm::Cubic => Some(Cubic {
                    w_max: INITIAL_CWND as f64,
                    epoch_start: None,
                    epoch_cwnd: INITIAL_CWND as f64,
                }),
            },
        }
    }

    /// Switches recovery to SACK (RFC 6675) conventions: no dupACK window
    /// inflation, recovery entered at `ssthresh` exactly.
    pub(crate) fn set_sack_mode(&mut self, on: bool) {
        self.sack_mode = on;
    }

    /// Current congestion window in bytes.
    pub(crate) fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub(crate) fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// True while in fast recovery.
    pub(crate) fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Processes a cumulative ACK that acknowledged `newly_acked` new bytes,
    /// up to sequence `ack_no`, at time `now` (CUBIC's window curve runs on
    /// the clock).
    ///
    /// `cwnd_limited` must be true if the sender was actually using the whole
    /// congestion window before this ACK; an application-limited sender must
    /// not grow its window (RFC 2861 spirit).
    #[inline]
    pub(crate) fn on_new_ack(
        &mut self,
        now: SimTime,
        newly_acked: u64,
        ack_no: u64,
        cwnd_limited: bool,
    ) -> NewAckOutcome {
        self.dup_acks = 0;
        if self.in_recovery {
            if ack_no >= self.recover {
                // Full ACK: deflate back to ssthresh and resume avoidance.
                self.in_recovery = false;
                self.cwnd = self.ssthresh.max(MSS);
                self.end_epoch();
                NewAckOutcome::RecoveryComplete
            } else {
                // RFC 6675: with SACK the window holds at ssthresh for the
                // whole recovery episode; the pipe estimate regulates sending.
                if !self.sack_mode {
                    // Partial ACK: deflate by the amount acked, re-inflate by
                    // one MSS for the retransmission we are about to make
                    // (RFC 6582).
                    self.cwnd = self.cwnd.saturating_sub(newly_acked).max(MSS) + MSS;
                }
                NewAckOutcome::RecoveryPartial
            }
        } else {
            if cwnd_limited {
                self.cwnd += if self.cwnd < self.ssthresh {
                    // Slow start with appropriate byte counting (ABC, L=1).
                    newly_acked.min(MSS)
                } else {
                    self.avoidance_increment(now)
                };
                self.cwnd = self.cwnd.min(self.max_cwnd);
            }
            NewAckOutcome::Normal
        }
    }

    /// The growth law: bytes one ACK adds to the window in congestion
    /// avoidance.
    #[inline]
    fn avoidance_increment(&mut self, now: SimTime) -> u64 {
        // Reno: ~one MSS per RTT. Also CUBIC's floor below its curve.
        let reno = (MSS * MSS / self.cwnd).max(1);
        let Some(cubic) = &mut self.cubic else {
            return reno;
        };
        // Cubic growth toward (and past) w_max.
        let cwnd = self.cwnd as f64;
        let epoch = *cubic.epoch_start.get_or_insert_with(|| {
            cubic.epoch_cwnd = cwnd;
            now
        });
        let t = now.saturating_duration_since(epoch).as_secs_f64();
        let target = cubic.window_at(t).max(cubic.epoch_cwnd);
        if target > cwnd {
            // Standard per-ACK increment: (target - cwnd)/cwnd segments'
            // worth of bytes.
            let inc = (target - cwnd) / cwnd * MSS as f64;
            (inc as u64).max(1)
        } else {
            reno
        }
    }

    /// The decrease law: sets `ssthresh` for a loss detected with `flight`
    /// bytes outstanding — half the flight for Reno, β times the window
    /// before the loss for CUBIC, which also remembers that window as the
    /// plateau of its next curve.
    fn reduce_ssthresh(&mut self, flight: u64) {
        let target = match &mut self.cubic {
            None => flight / 2,
            Some(cubic) => {
                cubic.w_max = self.cwnd.max(flight) as f64;
                cubic.epoch_start = None;
                (cubic.w_max * CUBIC_BETA) as u64
            }
        };
        self.ssthresh = target.max(2 * MSS);
    }

    /// Ends CUBIC's avoidance epoch; the next growth step starts a new one.
    fn end_epoch(&mut self) {
        if let Some(cubic) = &mut self.cubic {
            cubic.epoch_start = None;
        }
    }

    /// Processes a duplicate ACK.
    ///
    /// Returns true exactly when the third duplicate arrives outside
    /// recovery, i.e. when the caller must fast-retransmit the first
    /// outstanding segment. `flight` is the number of bytes outstanding,
    /// `snd_max` the highest sequence sent so far.
    #[inline]
    pub(crate) fn on_duplicate_ack(&mut self, flight: u64, snd_max: u64) -> bool {
        if self.in_recovery {
            // Without SACK the window inflates by one MSS per dupACK (each
            // signals a departure). With SACK the pipe estimate accounts for
            // departures directly, so inflation would double-count.
            if !self.sack_mode {
                self.cwnd = (self.cwnd + MSS).min(self.max_cwnd);
            }
            return false;
        }
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            self.reduce_ssthresh(flight);
            self.cwnd = if self.sack_mode {
                self.ssthresh
            } else {
                self.ssthresh + 3 * MSS
            };
            self.in_recovery = true;
            self.recover = snd_max;
            true
        } else {
            false
        }
    }

    /// Processes a retransmission timeout: collapse to one MSS and restart
    /// slow start.
    pub(crate) fn on_timeout(&mut self, flight: u64) {
        self.reduce_ssthresh(flight);
        self.cwnd = MSS;
        self.in_recovery = false;
        self.dup_acks = 0;
    }

    /// Applies the RFC 5681 §4.1 idle restart: cwnd falls back to the
    /// restart window. Only called by the endpoint when
    /// [`crate::TcpConfig::idle_cwnd_reset`] is enabled.
    pub(crate) fn idle_restart(&mut self) {
        self.cwnd = self.cwnd.min(INITIAL_CWND);
        self.dup_acks = 0;
        self.end_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> CongestionController {
        CongestionController::new(CcAlgorithm::Reno, 16 * 1024 * 1024)
    }

    fn cubic() -> CongestionController {
        CongestionController::new(CcAlgorithm::Cubic, 64 * 1024 * 1024)
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn default_algorithm_is_reno() {
        assert_eq!(CcAlgorithm::default(), CcAlgorithm::Reno);
    }

    #[test]
    fn starts_in_slow_start_with_initial_window() {
        let c = cc();
        assert_eq!(c.cwnd(), 4 * MSS);
        assert!(c.cwnd() < c.ssthresh() && !c.in_recovery());
        assert!(!c.in_recovery());
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = cc();
        let start = c.cwnd();
        // ACK a full window's worth in MSS chunks.
        let acks = start / MSS;
        for _ in 0..acks {
            c.on_new_ack(SimTime::ZERO, MSS, 0, true);
        }
        assert_eq!(c.cwnd(), 2 * start);
    }

    #[test]
    fn congestion_avoidance_grows_one_mss_per_rtt() {
        let mut c = cc();
        // Force out of slow start.
        c.on_duplicate_ack(20 * MSS, 100 * MSS);
        c.on_duplicate_ack(20 * MSS, 100 * MSS);
        c.on_duplicate_ack(20 * MSS, 100 * MSS);
        c.on_new_ack(SimTime::ZERO, MSS, 200 * MSS, true); // completes recovery
        assert!(c.cwnd() >= c.ssthresh());
        let w = c.cwnd();
        let acks = w / MSS;
        for _ in 0..acks {
            c.on_new_ack(SimTime::ZERO, MSS, 300 * MSS, true);
        }
        let grown = c.cwnd() - w;
        // Congestion avoidance adds mss^2/cwnd per ACK; over one window this
        // sums to slightly less than a full MSS because cwnd grows as it
        // goes. Accept [0.9 MSS, MSS + acks].
        assert!(
            grown >= MSS * 9 / 10 && grown <= MSS + acks,
            "grew {grown} bytes over one RTT"
        );
    }

    #[test]
    fn app_limited_sender_does_not_grow() {
        let mut c = cc();
        let w = c.cwnd();
        for _ in 0..50 {
            c.on_new_ack(SimTime::ZERO, MSS, 0, false);
        }
        assert_eq!(c.cwnd(), w);
    }

    #[test]
    fn third_dupack_triggers_fast_retransmit() {
        let mut c = cc();
        let flight = 10 * MSS;
        assert!(!c.on_duplicate_ack(flight, flight));
        assert!(!c.on_duplicate_ack(flight, flight));
        assert!(c.on_duplicate_ack(flight, flight));
        assert!(c.in_recovery());
        assert_eq!(c.ssthresh(), 5 * MSS);
        assert_eq!(c.cwnd(), 5 * MSS + 3 * MSS);
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut c = cc();
        for _ in 0..3 {
            c.on_duplicate_ack(MSS, MSS);
        }
        assert_eq!(c.ssthresh(), 2 * MSS);
    }

    #[test]
    fn recovery_inflates_on_further_dupacks() {
        let mut c = cc();
        for _ in 0..3 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
        }
        let w = c.cwnd();
        c.on_duplicate_ack(10 * MSS, 10 * MSS);
        assert_eq!(c.cwnd(), w + MSS);
    }

    #[test]
    fn partial_ack_stays_in_recovery() {
        let mut c = cc();
        for _ in 0..3 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
        }
        let outcome = c.on_new_ack(SimTime::ZERO, 2 * MSS, 5 * MSS, true);
        assert_eq!(outcome, NewAckOutcome::RecoveryPartial);
        assert!(c.in_recovery());
    }

    #[test]
    fn full_ack_completes_recovery_and_deflates() {
        let mut c = cc();
        for _ in 0..3 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
        }
        let outcome = c.on_new_ack(SimTime::ZERO, 10 * MSS, 10 * MSS, true);
        assert_eq!(outcome, NewAckOutcome::RecoveryComplete);
        assert!(!c.in_recovery());
        assert_eq!(c.cwnd(), c.ssthresh());
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut c = cc();
        for _ in 0..20 {
            c.on_new_ack(SimTime::ZERO, MSS, 0, true);
        }
        c.on_timeout(12 * MSS);
        assert_eq!(c.cwnd(), MSS);
        assert_eq!(c.ssthresh(), 6 * MSS);
        assert!(c.cwnd() < c.ssthresh() && !c.in_recovery());
    }

    #[test]
    fn idle_restart_caps_at_initial_window() {
        let mut c = cc();
        for _ in 0..100 {
            c.on_new_ack(SimTime::ZERO, MSS, 0, true);
        }
        assert!(c.cwnd() > 4 * MSS);
        c.idle_restart();
        assert_eq!(c.cwnd(), 4 * MSS);
        // A small cwnd is not inflated by idle restart.
        c.on_timeout(10 * MSS);
        c.idle_restart();
        assert_eq!(c.cwnd(), MSS);
    }

    #[test]
    fn cwnd_never_exceeds_cap() {
        let mut c = CongestionController::new(CcAlgorithm::Reno, 10 * 1460);
        for _ in 0..1000 {
            c.on_new_ack(SimTime::ZERO, MSS, 0, true);
        }
        assert_eq!(c.cwnd(), 10 * 1460);
    }

    #[test]
    fn sack_mode_holds_cwnd_through_partial_acks() {
        let mut c = cc();
        c.set_sack_mode(true);
        for _ in 0..3 {
            c.on_duplicate_ack(100 * MSS, 100 * MSS);
        }
        let w = c.cwnd();
        // Large partial ACKs must not deflate the window.
        for _ in 0..10 {
            let out = c.on_new_ack(SimTime::ZERO, 20 * MSS, 50 * MSS, true);
            assert_eq!(out, NewAckOutcome::RecoveryPartial);
        }
        assert_eq!(c.cwnd(), w);
    }

    #[test]
    fn sack_mode_disables_inflation() {
        let mut c = cc();
        c.set_sack_mode(true);
        for _ in 0..3 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
        }
        assert!(c.in_recovery());
        assert_eq!(c.cwnd(), c.ssthresh(), "entry at ssthresh, no +3 MSS");
        let w = c.cwnd();
        for _ in 0..100 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
        }
        assert_eq!(c.cwnd(), w, "dupACK inflation must be off with SACK");
    }

    #[test]
    fn dupack_count_resets_on_new_ack() {
        let mut c = cc();
        c.on_duplicate_ack(10 * MSS, 10 * MSS);
        c.on_duplicate_ack(10 * MSS, 10 * MSS);
        c.on_new_ack(SimTime::ZERO, MSS, 0, true);
        // Two more dupACKs do not trigger (count restarted).
        assert!(!c.on_duplicate_ack(10 * MSS, 10 * MSS));
        assert!(!c.on_duplicate_ack(10 * MSS, 10 * MSS));
        assert!(c.on_duplicate_ack(10 * MSS, 10 * MSS));
    }

    #[test]
    fn cubic_slow_start_matches_reno() {
        let mut c = cubic();
        let start = c.cwnd();
        let acks = start / MSS;
        for _ in 0..acks {
            c.on_new_ack(t(0.0), MSS, 0, true);
        }
        assert_eq!(c.cwnd(), 2 * start);
    }

    #[test]
    fn cubic_loss_reduces_by_beta() {
        let mut c = cubic();
        for _ in 0..100 {
            c.on_new_ack(t(0.0), MSS, 0, true);
        }
        let before = c.cwnd();
        for _ in 0..3 {
            c.on_duplicate_ack(before, before);
        }
        assert!(c.in_recovery());
        // ssthresh = 0.7 * w_max.
        let expected = (before as f64 * CUBIC_BETA) as u64;
        assert!(
            (c.ssthresh() as i64 - expected as i64).unsigned_abs() <= MSS,
            "ssthresh {} vs 0.7*w_max {expected}",
            c.ssthresh()
        );
    }

    #[test]
    fn cubic_growth_accelerates_past_plateau() {
        // After a loss, growth is concave up to w_max, then convex beyond:
        // the increment rate near the plateau is smaller than far past it.
        let mut c = cubic();
        // Build a large window, then lose.
        for _ in 0..2000 {
            c.on_new_ack(t(0.0), MSS, 0, true);
        }
        let w_loss = c.cwnd();
        for _ in 0..3 {
            c.on_duplicate_ack(w_loss, w_loss);
        }
        c.on_new_ack(t(10.1), MSS, w_loss * 2, true); // recovery complete
        assert!(!c.in_recovery());

        // Sample growth over simulated time; CUBIC time-driven growth.
        let mut last = c.cwnd();
        let mut deltas = Vec::new();
        for i in 1..=40 {
            let now = t(10.1 + i as f64 * 0.5);
            // A real flow at this window produces ~cwnd/MSS ACKs per RTT;
            // feed a few hundred per step so growth is curve-limited, not
            // ACK-starved.
            for _ in 0..400 {
                c.on_new_ack(now, MSS, w_loss * 2, true);
            }
            deltas.push(c.cwnd() as i64 - last as i64);
            last = c.cwnd();
        }
        // Recovers to near w_max and then exceeds it.
        assert!(
            c.cwnd() as f64 > w_loss as f64,
            "cwnd {} did not pass w_max {w_loss}",
            c.cwnd()
        );
        // Convex tail: the last growth steps outpace the plateau-area steps.
        let mid = deltas[deltas.len() / 2];
        let end = *deltas.last().unwrap();
        assert!(end > mid, "growth did not accelerate: mid {mid}, end {end}");
    }

    #[test]
    fn cubic_timeout_collapses_and_restarts_epoch() {
        let mut c = cubic();
        for _ in 0..50 {
            c.on_new_ack(t(0.0), MSS, 0, true);
        }
        c.on_timeout(20 * MSS);
        assert_eq!(c.cwnd(), MSS);
        assert!(c.cwnd() < c.ssthresh() && !c.in_recovery());
    }

    #[test]
    fn cubic_app_limited_does_not_grow() {
        let mut c = cubic();
        let w = c.cwnd();
        for _ in 0..100 {
            c.on_new_ack(t(1.0), MSS, 0, false);
        }
        assert_eq!(c.cwnd(), w);
    }

    #[test]
    fn cubic_sack_mode_recovery_conventions() {
        let mut c = cubic();
        c.set_sack_mode(true);
        for _ in 0..3 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
        }
        assert_eq!(c.cwnd(), c.ssthresh());
        let w = c.cwnd();
        for _ in 0..10 {
            c.on_duplicate_ack(10 * MSS, 10 * MSS);
            c.on_new_ack(t(0.1), MSS, 5 * MSS, true);
        }
        assert_eq!(c.cwnd(), w, "no inflation/deflation in SACK mode");
    }

    #[test]
    fn cubic_window_curve_has_plateau_at_w_max() {
        let c = {
            let mut c = cubic();
            for _ in 0..500 {
                c.on_new_ack(t(0.0), MSS, 0, true);
            }
            let w = c.cwnd();
            for _ in 0..3 {
                c.on_duplicate_ack(w, w);
            }
            c
        };
        let law = c.cubic.as_ref().expect("constructed as CUBIC");
        // At t = K, W(t) = w_max exactly.
        let w_max_mss = law.w_max / MSS as f64;
        let k = (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        let at_k = law.window_at(k);
        assert!(
            (at_k - law.w_max).abs() < 1.0,
            "W(K) = {at_k} vs w_max {}",
            law.w_max
        );
    }

    /// Both laws, with and without SACK, driven through the same random
    /// event scripts. The script is independent of any controller's state
    /// (flights and ACK points are drawn, not derived from cwnd), so all
    /// four controllers see identical inputs and the recovery machine they
    /// share must move in lock step: same fast-retransmit decisions, same
    /// ACK outcomes, same recovery state after every event.
    #[test]
    fn both_laws_share_one_recovery_machine() {
        use vstream_sim::{SimDuration, SimRng};

        const MAX_CWND: u64 = 64 * MSS;
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0xCC00 + seed);
            let mut ccs: Vec<CongestionController> = [
                (CcAlgorithm::Reno, false),
                (CcAlgorithm::Reno, true),
                (CcAlgorithm::Cubic, false),
                (CcAlgorithm::Cubic, true),
            ]
            .into_iter()
            .map(|(algorithm, sack)| {
                let mut c = CongestionController::new(algorithm, MAX_CWND);
                c.set_sack_mode(sack);
                c
            })
            .collect();
            let mut now = SimTime::ZERO;
            let mut ack_no = 0u64;
            // `Some(recover)` while the script has the controllers in
            // recovery: the `snd_max` of the dupACK that started it.
            let mut recovering: Option<u64> = None;
            let mut dup_acks = 0u32;
            for step in 0..400 {
                let ctx = format!("seed {seed} step {step}");
                now += SimDuration::from_millis(rng.uniform_u64(1, 200));
                let flight = rng.uniform_u64(1, 65) * MSS;
                let before: Vec<u64> = ccs.iter().map(CongestionController::cwnd).collect();
                match rng.uniform_u64(0, 100) {
                    0..=54 => {
                        let newly_acked = rng.uniform_u64(1, 5) * MSS;
                        ack_no += newly_acked;
                        let limited = rng.bernoulli(0.8);
                        let expected = match recovering {
                            None => NewAckOutcome::Normal,
                            Some(recover) if ack_no >= recover => NewAckOutcome::RecoveryComplete,
                            Some(_) => NewAckOutcome::RecoveryPartial,
                        };
                        for (c, &w) in ccs.iter_mut().zip(&before) {
                            assert_eq!(
                                c.on_new_ack(now, newly_acked, ack_no, limited),
                                expected,
                                "{ctx}"
                            );
                            if expected == NewAckOutcome::RecoveryPartial && c.sack_mode {
                                assert_eq!(c.cwnd(), w, "{ctx}: SACK partial ACK moved cwnd");
                            }
                        }
                        if expected == NewAckOutcome::RecoveryComplete {
                            recovering = None;
                        }
                        dup_acks = 0;
                    }
                    55..=89 => {
                        if recovering.is_none() {
                            dup_acks += 1;
                        }
                        let fast_retransmit = recovering.is_none() && dup_acks == 3;
                        let snd_max = ack_no + flight;
                        for (c, &w) in ccs.iter_mut().zip(&before) {
                            assert_eq!(
                                c.on_duplicate_ack(flight, snd_max),
                                fast_retransmit,
                                "{ctx}"
                            );
                            if recovering.is_some() && c.sack_mode {
                                assert_eq!(c.cwnd(), w, "{ctx}: SACK dupACK inflated cwnd");
                            }
                            if fast_retransmit && c.sack_mode {
                                assert_eq!(
                                    c.cwnd(),
                                    c.ssthresh(),
                                    "{ctx}: SACK entry above ssthresh"
                                );
                            }
                        }
                        if fast_retransmit {
                            recovering = Some(snd_max);
                        }
                    }
                    90..=95 => {
                        for c in &mut ccs {
                            c.on_timeout(flight);
                            assert_eq!(c.cwnd(), MSS, "{ctx}");
                        }
                        recovering = None;
                        dup_acks = 0;
                    }
                    // The endpoint restarts only with nothing in flight,
                    // which is never inside recovery.
                    _ if recovering.is_none() => {
                        for c in &mut ccs {
                            c.idle_restart();
                            assert!(c.cwnd() <= 4 * MSS, "{ctx}");
                        }
                        dup_acks = 0;
                    }
                    _ => {}
                }
                for c in &ccs {
                    assert_eq!(c.in_recovery(), recovering.is_some(), "{ctx}");
                    assert!(
                        (MSS..=MAX_CWND).contains(&c.cwnd()),
                        "{ctx}: cwnd {} outside [mss, max_cwnd]",
                        c.cwnd()
                    );
                    assert!(c.ssthresh() >= 2 * MSS, "{ctx}");
                }
            }
        }
    }
}
