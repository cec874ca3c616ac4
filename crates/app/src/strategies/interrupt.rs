//! User-interruption wrapper (§6.2).
//!
//! Most streaming sessions are abandoned: Gill et al. attribute 80 % of
//! interruptions to lack of interest, and Finamore et al. find 60 % of
//! videos watched for less than 20 % of their duration. [`InterruptAfter`]
//! wraps any strategy logic and closes the player after a fixed watch time,
//! so the waste experiments can measure downloaded-but-unwatched bytes.

use vstream_sim::SimDuration;

use crate::engine::{Engine, SessionLogic};
use crate::viewer::Viewer;

/// Timer id reserved for the interruption (strategies use small ids).
const INTERRUPT_ID: u32 = u32::MAX;

/// Wraps a session logic and stops the session after `watch_time`.
pub struct InterruptAfter<L> {
    /// The wrapped strategy logic.
    pub inner: L,
    watch_time: SimDuration,
    /// True once the interruption fired.
    pub interrupted: bool,
}

impl<L> InterruptAfter<L> {
    /// Wraps `inner`, interrupting after `watch_time` of wall-clock session
    /// time (the paper's τ, measured from playback start; with fast
    /// buffering the two coincide, as §6.2 assumes).
    pub fn new(inner: L, watch_time: SimDuration) -> Self {
        InterruptAfter {
            inner,
            watch_time,
            interrupted: false,
        }
    }
}

impl<L: SessionLogic> SessionLogic for InterruptAfter<L> {
    fn on_start(&mut self, eng: &mut Engine) {
        eng.schedule_app_timer(self.watch_time, INTERRUPT_ID);
        self.inner.on_start(eng);
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        self.inner.on_established(eng, conn);
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        self.inner.on_data_available(eng, conn);
    }

    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        self.inner.on_eof(eng, conn);
    }

    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        if id == INTERRUPT_ID {
            self.interrupted = true;
            eng.stop();
        } else {
            self.inner.on_app_timer(eng, id);
        }
    }

    fn viewer(&self) -> Option<&Viewer> {
        self.inner.viewer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::engine;
    use vstream_capture::NullSink;
    use crate::strategies::{BulkLogic, ServerPacedConfig, ServerPacedLogic};
    use crate::video::Video;
    use vstream_net::NetworkProfile;
    use vstream_sim::SimTime;

    #[test]
    fn interruption_stops_the_session() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            31,
            SimDuration::from_secs(180),
        );
        let mut logic = InterruptAfter::new(
            ServerPacedLogic::new(ServerPacedConfig::default(), video),
            SimDuration::from_secs(30),
        );
        eng.run_observed(&mut logic, &mut NullSink, false);
        assert!(logic.interrupted);
        assert!(eng.now() <= SimTime::from_secs(30));
        // Downloaded roughly the buffering phase plus a little steady state,
        // far less than the whole video.
        let read = logic.viewer().expect("the wrapper forwards the viewer").read_total();
        assert!(read < video.size_bytes() / 2);
        assert!(read > 0);
    }

    #[test]
    fn bulk_interruption_wastes_more_than_paced() {
        // The §5.3/Table 2 comparison: on interruption, bulk transfer has
        // downloaded far more unwatched bytes than the paced strategy.
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
        let watch = SimDuration::from_secs(60);

        let mut eng_bulk = engine(
            NetworkProfile::Research.build_path(),
            31,
            SimDuration::from_secs(180),
        );
        let mut bulk = InterruptAfter::new(BulkLogic::new(video), watch);
        eng_bulk.run_observed(&mut bulk, &mut NullSink, false);

        let mut eng_paced = engine(
            NetworkProfile::Research.build_path(),
            31,
            SimDuration::from_secs(180),
        );
        let mut paced = InterruptAfter::new(
            ServerPacedLogic::new(ServerPacedConfig::default(), video),
            watch,
        );
        eng_paced.run_observed(&mut paced, &mut NullSink, false);

        let waste_bulk = bulk.viewer().expect("bulk has a player").player().buffer_bytes();
        let waste_paced = paced.viewer().expect("paced has a player").player().buffer_bytes();
        assert!(
            waste_bulk > 2 * waste_paced,
            "bulk waste {waste_bulk} not >> paced waste {waste_paced}"
        );
    }

    #[test]
    fn no_interruption_before_deadline() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(10));
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            31,
            SimDuration::from_secs(180),
        );
        // Watch time beyond the capture: never fires within the run.
        let mut logic = InterruptAfter::new(BulkLogic::new(video), SimDuration::from_secs(300));
        eng.run_observed(&mut logic, &mut NullSink, false);
        assert!(!logic.interrupted);
        assert_eq!(logic.viewer().expect("bulk has a player").read_total(), video.size_bytes());
    }
}
