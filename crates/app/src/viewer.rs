//! The client application's outcome of one session: everything the paper
//! reads off the client — startup, stalls and buffer occupancy (Table 2),
//! block cadence, and the bytes read before an interruption (§6.2).

use vstream_obs::trace::EventKind;

use crate::engine::Engine;
use crate::player::Player;
use crate::video::Video;

/// A session's player plus the bytes read, blocks requested and bitrate
/// switches made. Each strategy owns one and reports it through
/// [`SessionLogic::viewer`](crate::engine::SessionLogic::viewer).
#[derive(Clone, Debug)]
pub struct Viewer {
    player: Player,
    read_total: u64,
    blocks: u64,
    switches: u64,
}

impl Viewer {
    /// A viewer of `video` whose player starts at `startup_bytes` buffered.
    pub(crate) fn new(video: &Video, startup_bytes: u64) -> Self {
        let player = Player::new(video.encoding_bps, startup_bytes, video.size_bytes());
        Viewer { player, read_total: 0, blocks: 0, switches: 0 }
    }

    /// Reads up to `max` bytes from `conn`, counts them and plays them.
    pub(crate) fn read(&mut self, eng: &mut Engine, conn: usize, max: u64) -> u64 {
        let n = self.read_unplayed(eng, conn, max);
        self.feed(eng, n);
        n
    }

    /// Reads up to `max` bytes from `conn` and counts them without playing
    /// them (the ABR client plays whole segments at nominal rate on EOF).
    pub(crate) fn read_unplayed(&mut self, eng: &mut Engine, conn: usize, max: u64) -> u64 {
        let n = eng.client_read(conn, max);
        self.read_total += n;
        n
    }

    /// Feeds `bytes` to the player without counting them as read.
    pub(crate) fn feed(&mut self, eng: &mut Engine, bytes: u64) {
        self.player.feed(eng.now(), bytes, eng.recorder());
    }

    /// Advances playback to the engine's clock.
    pub(crate) fn advance(&mut self, eng: &mut Engine) {
        self.player.advance(eng.now(), eng.recorder());
    }

    /// Counts a block request and records it as `AppBlockRequest`.
    pub(crate) fn count_block(&mut self, eng: &mut Engine) {
        self.blocks += 1;
        eng.record(EventKind::AppBlockRequest, self.blocks, 0);
    }

    /// Counts a bitrate switch and records it as `AppBitrateSwitch`.
    pub(crate) fn count_switch(&mut self, eng: &mut Engine, new_bps: u64, old_bps: u64) {
        self.switches += 1;
        eng.record(EventKind::AppBitrateSwitch, new_bps, old_bps);
    }

    /// The playback model.
    pub fn player(&self) -> &Player {
        &self.player
    }

    /// Bytes the application read: wire bytes for the ABR client, content
    /// without probe fragments for Netflix.
    pub fn read_total(&self) -> u64 {
        self.read_total
    }

    /// Block requests (ON periods); 0 for bulk transfers.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Bitrate switches; only the adaptive-bitrate client switches.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}
