//! A from-scratch TCP implementation on top of the `vstream-net` packet
//! simulator.
//!
//! The paper's transport-level findings hinge on specific TCP mechanisms:
//!
//! * **Flow control.** Client-pull streaming (HTML5 on Internet Explorer,
//!   Chrome, the Android application) throttles the download by *not reading*
//!   from the TCP receive buffer, so the advertised receive window
//!   periodically collapses to zero (Figs. 2b and 6a). This crate implements
//!   a real advertised window driven by receive-buffer occupancy, window
//!   updates on application reads, and sender-side zero-window probing.
//! * **Congestion control.** Reno slow start, congestion avoidance, fast
//!   retransmit/recovery (NewReno-style partial-ACK handling) and RFC 6298
//!   retransmission timeouts reproduce the loss-induced block merging and
//!   splitting the paper observed on its lossier vantage points.
//! * **The idle-restart question.** RFC 5681 §4.1 suggests collapsing cwnd
//!   after an idle period of one RTO. The 2011 streaming servers did *not* do
//!   this, which is why entire 64 kB blocks were sent back-to-back with no
//!   ack clock (Fig. 9). [`TcpConfig::with_idle_cwnd_reset`] makes this
//!   behaviour a switch (default: off, matching the measurements) so the
//!   ablation bench can quantify its effect.
//!
//! Selective acknowledgements (RFC 2018 blocks, RFC 6675-style pipe
//! estimation with PRR-paced recovery) are on by default, as on every
//! 2011-era stack; both Reno/NewReno and CUBIC congestion control are
//! provided ([`TcpConfig::congestion`]).
//!
//! Simplifications, each chosen because it does not affect the studied
//! metrics: sequence numbers are absolute 64-bit byte offsets (no 32-bit
//! wrap-around), the handshake segments do not consume sequence space,
//! payload bytes are counted but never materialized, and there is no Nagle
//! algorithm (streaming servers write MSS-sized chunks).

mod cc;
mod config;
mod endpoint;
mod rangeset;
mod reassembly;
mod rtt;
mod segment;

pub use cc::CcAlgorithm;
pub use config::{TcpConfig, MSS};
pub use endpoint::{Endpoint, EndpointStats, Output, Role, State};
pub use segment::{SackBlocks, Segment};
