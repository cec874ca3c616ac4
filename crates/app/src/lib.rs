//! Streaming strategies, players, and session orchestration.
//!
//! This crate implements the *applications* of the paper — the behaviours of
//! the YouTube/Netflix servers and of the Flash, HTML5, Silverlight and
//! native-mobile players that produce the three streaming strategies of §3:
//!
//! * [`strategies::ServerPacedLogic`] — the server pushes a startup burst
//!   and then one small block per period (YouTube over Flash; *short
//!   ON-OFF cycles* driven by the server).
//! * [`strategies::ClientPullLogic`] — the server is a plain bulk sender;
//!   the *client* paces the transfer by draining its TCP receive buffer one
//!   block at a time (HTML5 on IE: 256 kB blocks, *short cycles*; Chrome
//!   and the Android app: multi-megabyte blocks, *long cycles*). The pacing
//!   signal on the wire is the advertised receive window collapsing to
//!   zero, as in Figs. 2(b) and 6(a).
//! * [`strategies::BulkLogic`] — nobody paces anything (HTML5 on Firefox,
//!   Flash HD): *no ON-OFF cycles*, a plain TCP file transfer.
//! * [`strategies::RangeRequestLogic`] — the iPad behaviour of §5.1.3:
//!   successive TCP connections each fetching one range whose size depends
//!   on the encoding rate.
//! * [`strategies::NetflixLogic`] — multi-bitrate prefetch during buffering
//!   (fragments of every available encoding), then per-block connection
//!   cycling (PC/iPad) or single-connection client pull (Android).
//!
//! The [`engine::Engine`] couples these behaviours to real TCP endpoints
//! over a simulated path and captures every packet at the client, exactly
//! like the paper's tcpdump-based testbed. Each strategy owns one
//! [`Viewer`] — its player and the bytes, blocks and switches counted
//! beside it — which is everything the paper reads off the client.

pub mod engine;
mod player;
pub mod strategies;
mod video;
mod viewer;

pub use player::{Player, PlayerStats};
pub use video::Video;
pub use viewer::Viewer;
