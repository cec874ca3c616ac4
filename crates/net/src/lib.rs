//! Packet-level network path simulation.
//!
//! This crate models the part of the paper's testbed that sat between the
//! video player and the streaming server: an access link plus Internet path
//! with finite bandwidth, propagation delay, a drop-tail queue, and random
//! packet loss.
//!
//! The components are *passive* state machines in the smoltcp style: a
//! [`Link`] does not own an event loop. Callers hand it a packet and the
//! current time, and it answers either "delivered at time T on the far end"
//! or "dropped (and why)". The orchestration loop (in `vstream-app`) turns
//! those answers into scheduled events.
//!
//! Competing traffic follows the same contract. A [`DuplexPath`] built
//! [`with_cross_traffic`](DuplexPath::with_cross_traffic) owns the
//! generator's state machines ([`CrossTraffic`]): the caller schedules one event
//! per source from [`DuplexPath::cross_starts`], and on each event
//! [`DuplexPath::cross_tick`] occupies the downlink and answers when that
//! source ticks next.
//!
//! Four [`NetworkProfile`]s reproduce the measurement vantage points of
//! Section 4.2 of the paper: *Research*, *Residence*, *Academic*, and *Home*.

mod cross;
mod link;
mod loss;
mod packet;
mod path;
mod profile;

pub use cross::{CrossTraffic, LrdCrossConfig};
pub use link::{Link, LinkConfig};
pub use loss::LossModel;
pub use packet::{DropReason, Verdict, Wire};
pub use path::{Direction, DuplexPath};
pub use profile::NetworkProfile;
