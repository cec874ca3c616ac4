//! In-simulator packet capture.
//!
//! The paper's measurement methodology was "run tcpdump/windump on the
//! viewing machine and analyse the capture". This crate is that tcpdump: the
//! session loop taps every segment that crosses the client's network
//! interface into a [`Trace`], which the `vstream-analysis` crate then
//! processes exactly as the authors processed their pcap files.
//!
//! A [`Trace`] can also be exported as a real libpcap file
//! ([`pcap::write_pcap`]) with synthesized IPv4/TCP headers, so any external
//! tool (Wireshark, tshark, tcptrace) can inspect simulated sessions.

//! For long-term retention (the cross-figure session cache) a trace can be
//! delta-compressed into a [`PackedTrace`] at ~30× and reconstructed
//! exactly.
//!
//! Storage is columnar: [`Trace`] keeps one dense array per segment field
//! (plus a side table for rare SACK state), records are addressed through
//! the lightweight [`trace::PacketRef`] view, and [`Trace::replay`] feeds
//! the columns to the `vstream-analysis` folds — the reductions themselves
//! live there, not here.

pub mod pack;
pub mod pcap;
pub mod record;
pub mod sink;
pub mod trace;

pub use pack::PackedTrace;
pub use record::{PacketRecord, TapDirection};
pub use sink::{flags_of, NullSink, PacketSink, TapPacket, Tee};
pub use trace::{
    ConnectionSummary, PacketRef, Trace, FLAG_ACK, FLAG_FIN, FLAG_OUTGOING,
    FLAG_RETX, FLAG_SACK, FLAG_SYN,
};
