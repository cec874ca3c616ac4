//! In-simulator packet capture.
//!
//! The paper's measurement methodology was "run tcpdump/windump on the
//! viewing machine and analyse the capture". This crate is that tcpdump: the
//! session loop taps every segment that crosses the client's network
//! interface as a [`TapPacket`] into a [`PacketSink`], and the
//! `vstream-analysis` folds consume that stream exactly as the authors
//! processed their pcap files.
//!
//! A [`Trace`] is the sink that keeps the packets: one [`TapPacket`] each,
//! in capture order, for the consumers that need raw packets.
//! [`Trace::replay`] feeds a kept capture back to the folds,
//! [`pcap::write_pcap`] exports it as a real libpcap file with synthesized
//! IPv4/TCP headers (so Wireshark, tshark or tcptrace can inspect simulated
//! sessions), and [`PackedTrace`] delta-compresses it ~20× and reconstructs
//! it exactly.

mod pack;
pub mod pcap;
mod record;
mod sink;
mod trace;

pub use pack::PackedTrace;
pub use record::{PacketRecord, TapDirection};
pub use sink::{
    NullSink, PacketSink, TapPacket, Tee, FLAG_ACK, FLAG_FIN, FLAG_OUTGOING,
    FLAG_RETX, FLAG_SACK, FLAG_SYN,
};
pub use trace::{ConnectionSummary, Trace};
