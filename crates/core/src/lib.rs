//! # vstream — video streaming traffic, reproduced
//!
//! A from-scratch reproduction of *“Network Characteristics of Video
//! Streaming Traffic”* (Rao, Lim, Barakat, Legout, Towsley, Dabbous — ACM
//! CoNEXT 2011): the streaming strategies of 2011-era YouTube and Netflix,
//! the measurement methodology that identified them, and the analytical
//! model of their aggregate traffic — all running on a deterministic
//! packet-level network simulator with a real TCP implementation.
//!
//! ## Quick start
//!
//! ```
//! use vstream::SessionSpec;
//! use vstream_analysis::{classify, AnalysisConfig, Strategy};
//! use vstream_app::Video;
//! use vstream_net::NetworkProfile;
//! use vstream_sim::SimDuration;
//! use vstream_workload::{Client, Container};
//!
//! // Stream one Flash video over the paper's Research network and classify
//! // the traffic pattern, exactly as the paper's tcpdump pipeline would.
//! let video = Video::new(0, 1_000_000, SimDuration::from_secs(600));
//! let outcome = SessionSpec::new(
//!     Client::Firefox,
//!     Container::Flash,
//!     video,
//!     NetworkProfile::Research,
//!     42,
//!     SimDuration::from_secs(60),
//! )
//! .run()
//! .expect("browser + Flash is a valid Table 1 cell");
//! let strategy = classify(&outcome.trace, &AnalysisConfig::default());
//! assert_eq!(strategy, Strategy::ShortCycles); // server-paced 64 kB blocks
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | `vstream-sim` | deterministic event queue, clock, seeded RNG |
//! | `vstream-net` | links, queues, loss, the four vantage-point profiles |
//! | `vstream-tcp` | Reno/NewReno + SACK TCP with real flow control |
//! | `vstream-app` | the streaming strategies, players, session engine |
//! | `vstream-capture` | the in-simulator tcpdump and pcap export |
//! | `vstream-analysis` | ON/OFF cycles, phases, classification, statistics |
//! | `vstream-workload` | datasets and the Table 1 application matrix |
//! | `vstream-model` | §6 closed forms + Monte-Carlo validation |
//! | `vstream` (this crate) | experiment runner: one function per figure/table |
//!
//! The [`figures`] module regenerates every figure and table of the paper's
//! evaluation. Each driver takes a [`figures::Run`] — the root seed, the
//! worker count (`--jobs` on the `repro` binary) and, with `--csv`, the
//! per-session [QoE table](qoe::QoeTable) — and fans its independent
//! sessions out across that many workers through [`figures::Run::query`];
//! output is byte-identical for any worker count. Analysis folds ride each
//! session's live packet tap, so no figure retains a packet trace. Because
//! figures revisit the same (client, container, video, profile) cells, the
//! [`cache`] module memoizes finished replies across figures within a run —
//! sessions are pure functions of their spec, so cached output is
//! byte-identical too (see `--no-cache`). [`SessionSpec::run`] is the
//! trace-retaining single-session call for consumers of raw packets. The
//! `vstream-bench` crate wraps the figures in the `repro` binary.

pub mod cache;
pub mod campaign;
pub mod figures;
pub mod flight;
pub mod obs;
pub mod qoe;
mod query;
pub mod report;
mod session;

pub use query::{
    query_many_jobs, reply_from_outcome, SessionAnswer, SessionQuery, SessionReply,
};
pub use session::{CellOutcome, SessionSpec};
pub use vstream_app::engine::SessionScratch;
