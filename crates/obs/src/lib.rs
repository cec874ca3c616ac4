//! # vstream-obs — deterministic observability for the `vstream` workspace
//!
//! Every layer of the workspace is instrumented through this one: `tcp`
//! reports retransmissions and congestion-window samples, `app` reports
//! player stalls and block pacing and harvests the event queue's and the
//! links' own tallies (`vstream-sim` and `vstream-net` keep them as plain
//! fields and do not depend on this crate), and `core` stitches it all
//! into per-figure spans. The design constraints, in order:
//!
//! 1. **Output neutrality.** Instrumentation is strictly passive: no
//!    simulation decision ever reads a metric, so figures are
//!    byte-identical with metrics enabled or disabled. The neutrality
//!    test in `tests/integration_metrics.rs` holds this.
//! 2. **Determinism.** Every recorded quantity is a pure function of the
//!    simulated sessions, and every merge operation (sums for counters,
//!    maxima for gauges, bucket-wise sums for histograms) is commutative
//!    and associative — so the merged ledger is byte-identical for any
//!    `--jobs` count and any worker completion order. The only
//!    non-deterministic quantity is wall-clock span timing, which flows
//!    through a single switch ([`collector::install`]'s `wall` flag /
//!    the `VSTREAM_WALL=off` environment variable) so byte-comparing
//!    ledgers across runs is possible.
//! 3. **No hot-path sharing.** A [`Metrics`] registry is plain `u64`
//!    slots owned by one worker (inside its `SessionScratch`); workers
//!    merge into the process-wide [`collector`] once per batch, never
//!    per event. There are no atomics and no locks on the event loop.
//!
//! The crate is `std`-only and dependency-free: with `vstream-sim` it is
//! one of the two leaves of the workspace dependency order.

pub mod collector;
mod ledger;
mod metrics;
mod table;
pub mod trace;

pub use ledger::{Ledger, SpanRecord};
pub use metrics::{Counter, Gauge, Hist, HistId, Metrics, ProfileMetrics};
