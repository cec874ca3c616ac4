//! Deterministic discrete-event simulation engine for the `vstream` workspace.
//!
//! This crate provides the primitives every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated clock types.
//! * [`EventQueue`] — a monotonic priority queue with deterministic FIFO
//!   ordering for events scheduled at the same instant: two FIFO lanes for
//!   packets in flight beside one binary heap for timers.
//! * [`SimRng`] — a seedable random number generator (vendored ChaCha12
//!   stream, byte-compatible with the `rand` crate's `StdRng`) with the
//!   distribution samplers used by the workload generators (exponential,
//!   normal, log-normal, Pareto).
//! * [`derive_seed`] — order-independent seed derivation: hashes a session's
//!   identity into its engine seed so seeds do not depend on submission
//!   order.
//! * [`par_indexed`] — a `std`-only worker pool that fans independent
//!   sessions out across cores and collects results by index.
//!
//! The concurrency model is deliberately two-level: **each DES instance is
//! synchronous and single-threaded** — the simulated workload is CPU-bound
//! and must be bit-for-bit reproducible from a single `u64` seed, so no
//! async runtime or intra-session threading — while *batches* of sessions
//! run in parallel, one session per worker at a time. Because every
//! session's seed is a pure function of its identity and results are merged
//! by index, a batch's output is byte-identical for any worker count.
//! Components (links, TCP endpoints, applications) are written as passive
//! state machines that are driven by an orchestration loop (see
//! `vstream-app::session`), in the style of event-driven network stacks
//! such as smoltcp.
//!
//! The crate is `std`-only and depends on no other crate of the workspace:
//! the queue's telemetry is a plain [`QueueStats`] that `vstream-app`
//! harvests into the `vstream-obs` ledger.

mod chacha;
mod exec;
mod queue;
mod rng;
mod time;

pub use exec::{default_jobs, par_indexed, par_indexed_with_finish, ShardPlan};
pub use queue::{EventQueue, QueueStats};
pub use rng::{derive_seed, SimRng};
pub use time::{SimDuration, SimTime};
