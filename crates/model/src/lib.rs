//! The analytical model of §6: stochastic properties of aggregate video
//! streaming traffic.
//!
//! Streaming sessions arrive as a Poisson process with rate λ; the `n`-th
//! video has encoding rate `e`, duration `L` (size `S = e·L`), and downloads
//! at rate `G` while transferring. The paper derives (following Barakat et
//! al.'s flow-based backbone model):
//!
//! * mean aggregate rate `E[R] = λ·E[S]` (Eq. 1/3),
//! * variance `V_R = λ·E[e]·E[L]·E[G]` (Eq. 2/4) for constant-rate
//!   downloads — and shows both are *independent of the streaming strategy*
//!   when downloads are never interrupted,
//! * the condition (Eq. 7) under which an interrupted video was not yet
//!   fully downloaded, and the per-session wasted bytes of Eqs. 8/9 (the
//!   `model-waste` figure averages them over a sampled population).
//!
//! The closed forms implement the formulas; [`FluidSim`] is a Monte-Carlo
//! superposition simulator that replays the same assumptions numerically —
//! used to *validate* the closed forms and to demonstrate the
//! strategy-independence claim empirically (something the paper argues only
//! analytically).

mod closed_form;
mod fluid;
mod interruption;

pub use closed_form::{
    aggregate_mean_bps, aggregate_variance, mix_aggregate_moments, provisioned_capacity,
    MixComponent,
};
pub use fluid::{FluidSim, FluidStrategy, PopulationModel};
pub use interruption::{full_download_duration_threshold, unused_bytes};
