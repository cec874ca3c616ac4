//! Workload synthesis: the paper's six video datasets, the
//! application/container matrix of Table 1, and helpers that assemble a
//! runnable session for any cell of that matrix.
//!
//! The original catalogues (5000 Flash videos, 2000 HD videos, …, sampled
//! from the 2011 YouTube/Netflix services) are gone; what the paper *states*
//! about them — catalogue sizes, encoding-rate ranges, default resolutions —
//! is reproduced here as seeded samplers, so every experiment draws from
//! distributions with the published properties.

mod dataset;
mod matrix;

pub use dataset::Dataset;
pub use matrix::{logic_for, table1_expected, valid_profiles, Client, Container, Service};
