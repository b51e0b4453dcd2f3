//! # selnet-baselines
//!
//! The non-neural baselines of the paper's evaluation (§7.1):
//!
//! * [`kde`] — metric-space kernel density estimation (Mattig et al.),
//!   consistent;
//! * [`lsh`] — SimHash importance sampling (Wu et al.), cosine-only,
//!   consistent;
//! * [`gbdt`] — LightGBM-style gradient-boosted trees, with
//!   (`LightGBM-m`) and without monotone constraints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gbdt;
pub mod kde;
pub mod lsh;

pub use gbdt::{GbdtConfig, GbdtEstimator};
pub use kde::{KdeConfig, KdeEstimator};
pub use lsh::{LshConfig, LshEstimator};
