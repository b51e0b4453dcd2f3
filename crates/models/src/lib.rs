//! # selnet-models
//!
//! The neural baselines of the paper's evaluation (§7.1), all built on the
//! `selnet-tensor` autodiff engine and trained with the same Huber-on-log
//! loss as SelNet (Appendix B.2):
//!
//! * [`dnn`] — vanilla deep regression (no consistency);
//! * [`moe`] — sparsely-gated Mixture of Experts (no consistency);
//! * [`rmi`] — Recursive Model Index, trained stage by stage (no
//!   consistency);
//! * [`dln`] — Deep Lattice Network (consistent by construction);
//! * [`umnn`] — Unconstrained Monotonic NN via Clenshaw–Curtis quadrature
//!   (consistent by construction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod dln;
pub mod dnn;
pub mod moe;
pub mod quadrature;
pub mod rmi;
pub mod umnn;

pub use common::NeuralConfig;
pub use dln::{DlnConfig, DlnEstimator};
pub use dnn::DnnEstimator;
pub use moe::{MoeConfig, MoeEstimator};
pub use quadrature::{clenshaw_curtis, integrate_cc};
pub use rmi::{RmiConfig, RmiEstimator};
pub use umnn::{UmnnConfig, UmnnEstimator};
