//! # selnet-core
//!
//! Rust implementation of **SelNet** — "Consistent and Flexible Selectivity
//! Estimation for High-dimensional Data" (Wang et al., SIGMOD 2021).
//!
//! SelNet answers `|{ o ∈ D : d(x, o) ≤ t }|` with a *query-dependent
//! continuous piece-wise linear function* that is monotone in `t` by
//! construction (consistency, Lemma 1):
//!
//! * a τ-generator FFN produces control-point abscissae via the `Norml2`
//!   normalized-square map and a prefix sum scaled to `t_max` (§5.2);
//! * model M produces the ordinates: an encoder FFN emits `L+2`
//!   per-control-point embeddings, a per-block linear decoder with ReLU
//!   yields non-negative increments, and a prefix sum makes them
//!   non-decreasing;
//! * an autoencoder supplies the latent representation `z_x` that augments
//!   the query (Eq. 3, Eq. 4);
//! * the full **SelNet** additionally partitions the database with a cover
//!   tree and sums indicator-masked local models (§5.3);
//! * incremental learning copes with database updates (§5.4).
//!
//! ## Quickstart
//!
//! ```no_run
//! use selnet_core::{fit_partitioned, PartitionConfig, SelNetConfig};
//! use selnet_data::generators::{fasttext_like, GeneratorConfig};
//! use selnet_eval::SelectivityEstimator;
//! use selnet_metric::DistanceKind;
//! use selnet_workload::{generate_workload, WorkloadConfig};
//!
//! let ds = fasttext_like(&GeneratorConfig::new(20_000, 30, 16, 7));
//! let wl = generate_workload(&ds, &WorkloadConfig::new(800, DistanceKind::Cosine, 1));
//! let (model, _report) =
//!     fit_partitioned(&ds, &wl, &SelNetConfig::default(), &PartitionConfig::default());
//! let sel = model.estimate(ds.row(0), 0.25);
//! println!("estimated selectivity: {sel:.1}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoencoder;
pub mod config;
pub mod model;
pub mod partitioned;
pub mod persist;
mod plans;
pub mod pwl;
pub mod train;
pub mod update;

pub use autoencoder::Autoencoder;
pub use config::{LossKind, PartitionConfig, SelNetConfig, TauNormalization};
pub use model::ControlPointNets;
pub use partitioned::{fit_partitioned, PartitionedSelNet};
pub use pwl::{fit_fixed_grid, fit_selnet_head, PiecewiseLinear, PwlFit};
pub use train::{fit, fit_named, TrainReport};
pub use update::{UpdateDecision, UpdatePolicy};
