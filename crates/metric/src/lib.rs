//! # selnet-metric
//!
//! Distance functions and vector utilities for the SelNet reproduction.
//!
//! The paper evaluates Euclidean (`l2`) distance and cosine distance
//! (`1 - cos(u, v)`); for unit vectors the two are related by
//! `‖u - v‖² = 2·(1 - cos(u, v))`, which the partitioning layer uses to run
//! the cover tree (a metric structure) under cosine workloads (§5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod vectors;

pub use distance::{CosineDistance, Distance, DistanceKind, EuclideanDistance};
pub use vectors::{dot, norm, normalize, normalize_all};
