//! # selnet-index
//!
//! Metric indexing substrate for the SelNet reproduction: a cover tree
//! (exact range counting, nearest neighbor, ball-region export), k-means,
//! and the dataset partitioners of §5.3 / §7.8 together with the
//! query-to-cluster intersection indicator `f_c(x, t)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod covertree;
pub mod kmeans;
pub mod partition;

pub use covertree::{default_workers, BuildStats, CoverTree, Region};
pub use kmeans::{kmeans, KMeansResult};
pub use partition::{PartitionMethod, Partitioning};
