//! # selnet-data
//!
//! Dataset storage and the synthetic generators that stand in for the
//! paper's three embedding collections (fasttext, face, YouTube; §7.1).
//! The generators are documented substitutions (the table in
//! [`generators`] names what each keeps of its original): each one
//! reproduces the structural property of the original collection that the
//! evaluation exercises — non-normalized heavy-tailed clusters for
//! fasttext, unit-sphere clusters for face, and very high-dimensional
//! normalized vectors for YouTube.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod generators;
pub mod io;
pub mod stats;

pub use dataset::Dataset;
pub use generators::{face_like, fasttext_like, gaussian, uniform, youtube_like, GeneratorConfig};
