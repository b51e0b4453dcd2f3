//! # selnet-bench
//!
//! The benchmark harness of the SelNet reproduction. One `repro_*` binary
//! per table/figure of the paper (see `DESIGN.md` §3 for the index), plus
//! Criterion microbenchmarks (`cargo bench -p selnet-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driftbench;
pub mod harness;
pub mod servebench;
