//! # selnet-bench
//!
//! The benchmark harness of the SelNet reproduction. The `repro` binary
//! runs the paper's tables and figures, one experiment each (`repro` with
//! no argument prints the index), on [`harness`]; beside it the serving
//! guard and the `substrate` and `serve` bench mains
//! (`cargo bench -p selnet-bench`), which share [`servebench`]'s one
//! timing pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod servebench;
