//! # selnet-workload
//!
//! Workload generation and exact ground-truth labeling for the SelNet
//! reproduction, following Appendix B.1 of the paper:
//!
//! * queries sampled from the database;
//! * per query, a geometric ladder of `w = 40` selectivity values in
//!   `[1, |D|/100]` converted to thresholds (or Beta(3, 2.5)-distributed
//!   thresholds, §7.9);
//! * exact labels via multi-threaded brute force;
//! * an 80:10:10 train/validation/test split by query;
//! * per-partition labels (for the §5.3 joint loss) and update streams with
//!   incremental label maintenance (§5.4 / §7.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod generate;
pub mod partition_labels;
pub mod query;
pub mod rand_ext;
mod scan;
pub mod update;

pub use drift::{unit_direction, DriftFamily, DriftSchedule, DriftStep, Placement};
pub use generate::{
    generate_workload, selectivity_ladder, sorted_distances, ThresholdScheme, WorkloadConfig,
};
pub use partition_labels::label_partitions;
pub use query::{LabeledQuery, PartitionedLabels, Workload};
pub use update::{UpdateOp, UpdateSimulator};
