//! # selnet-eval
//!
//! Evaluation harness for the SelNet reproduction: the
//! [`SelectivityEstimator`] trait implemented by every model, the error
//! metrics of Appendix B.3 (MSE/MAE/MAPE), the empirical monotonicity
//! measure of §7.3 and per-query timing (Table 7). The result tables are
//! `selnet-bench`'s (`harness::Table`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod metrics;
pub mod timing;

pub use estimator::{SelectivityEstimator, SimilarityView};
pub use metrics::{empirical_monotonicity, evaluate, ErrorMetrics, MetricsAccumulator};
pub use timing::average_estimate_ms;
