//! Compile-time guarantees the serving subsystem depends on: every
//! estimator in the workspace is usable as
//! `dyn SelectivityEstimator + Send + Sync`, so trained models can be
//! shared across serving threads behind an `Arc` and registered in the
//! hot-swap registry.

use selnet_baselines::{GbdtEstimator, KdeEstimator, LshEstimator};
use selnet_core::PartitionedSelNet;
use selnet_eval::SelectivityEstimator;
use selnet_models::{DlnEstimator, DnnEstimator, MoeEstimator, RmiEstimator, UmnnEstimator};

fn assert_send_sync<T: Send + Sync>() {}

/// A `dyn SelectivityEstimator + Send + Sync` must be a valid object type
/// (the trait stays dyn-safe) and every concrete estimator must coerce
/// into it.
fn assert_estimator_send_sync<T: SelectivityEstimator + Send + Sync + 'static>() {
    fn coerces<T: SelectivityEstimator + Send + Sync + 'static>(_: fn() -> T) {
        let _ = |v: Box<T>| -> Box<dyn SelectivityEstimator + Send + Sync> { v };
        let _ =
            |v: std::sync::Arc<T>| -> std::sync::Arc<dyn SelectivityEstimator + Send + Sync> { v };
    }
    assert_send_sync::<T>();
    coerces::<T>(|| unreachable!("type-level only"));
}

#[test]
fn every_estimator_is_send_sync_object_safe() {
    // the paper's model (`fit` and `fit_partitioned` return the one type)
    assert_estimator_send_sync::<PartitionedSelNet>();
    // baselines
    assert_estimator_send_sync::<KdeEstimator>();
    assert_estimator_send_sync::<GbdtEstimator>();
    assert_estimator_send_sync::<LshEstimator>();
    // related-work neural models
    assert_estimator_send_sync::<DnnEstimator>();
    assert_estimator_send_sync::<DlnEstimator>();
    assert_estimator_send_sync::<RmiEstimator>();
    assert_estimator_send_sync::<MoeEstimator>();
    assert_estimator_send_sync::<UmnnEstimator>();
    // boxed trait objects remain estimators (the harness relies on this)
    assert_estimator_send_sync::<Box<dyn SelectivityEstimator + Send + Sync>>();
}
