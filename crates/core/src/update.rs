//! Incremental learning under database updates (§5.4).
//!
//! After an update the caller refreshes the ground-truth labels (see
//! `selnet_workload::UpdateSimulator`); the model then:
//!
//! 1. re-tests validation MAE — if the drift from the stored reference is
//!    within `δ_U`, the update is ignored;
//! 2. otherwise continues training *from the current parameters* (not from
//!    scratch, preventing catastrophic forgetting) with the full training
//!    data until the validation MAE stops improving for 3 consecutive
//!    epochs — **with restore**: the pre-retrain parameters remain the
//!    fallback, so if no retrained epoch beats them on the drifted
//!    validation split the model keeps what it had. Incremental updates
//!    can therefore never make the served model worse (a guarantee the
//!    `selnet-serve` hot-swap path relies on: a published post-update
//!    generation is at least as good as the one it replaces).
//!
//! A retrain is one more joint phase of the reused-arena training loop
//! (`run_training_phase`) under one optimizer, so it pays no per-batch
//! tape allocation, and a step's batch is whole query objects (the network
//! runs once per object, not once per threshold), so an epoch over a few
//! hundred objects is a few dozen small steps — the properties that keep
//! the §5.4 loop cheap enough to trigger frequently.

use crate::partitioned::{continue_training, validation_mae, PartitionedSelNet};
use crate::train::TrainReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_data::Dataset;
use selnet_metric::DistanceKind;
use selnet_workload::LabeledQuery;

/// The §5.4 update policy.
#[derive(Clone, Copy, Debug)]
pub struct UpdatePolicy {
    /// `δ_U`: retrain only if validation MAE drifts by more than this.
    pub mae_tolerance: f64,
    /// Stop after this many epochs without validation improvement
    /// (paper: 3).
    pub patience: usize,
    /// Hard cap on incremental epochs.
    pub max_epochs: usize,
}

impl Default for UpdatePolicy {
    fn default() -> Self {
        UpdatePolicy {
            mae_tolerance: 1.0,
            patience: 3,
            max_epochs: 30,
        }
    }
}

/// Outcome of an update check.
#[derive(Debug, Clone)]
pub enum UpdateDecision {
    /// Drift within tolerance; model untouched.
    Skipped {
        /// Observed MAE drift.
        mae_drift: f64,
    },
    /// Model was incrementally retrained (parameters kept only if they
    /// beat the pre-retrain state on the drifted validation split).
    Retrained {
        /// Epochs actually run before early stop.
        epochs_run: usize,
        /// New reference validation MAE.
        new_val_mae: f64,
        /// Per-epoch diagnostics.
        report: TrainReport,
    },
}

impl UpdateDecision {
    /// Whether the model parameters changed.
    pub fn retrained(&self) -> bool {
        matches!(self, UpdateDecision::Retrained { .. })
    }

    /// Epochs actually run (0 for a skipped update).
    pub fn epochs_run(&self) -> usize {
        match self {
            UpdateDecision::Skipped { .. } => 0,
            UpdateDecision::Retrained { epochs_run, .. } => *epochs_run,
        }
    }

    /// The post-decision reference validation MAE, if a retrain produced
    /// one (`None` for skipped updates, which keep the old reference).
    pub fn new_val_mae(&self) -> Option<f64> {
        match self {
            UpdateDecision::Skipped { .. } => None,
            UpdateDecision::Retrained { new_val_mae, .. } => Some(*new_val_mae),
        }
    }

    /// One-line outcome summary for update logs, e.g.
    /// `skipped(drift=0.42)` or `retrained(epochs=5, val_mae=1.73)`.
    pub fn summary(&self) -> String {
        match self {
            UpdateDecision::Skipped { mae_drift } => format!("skipped(drift={mae_drift:.3})"),
            UpdateDecision::Retrained {
                epochs_run,
                new_val_mae,
                ..
            } => format!("retrained(epochs={epochs_run}, val_mae={new_val_mae:.3})"),
        }
    }
}

impl PartitionedSelNet {
    /// Applies the §5.4 rule after the labels in `train` / `valid` have
    /// been refreshed for a database update. `ds` is the *updated*
    /// database (needed to refresh per-partition labels).
    pub fn check_and_update(
        &mut self,
        ds: &Dataset,
        kind: DistanceKind,
        train: &[LabeledQuery],
        valid: &[LabeledQuery],
        policy: &UpdatePolicy,
    ) -> UpdateDecision {
        // flight-recorder hook (inert unless the global recorder is
        // armed): a = epochs run (0 = skipped), b = resulting val-MAE
        // bits (skip: the measured drift's bits)
        let mut span = selnet_obs::trace::global().span("retrain_decision", 0);
        // empty validation split: drift is unmeasurable, retrain
        // conservatively (`continue_training` selects on training loss)
        let fresh = validation_mae(self, valid);
        let drift = (fresh - self.reference_val_mae).abs();
        if !valid.is_empty() && drift <= policy.mae_tolerance {
            span.set_detail(0, drift.to_bits());
            return UpdateDecision::Skipped { mae_drift: drift };
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x0badf00d);
        let report = continue_training(
            self,
            ds,
            train,
            valid,
            kind,
            policy.max_epochs,
            policy.patience,
            &mut rng,
        );
        let new_val_mae = self.reference_val_mae;
        span.set_detail(report.epoch_val_mae.len() as u64, new_val_mae.to_bits());
        UpdateDecision::Retrained {
            epochs_run: report.epoch_val_mae.len(),
            new_val_mae,
            report,
        }
    }

    /// Stored reference validation MAE.
    pub fn reference_val_mae(&self) -> f64 {
        self.reference_val_mae
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelNetConfig;
    use crate::train::fit;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_workload::{generate_workload, ThresholdScheme, UpdateSimulator, WorkloadConfig};

    #[test]
    fn small_drift_is_skipped() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 21));
        let cfg = WorkloadConfig {
            num_queries: 30,
            thresholds_per_query: 8,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 3,
            threads: 4,
        };
        let w = generate_workload(&ds, &cfg);
        let mut scfg = SelNetConfig::tiny();
        scfg.epochs = 8;
        let (mut model, _) = fit(&ds, &w, &scfg);
        // no data change: drift 0 => skipped under any positive tolerance
        let policy = UpdatePolicy {
            mae_tolerance: 1e9,
            ..Default::default()
        };
        let decision = model.check_and_update(&ds, w.kind, &w.train, &w.valid, &policy);
        assert!(!decision.retrained());
    }

    /// Regression (follow-on to the empty-split validation-MAE fix):
    /// with an empty validation split, the update rule must still make
    /// progress — retrain conservatively, select on training loss, and
    /// never store an infinite/bogus drift reference as if it were real.
    #[test]
    fn empty_validation_split_retrains_on_training_loss() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 5, 3, 23));
        let cfg = WorkloadConfig {
            num_queries: 20,
            thresholds_per_query: 6,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 5,
            threads: 2,
        };
        let w = generate_workload(&ds, &cfg);
        let mut scfg = SelNetConfig::tiny();
        scfg.epochs = 4;
        let (mut model, _) = fit(&ds, &w, &scfg);
        let policy = UpdatePolicy {
            mae_tolerance: 1e9, // would skip if drift were measurable
            patience: 2,
            max_epochs: 4,
        };
        let decision = model.check_and_update(&ds, w.kind, &w.train, &[], &policy);
        assert!(decision.retrained(), "unmeasurable drift must retrain");
        if let UpdateDecision::Retrained { report, .. } = &decision {
            // patience ran on finite training losses, not on infinite MAE
            assert!(report.epoch_train_loss.iter().all(|l| l.is_finite()));
            assert!(report.epoch_val_mae.iter().all(|m| m.is_infinite()));
        }
        // no fake reference: a later call with real validation data works
        assert_eq!(model.reference_val_mae(), f64::MAX);
    }

    #[test]
    fn large_drift_triggers_incremental_retraining() {
        let mut ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 22));
        let cfg = WorkloadConfig {
            num_queries: 30,
            thresholds_per_query: 8,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 4,
            threads: 4,
        };
        let w = generate_workload(&ds, &cfg);
        let mut scfg = SelNetConfig::tiny();
        scfg.epochs = 8;
        let (mut model, _) = fit(&ds, &w, &scfg);

        // heavy update stream to force drift
        let mut train = w.train.clone();
        let mut valid = w.valid.clone();
        let mut sim = UpdateSimulator::new(5);
        sim.insert_prob = 1.0;
        sim.batch = 40;
        for _ in 0..8 {
            let mut splits = vec![train.as_mut_slice(), valid.as_mut_slice()];
            sim.step(&mut ds, &mut splits, DistanceKind::Euclidean);
        }

        let policy = UpdatePolicy {
            mae_tolerance: 0.01,
            patience: 2,
            max_epochs: 6,
        };
        let mae_before = validation_mae(&model, &valid);
        let decision = model.check_and_update(&ds, w.kind, &train, &valid, &policy);
        assert!(decision.retrained());
        let mae_after = validation_mae(&model, &valid);
        // structural since the restore semantics: the pre-retrain
        // parameters are the fallback, so an update can never hurt
        assert!(
            mae_after <= mae_before,
            "incremental training must not hurt: {mae_before} -> {mae_after}"
        );
    }
}
