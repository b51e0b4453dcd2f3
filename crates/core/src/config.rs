//! SelNet hyper-parameters (paper Appendix B.2, scaled for CPU training).

/// How the τ-generator's raw output is normalized into positive increments
/// summing to 1. The paper argues for `Norml2` over `Softmax` (§5.2): the
/// exponential makes softmax hypersensitive to small input changes and
/// biased toward highlighting a few coordinates instead of partitioning
/// the range. Both are implemented so the claim is testable
/// (`repro tau_norm`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TauNormalization {
    /// The paper's normalized-square map (default).
    Norml2,
    /// Row-wise softmax (the alternative §5.2 argues against).
    Softmax,
}

/// Loss applied to `log(ŷ+ε) − log(y+ε)`. The paper motivates Huber as the
/// robust middle ground between L2 (dominated by large selectivities) and
/// L1 (dominated by small ones) — §5.1. All three are implemented so the
/// claim is testable (`repro loss_ablation`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Huber with δ = `huber_delta` (default).
    Huber,
    /// Squared error.
    L2,
    /// Absolute error.
    L1,
}

/// Hyper-parameters of a single (non-partitioned) SelNet model.
///
/// Paper defaults: `L = 50` control points, `|h_i| = 100`, three FFNs with
/// 512/1024-wide first layers, batch 512, 1500 epochs. The defaults here
/// are scaled down for pure-CPU training; every field is public so the
/// paper-scale setting is reachable.
#[derive(Clone, Debug)]
pub struct SelNetConfig {
    /// Number of learnable interior control points `L` (the function has
    /// `L + 2` points including both ends).
    pub control_points: usize,
    /// Latent dimension of the autoencoder representation `z_x`.
    pub latent_dim: usize,
    /// Embedding width `|h_i|` of model M's per-control-point embeddings.
    pub embed_dim: usize,
    /// Hidden widths of the τ-generator FFN (paper: 2 hidden layers).
    pub tau_hidden: Vec<usize>,
    /// Hidden widths of model M's encoder FFN (paper: 4 hidden layers).
    pub p_hidden: Vec<usize>,
    /// Hidden widths of the autoencoder's encoder/decoder (paper: 3 each).
    pub ae_hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs (model with smallest validation error is kept).
    pub epochs: usize,
    /// Mini-batch size in labelled `(x, t)` pairs. A training step takes
    /// whole query objects with all their thresholds —
    /// `max(1, round(batch_size / mean thresholds per object))` of them —
    /// so the network runs once per object and the loss once per pair:
    /// 256 is 13 objects on 20-threshold ladders. (Autoencoder
    /// pretraining has no thresholds and takes `batch_size` vectors.)
    pub batch_size: usize,
    /// Weight `λ` of the autoencoder reconstruction loss (Eq. 4).
    pub lambda_ae: f32,
    /// Huber parameter `δ` (paper: the standard 1.345).
    pub huber_delta: f32,
    /// Padding `ε` inside the logs of the loss.
    pub log_eps: f32,
    /// Whether the τ control points depend on the query (`false` gives the
    /// SelNet-ad-ct ablation: a constant vector is fed to the τ FFN).
    pub query_dependent_tau: bool,
    /// Normalization of the τ increments (§5.2 design choice).
    pub tau_normalization: TauNormalization,
    /// Loss on the log residuals (§5.1 design choice).
    pub loss: LossKind,
    /// Autoencoder pretraining epochs over the database.
    pub ae_pretrain_epochs: usize,
    /// Max database vectors sampled for AE pretraining.
    pub ae_pretrain_sample: usize,
    /// RNG seed (initialization + batch shuffling).
    pub seed: u64,
}

impl Default for SelNetConfig {
    fn default() -> Self {
        SelNetConfig {
            control_points: 50,
            latent_dim: 16,
            embed_dim: 24,
            tau_hidden: vec![128, 64],
            p_hidden: vec![128, 128, 64],
            ae_hidden: vec![64, 32],
            learning_rate: 1e-3,
            epochs: 40,
            batch_size: 256,
            lambda_ae: 0.1,
            huber_delta: 1.345,
            log_eps: 1.0,
            query_dependent_tau: true,
            tau_normalization: TauNormalization::Norml2,
            loss: LossKind::Huber,
            ae_pretrain_epochs: 10,
            ae_pretrain_sample: 4096,
            seed: 42,
        }
    }
}

impl SelNetConfig {
    /// A small fast configuration for tests.
    ///
    /// The batch/epoch/lr triple comes from a hyperparameter sweep (PR 4):
    /// at this scale, batch 96 with 20 epochs at lr 4e-3 beats the
    /// mean-label constant predictor on **MSE as well as MAPE** (the
    /// earlier 128/15/3e-3 setting lost on MSE), which
    /// `trained_model_beats_constant_predictor` pins.
    pub fn tiny() -> Self {
        SelNetConfig {
            control_points: 8,
            latent_dim: 4,
            embed_dim: 8,
            tau_hidden: vec![16],
            p_hidden: vec![32, 16],
            ae_hidden: vec![16],
            learning_rate: 4e-3,
            epochs: 20,
            batch_size: 96,
            ae_pretrain_epochs: 3,
            ae_pretrain_sample: 512,
            ..Default::default()
        }
    }

    /// The SelNet-ad-ct ablation of this configuration (§7.1): disables
    /// query-dependent τ generation.
    pub fn without_adaptive_tau(mut self) -> Self {
        self.query_dependent_tau = false;
        self
    }

    /// Switches the τ normalization (§5.2 ablation).
    pub fn with_tau_normalization(mut self, norm: TauNormalization) -> Self {
        self.tau_normalization = norm;
        self
    }

    /// Switches the loss on log residuals (§5.1 ablation).
    pub fn with_loss(mut self, loss: LossKind) -> Self {
        self.loss = loss;
        self
    }
}

/// Configuration of the partitioned model (§5.3).
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Number of partitions `K` (paper default: 3).
    pub k: usize,
    /// Partitioning method (paper default: cover tree).
    pub method: selnet_index::PartitionMethod,
    /// Local-model pretraining epochs `T` (paper: 300; scaled).
    pub pretrain_epochs: usize,
    /// Weight `β` of the local losses in the joint objective (paper: 0.1).
    pub beta: f32,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            k: 3,
            method: selnet_index::PartitionMethod::CoverTree { ratio: 0.05 },
            pretrain_epochs: 8,
            beta: 0.1,
        }
    }
}

impl PartitionConfig {
    /// The partition configuration that *is* the un-partitioned model
    /// ([`crate::fit`]): one part; no regions, so the indicator answers
    /// all-ones without a distance; no local pretraining; no local loss
    /// term. §5.3's `f* = Σ_i f_c[i]·f^(i)` is then the one curve, and the
    /// joint objective `J_est(f*) + β Σ_i J_est(f^(i)) + λ J_AE` is
    /// Eq. (2) + `λ`·Eq. (4) to the bit (`·1.0`, `0·J` and `+ 0.0` are
    /// exact).
    pub(crate) fn single() -> Self {
        PartitionConfig {
            k: 1,
            method: selnet_index::PartitionMethod::Random,
            pretrain_epochs: 0,
            beta: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let cfg = SelNetConfig::default();
        assert_eq!(cfg.control_points, 50);
        assert!((cfg.huber_delta - 1.345).abs() < 1e-6);
        assert!(cfg.query_dependent_tau);
    }

    #[test]
    fn ablation_flag() {
        let cfg = SelNetConfig::tiny().without_adaptive_tau();
        assert!(!cfg.query_dependent_tau);
    }

    #[test]
    fn design_choice_builders() {
        let cfg = SelNetConfig::tiny()
            .with_tau_normalization(TauNormalization::Softmax)
            .with_loss(LossKind::L1);
        assert_eq!(cfg.tau_normalization, TauNormalization::Softmax);
        assert_eq!(cfg.loss, LossKind::L1);
        let d = SelNetConfig::default();
        assert_eq!(d.tau_normalization, TauNormalization::Norml2);
        assert_eq!(d.loss, LossKind::Huber);
    }
}
