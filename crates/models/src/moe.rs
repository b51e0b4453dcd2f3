//! Sparsely-gated Mixture of Experts (the MoE baseline, Shazeer et al.):
//! a gate picks the top-k experts per input; the output is the
//! gate-weighted sum of the selected experts' predictions (log space).

use crate::common::{Network, NeuralConfig, Regressor, TEmbedding};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selnet_data::Dataset;
use selnet_tensor::{Activation, Graph, Linear, Matrix, Mlp, ParamStore, Var};
use selnet_workload::Workload;

/// MoE hyper-parameters.
#[derive(Clone, Debug)]
pub struct MoeConfig {
    /// Shared neural settings.
    pub base: NeuralConfig,
    /// Number of experts (paper: 30; scaled).
    pub num_experts: usize,
    /// Experts used per input (paper: 3; scaled).
    pub top_k: usize,
    /// Hidden widths of each expert.
    pub expert_hidden: Vec<usize>,
}

impl Default for MoeConfig {
    fn default() -> Self {
        MoeConfig {
            base: NeuralConfig::default(),
            num_experts: 8,
            top_k: 2,
            expert_hidden: vec![64, 32],
        }
    }
}

impl MoeConfig {
    /// Small fast configuration for tests.
    pub fn tiny() -> Self {
        MoeConfig {
            base: NeuralConfig::tiny(),
            num_experts: 4,
            top_k: 2,
            expert_hidden: vec![16],
        }
    }
}

/// Builds the top-k mask (0 for selected logits, -1e30 otherwise) from the
/// gate logits' forward values — the sparse gating of Shazeer et al.
fn topk_mask(logits: &Matrix, k: usize) -> Matrix {
    let mut mask = Matrix::full(logits.rows(), logits.cols(), -1e30);
    for i in 0..logits.rows() {
        let row = logits.row(i);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_unstable_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("finite"));
        for &j in idx.iter().take(k.min(row.len())) {
            mask.set(i, j, 0.0);
        }
    }
    mask
}

/// The MoE's network: a top-k gate over `[x; emb(t)]` and the experts it
/// weighs.
pub struct Moe {
    emb: TEmbedding,
    gate: Linear,
    experts: Vec<Mlp>,
    top_k: usize,
    dim: usize,
}

impl Network for Moe {
    const LOG_SPACE: bool = true;
    const CONSISTENT: bool = false;

    fn dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, t: Var) -> Var {
        let te = self.emb.forward(g, store, t);
        let input = g.concat_cols(x, te);
        let logits = self.gate.forward(g, store, input);
        let mask = g.leaf(topk_mask(g.value(logits), self.top_k));
        let masked = g.add(logits, mask);
        let gates = g.softmax_rows(masked);
        // all experts evaluated; unselected ones receive ~0 weight
        let mut outs: Option<Var> = None;
        for e in &self.experts {
            let o = e.forward(g, store, input);
            outs = Some(match outs {
                Some(acc) => g.concat_cols(acc, o),
                None => o,
            });
        }
        let outs = outs.expect("at least one expert");
        let weighted = g.mul(gates, outs);
        g.row_sum(weighted)
    }
}

/// A trained MoE estimator.
pub type MoeEstimator = Regressor<Moe>;

impl MoeEstimator {
    /// Trains the MoE on a workload.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &MoeConfig) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let mut store = ParamStore::new();
        let emb = TEmbedding::new(&mut store, "temb", cfg.base.t_embed, &mut rng);
        let in_dim = dim + cfg.base.t_embed;
        let gate = Linear::new(&mut store, "gate", in_dim, cfg.num_experts, &mut rng);
        let experts: Vec<Mlp> = (0..cfg.num_experts)
            .map(|i| {
                let mut widths = vec![in_dim];
                widths.extend_from_slice(&cfg.expert_hidden);
                widths.push(1);
                Mlp::new(
                    &mut store,
                    &format!("expert{i}"),
                    &widths,
                    Activation::Relu,
                    Activation::Linear,
                    &mut rng,
                )
            })
            .collect();
        let net = Moe {
            emb,
            gate,
            experts,
            top_k: cfg.top_k,
            dim,
        };
        Regressor::train(store, net, workload, &cfg.base, "MoE")
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.net.experts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_eval::{evaluate, SelectivityEstimator};
    use selnet_metric::DistanceKind;
    use selnet_workload::{generate_workload, WorkloadConfig};

    #[test]
    fn topk_mask_keeps_exactly_k() {
        let logits = Matrix::from_vec(2, 4, vec![0.1, 3.0, -1.0, 2.0, 5.0, 0.0, 1.0, 2.0]);
        let mask = topk_mask(&logits, 2);
        for i in 0..2 {
            let kept = mask.row(i).iter().filter(|&&v| v == 0.0).count();
            assert_eq!(kept, 2);
        }
        // row 0: top-2 are logits 3.0 (idx 1) and 2.0 (idx 3)
        assert_eq!(mask.get(0, 1), 0.0);
        assert_eq!(mask.get(0, 3), 0.0);
    }

    #[test]
    fn moe_trains_and_predicts() {
        let ds = fasttext_like(&GeneratorConfig::new(1000, 6, 4, 13));
        let mut wcfg = WorkloadConfig::new(50, DistanceKind::Euclidean, 5);
        wcfg.thresholds_per_query = 8;
        let w = generate_workload(&ds, &wcfg);
        let model = MoeEstimator::fit(&ds, &w, &MoeConfig::tiny());
        assert_eq!(model.num_experts(), 4);
        let m = evaluate(&model, &w.test);
        assert!(m.mse.is_finite() && m.count > 0);
        assert!(model.estimate(ds.row(0), 0.5) >= 0.0);
    }
}
