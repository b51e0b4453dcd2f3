//! The SelNet network of Figure 1: enhanced input `[x; z_x]`, a τ-generator
//! FFN (`Norml2` → prefix sum → scale by `t_max`), model M for the `p`
//! ordinates (encoder FFN → per-control-point linear decoder → ReLU →
//! prefix sum), and the piece-wise linear head of Eq. (1).

use crate::config::{SelNetConfig, TauNormalization};
use rand::Rng;
use selnet_tensor::{Activation, Graph, Matrix, Mlp, ParamId, ParamStore, Var};

/// The per-model networks that generate the control points for one
/// (local or global) SelNet model. Shared across the partitioned variant:
/// each partition owns one `ControlPointNets`, all fed the same `[x; z_x]`.
#[derive(Clone, Debug)]
pub struct ControlPointNets {
    tau_net: Mlp,
    p_encoder: Mlp,
    dec_w: ParamId,
    dec_b: ParamId,
    control_points: usize,
    embed_dim: usize,
    tau_normalization: TauNormalization,
}

impl ControlPointNets {
    /// Registers the τ/p networks in `store`.
    ///
    /// `in_dim` is the width of the enhanced input `[x; z_x]`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        cfg: &SelNetConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let l = cfg.control_points;
        let h = cfg.embed_dim;
        let mut tau_widths = vec![in_dim];
        tau_widths.extend_from_slice(&cfg.tau_hidden);
        tau_widths.push(l + 1);
        let tau_net = Mlp::new(
            store,
            &format!("{name}.tau"),
            &tau_widths,
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        let mut p_widths = vec![in_dim];
        p_widths.extend_from_slice(&cfg.p_hidden);
        p_widths.push((l + 2) * h);
        let p_encoder = Mlp::new(
            store,
            &format!("{name}.penc"),
            &p_widths,
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        let dec_w = store.add(
            format!("{name}.pdec.w"),
            selnet_tensor::init::he(l + 2, h, rng),
        );
        let dec_b = store.add(format!("{name}.pdec.b"), Matrix::zeros(1, l + 2));
        ControlPointNets {
            tau_net,
            p_encoder,
            dec_w,
            dec_b,
            control_points: l,
            embed_dim: h,
            tau_normalization: cfg.tau_normalization,
        }
    }

    /// Records the control-point generation for a batch.
    ///
    /// `input` is the enhanced input `[x; z_x]` (`R x in_dim`). Returns
    /// `(tau, p)`:
    ///
    /// * `tau`: `R x (L+2)` (or `1 x (L+2)` when `query_dependent_tau` is
    ///   off — the SelNet-ad-ct ablation feeds a constant vector into the
    ///   τ FFN and the head broadcasts it);
    /// * `p`: `R x (L+2)`, non-negative and non-decreasing along each row,
    ///   which by Lemma 1 makes the head monotone in `t`.
    pub fn control_points(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        input: Var,
        tmax: f32,
        query_dependent_tau: bool,
    ) -> (Var, Var) {
        let rows = g.value(input).rows();
        // ---- tau: Norml2(g_tau(input)) * tmax, prefix-summed ----
        let tau_in = if query_dependent_tau {
            input
        } else {
            let in_dim = g.value(input).cols();
            g.leaf_with(1, in_dim, |d| d.fill(1.0))
        };
        let raw_tau = self.tau_net.forward(g, store, tau_in);
        let norm = match self.tau_normalization {
            TauNormalization::Norml2 => g.norml2(raw_tau, 1e-6),
            TauNormalization::Softmax => g.softmax_rows(raw_tau),
        };
        let scaled = g.scale(norm, tmax);
        let tail = g.cumsum_cols(scaled);
        let zeros = g.leaf_with(if query_dependent_tau { rows } else { 1 }, 1, |_| {});
        let tau = g.concat_cols(zeros, tail);

        // ---- p: model M — encoder embeddings, block-linear decoder,
        // ReLU increments, prefix sum ----
        let enc = self.p_encoder.forward(g, store, input);
        let w = store.inject(g, self.dec_w);
        let b = store.inject(g, self.dec_b);
        let k_raw = g.block_linear(enc, w, b);
        let k = g.relu(k_raw);
        let p = g.cumsum_cols(k);
        (tau, p)
    }

    /// Number of interior control points `L`.
    pub fn num_control_points(&self) -> usize {
        self.control_points
    }

    /// Embedding width `|h_i|`.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::partitioned::{register_networks, PartitionedSelNet};
    use crate::plans::PlanCell;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selnet_data::Dataset;
    use selnet_eval::SelectivityEstimator;
    use selnet_index::Partitioning;
    use selnet_metric::DistanceKind;

    /// An untrained `K = 1` model over six dimensions: what these tests
    /// pin is the network's structure, which training does not change.
    fn untrained(cfg: SelNetConfig, seed: u64, name: &str) -> PartitionedSelNet {
        let pcfg = PartitionConfig::single();
        let ds = Dataset::from_rows(6, &[vec![0.0; 6]]);
        let partitioning =
            Partitioning::build(&ds, DistanceKind::Euclidean, pcfg.method, pcfg.k, seed);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let (ae, locals) = register_networks(&mut store, 6, &cfg, pcfg.k, &mut rng);
        PartitionedSelNet {
            cfg,
            pcfg,
            dim: 6,
            tmax: 2.0,
            store,
            ae,
            locals,
            partitioning,
            name: name.into(),
            reference_val_mae: 0.0,
            plans: PlanCell::new(),
        }
    }

    fn make_model(query_dep: bool) -> PartitionedSelNet {
        let cfg = SelNetConfig {
            query_dependent_tau: query_dep,
            ..SelNetConfig::tiny()
        };
        untrained(cfg, 3, "SelNet-ct")
    }

    /// The one curve of a `K = 1` model.
    fn curve(model: &PartitionedSelNet, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut curves = model.control_points_for(x);
        assert_eq!(curves.len(), 1);
        curves.swap_remove(0)
    }

    #[test]
    fn untrained_model_is_already_consistent() {
        // Monotonicity is structural (Lemma 1), not learned: even an
        // untrained network must be monotone in t.
        let model = make_model(true);
        let x = vec![0.1, -0.2, 0.3, 0.0, 0.5, -0.1];
        let ts: Vec<f32> = (0..100).map(|i| 2.0 * i as f32 / 99.0).collect();
        let preds = model.predict_many(&x, &ts);
        for w in preds.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "violation: {} -> {}", w[0], w[1]);
        }
        assert!(preds.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn control_points_cover_threshold_range() {
        let model = make_model(true);
        let x = vec![0.0; 6];
        let (tau, p) = curve(&model, &x);
        assert_eq!(tau.len(), model.cfg.control_points + 2);
        assert_eq!(p.len(), tau.len());
        assert_eq!(tau[0], 0.0);
        assert!(
            (tau.last().unwrap() - 2.0).abs() < 1e-4,
            "tau_max {:?}",
            tau.last()
        );
        assert!(tau.windows(2).all(|w| w[1] >= w[0]));
        assert!(p.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn ablated_tau_is_query_independent() {
        let model = make_model(false);
        let (tau_a, _) = curve(&model, &[0.0; 6]);
        let (tau_b, _) = curve(&model, &[1.0, -1.0, 0.5, 0.3, -0.7, 0.2]);
        assert_eq!(tau_a, tau_b, "SelNet-ad-ct must share tau across queries");
    }

    #[test]
    fn adaptive_tau_is_query_dependent() {
        let model = make_model(true);
        let (tau_a, _) = curve(&model, &[0.0; 6]);
        let (tau_b, _) = curve(&model, &[1.0, -1.0, 0.5, 0.3, -0.7, 0.2]);
        assert_ne!(
            tau_a, tau_b,
            "query-dependent tau should differ across queries"
        );
    }

    #[test]
    fn softmax_tau_variant_is_still_consistent() {
        // the Softmax normalization changes where control points land but
        // must not break Lemma 1's monotonicity
        let cfg = SelNetConfig {
            tau_normalization: crate::config::TauNormalization::Softmax,
            ..SelNetConfig::tiny()
        };
        let model = untrained(cfg, 9, "SelNet-softmax");
        let ts: Vec<f32> = (0..60).map(|i| 2.0 * i as f32 / 59.0).collect();
        let preds = model.predict_many(&[0.2, -0.4, 0.1, 0.7, -0.3, 0.0], &ts);
        for w in preds.windows(2) {
            assert!(w[1] >= w[0] - 1e-6);
        }
        // tau still ends exactly at tmax (softmax rows sum to 1 as well)
        let (tau, _) = curve(&model, &[0.0; 6]);
        assert!((tau.last().unwrap() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn estimate_matches_estimate_many() {
        let model = make_model(true);
        let x = vec![0.3; 6];
        let many = model.estimate_many(&x, &[0.5, 1.0]);
        assert_eq!(model.estimate(&x, 0.5), many[0]);
        assert_eq!(model.estimate(&x, 1.0), many[1]);
    }

    /// `K = 1` is "the one curve": with one part and no regions the
    /// indicator is all-ones, so an estimate is Eq. (1) on the model's
    /// only `(τ, p)` — to the bit, at thresholds on, off and beyond the
    /// ladder.
    #[test]
    fn a_single_model_estimate_is_its_one_curve_interpolated() {
        for query_dep in [true, false] {
            let model = make_model(query_dep);
            for x in [[0.3f32; 6], [1.0, -1.0, 0.5, 0.3, -0.7, 0.2]] {
                let (tau, p) = curve(&model, &x);
                for t in [-1.0f32, 0.0, 0.37, 1.0, 2.0, 5.0] {
                    let want = selnet_tensor::pwl_interp_row(&tau, &p, t) as f64;
                    assert_eq!(model.estimate(&x, t).to_bits(), want.to_bits(), "t = {t}");
                }
            }
        }
    }
}
