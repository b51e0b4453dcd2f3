//! The SelNet network of Figure 1: enhanced input `[x; z_x]`, a τ-generator
//! FFN (`Norml2` → prefix sum → scale by `t_max`), model M for the `p`
//! ordinates (encoder FFN → per-control-point linear decoder → ReLU →
//! prefix sum), and the piece-wise linear head of Eq. (1).

use crate::autoencoder::Autoencoder;
use crate::config::{SelNetConfig, TauNormalization};
use crate::plans::{control_points, replay_curves, PlanCell};
use rand::Rng;
use selnet_eval::SelectivityEstimator;
use selnet_tensor::{Activation, Graph, InferencePlan, Matrix, Mlp, ParamId, ParamStore, Var};
use std::sync::Arc;

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

/// A trained single (non-partitioned) SelNet model — `SelNet-ct` in the
/// paper's ablation naming.
#[derive(Clone)]
pub struct SelNetModel {
    pub(crate) cfg: SelNetConfig,
    pub(crate) dim: usize,
    pub(crate) tmax: f32,
    pub(crate) store: ParamStore,
    pub(crate) ae: Autoencoder,
    pub(crate) nets: ControlPointNets,
    pub(crate) name: String,
    /// Validation MAE recorded when the model was (re)trained; the §5.4
    /// update rule compares fresh MAE against this.
    pub(crate) reference_val_mae: f64,
    /// The compiled curve plan, keyed on the parameter-store version (see
    /// [`crate::plans`]). Rebuilt lazily after any retrain.
    pub(crate) plans: PlanCell<InferencePlan>,
}

impl SelNetModel {
    /// The curve plan `x [B × d] → (τ, p)` for the current parameters
    /// (compiled on first use or after a parameter mutation).
    fn plan(&self) -> Arc<InferencePlan> {
        self.plans.get_or(self.store.version(), || {
            // probe with two rows so batch scaling is unambiguous
            let mut g = Graph::new();
            let xv = g.leaf_with(2, self.dim, |_| {});
            let (tau, p, _z) = self.forward_control_points(&mut g, &self.store, xv);
            InferencePlan::compile(&g, &[xv], &[tau, p])
                .expect("the SelNet control-point forward is plan-compilable")
        })
    }

    /// Records the full forward pass for a batch of query vectors.
    /// Returns `(tau, p, z)`.
    pub(crate) fn forward_control_points(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
    ) -> (Var, Var, Var) {
        let z = self.ae.encode(g, store, x);
        let input = g.concat_cols(x, z);
        let (tau, p) =
            self.nets
                .control_points(g, store, input, self.tmax, self.cfg.query_dependent_tau);
        (tau, p, z)
    }

    /// The learned control points for a single query — used by the
    /// Figure 4 experiment to visualize where the model places them.
    pub fn control_points_for(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        control_points(&self.plan(), x).swap_remove(0)
    }

    /// Reference tape implementation of [`SelNetModel::control_points_for`]
    /// — pinned bit-identical to the plan path by the property suite.
    pub fn tape_control_points_for(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        Graph::with_pooled(|g| {
            let xv = g.leaf_with(1, x.len(), |row| row.copy_from_slice(x));
            let (tau, p, _) = self.forward_control_points(g, &self.store, xv);
            (g.value(tau).row(0).to_vec(), g.value(p).row(0).to_vec())
        })
    }

    /// Maximum supported threshold.
    pub fn tmax(&self) -> f32 {
        self.tmax
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &SelNetConfig {
        &self.cfg
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Direct access to the parameter store (checkpointing).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Predicts selectivities for one query at many thresholds with a
    /// single network evaluation (control points are query-only): one row
    /// of the compiled curve plan, one interpolation per threshold.
    pub fn predict_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        let mut out = Vec::with_capacity(ts.len());
        self.estimate_into(&[(x, ts)], 1, &mut out);
        out
    }

    /// Reference tape implementation of [`SelNetModel::predict_many`] —
    /// pinned bit-identical to the plan path by the property suite, and
    /// the baseline the `plan_*` bench group compares against.
    pub fn tape_predict_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        Graph::with_pooled(|g| {
            let xv = g.leaf_with(1, x.len(), |row| row.copy_from_slice(x));
            let (tau, p, _) = self.forward_control_points(g, &self.store, xv);
            let t = g.leaf_with(ts.len(), 1, |col| col.copy_from_slice(ts));
            let y = g.pwl_interp(tau, p, t);
            g.value(y).data().iter().map(|&v| v as f64).collect()
        })
    }
}

impl SelectivityEstimator for SelNetModel {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        self.predict_many(x, &[t])[0]
    }

    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        self.predict_many(x, ts)
    }

    /// One network pass over the wave's query objects; `threads` never
    /// changes a bit.
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], threads: usize, out: &mut Vec<f64>) {
        replay_curves(&self.plan(), self.dim, queries, threads, None, out)
    }

    fn query_dim(&self) -> Option<usize> {
        Some(self.dim)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn guarantees_consistency(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_model(query_dep: bool) -> SelNetModel {
        let cfg = SelNetConfig {
            query_dependent_tau: query_dep,
            ..SelNetConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(
            &mut store,
            "ae",
            6,
            &cfg.ae_hidden,
            cfg.latent_dim,
            &mut rng,
        );
        let nets = ControlPointNets::new(&mut store, "m", 6 + cfg.latent_dim, &cfg, &mut rng);
        SelNetModel {
            cfg,
            dim: 6,
            tmax: 2.0,
            store,
            ae,
            nets,
            name: "SelNet-ct".into(),
            reference_val_mae: 0.0,
            plans: PlanCell::new(),
        }
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
        let (tau, p) = model.control_points_for(&x);
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
        let (tau_a, _) = model.control_points_for(&[0.0; 6]);
        let (tau_b, _) = model.control_points_for(&[1.0, -1.0, 0.5, 0.3, -0.7, 0.2]);
        assert_eq!(tau_a, tau_b, "SelNet-ad-ct must share tau across queries");
    }

    #[test]
    fn adaptive_tau_is_query_dependent() {
        let model = make_model(true);
        let (tau_a, _) = model.control_points_for(&[0.0; 6]);
        let (tau_b, _) = model.control_points_for(&[1.0, -1.0, 0.5, 0.3, -0.7, 0.2]);
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
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(
            &mut store,
            "ae",
            6,
            &cfg.ae_hidden,
            cfg.latent_dim,
            &mut rng,
        );
        let nets = ControlPointNets::new(&mut store, "m", 6 + cfg.latent_dim, &cfg, &mut rng);
        let model = SelNetModel {
            cfg,
            dim: 6,
            tmax: 2.0,
            store,
            ae,
            nets,
            name: "SelNet-softmax".into(),
            reference_val_mae: 0.0,
            plans: PlanCell::new(),
        };
        let ts: Vec<f32> = (0..60).map(|i| 2.0 * i as f32 / 59.0).collect();
        let preds = model.predict_many(&[0.2, -0.4, 0.1, 0.7, -0.3, 0.0], &ts);
        for w in preds.windows(2) {
            assert!(w[1] >= w[0] - 1e-6);
        }
        // tau still ends exactly at tmax (softmax rows sum to 1 as well)
        let (tau, _) = model.control_points_for(&[0.0; 6]);
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
}
