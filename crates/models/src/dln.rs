//! Deep Lattice Network (the DLN baseline, You et al., NIPS'17).
//!
//! Six layers as in the paper's Appendix B.2: calibrators → linear
//! embedding → calibrators → ensemble of lattices → calibrators → linear
//! embedding. Monotonicity in `t` is enforced structurally:
//!
//! * the `t` calibrator uses softmax increments + prefix sum (monotone ↑);
//! * embedding weights leaving the `t` channel are softplus-reparameterized
//!   (non-negative);
//! * intermediate calibrators are monotone ↑;
//! * lattice vertex parameters are projected after every optimizer step so
//!   each lattice is monotone in every input (the standard lattice
//!   monotonicity projection);
//! * the output layer's weights are softplus-reparameterized.
//!
//! The model predicts `log(y + ε)`; a monotone log-prediction implies a
//! monotone (consistent) selectivity estimate. Note the keypoints of every
//! calibrator are *fixed and evenly spaced* — exactly the inflexibility the
//! paper's §6.2 analysis (and our Figure 3 reproduction) exposes.

use crate::common::{Network, NeuralConfig, Regressor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_tensor::{init, Graph, Matrix, ParamId, ParamStore, Var};
use selnet_workload::Workload;

/// DLN hyper-parameters.
#[derive(Clone, Debug)]
pub struct DlnConfig {
    /// Shared neural settings (`hidden` is unused; DLN has its own shape).
    pub base: NeuralConfig,
    /// Keypoints per calibrator.
    pub keypoints: usize,
    /// Embedding width (number of lattice input channels).
    pub embed: usize,
    /// Number of lattices in the ensemble.
    pub lattices: usize,
    /// Inputs per lattice (2^m parameters each).
    pub lattice_dim: usize,
}

impl Default for DlnConfig {
    fn default() -> Self {
        DlnConfig {
            base: NeuralConfig::default(),
            keypoints: 8,
            embed: 6,
            lattices: 4,
            lattice_dim: 3,
        }
    }
}

impl DlnConfig {
    /// Small fast configuration for tests.
    pub fn tiny() -> Self {
        DlnConfig {
            base: NeuralConfig::tiny(),
            keypoints: 6,
            embed: 4,
            lattices: 2,
            lattice_dim: 2,
        }
    }
}

/// A bank of 1-D piece-wise-linear calibrators with fixed, evenly spaced
/// keypoints and a per-dimension monotonicity flag.
#[derive(Debug)]
struct CalibratorBank {
    /// Raw parameters, `1 x (dims * keypoints)`.
    raw: ParamId,
    /// Fixed keypoints, `dims * keypoints` flattened.
    keypoints: Vec<f32>,
    dims: usize,
    k: usize,
    /// Monotone dims map through softmax increments + prefix sum.
    monotone: Vec<bool>,
}

impl CalibratorBank {
    fn new(
        store: &mut ParamStore,
        name: &str,
        ranges: &[(f32, f32)],
        k: usize,
        monotone: Vec<bool>,
        rng: &mut impl Rng,
    ) -> Self {
        let dims = ranges.len();
        assert_eq!(monotone.len(), dims, "one monotone flag per dim");
        assert!(k >= 2, "need at least two keypoints");
        let raw = store.add(name.to_string(), init::normal(1, dims * k, 0.3, rng));
        let mut keypoints = Vec::with_capacity(dims * k);
        for &(lo, hi) in ranges {
            let span = (hi - lo).max(1e-6);
            for i in 0..k {
                keypoints.push(lo + span * i as f32 / (k - 1) as f32);
            }
        }
        CalibratorBank {
            raw,
            keypoints,
            dims,
            k,
            monotone,
        }
    }

    /// Calibrates all dims of `inputs` (`R x dims`); returns `R x dims`,
    /// its columns joined as a balanced tree of `concat_cols` (a chain
    /// would copy `O(dims²)` floats per row, the tree `O(dims · log dims)`).
    fn calibrate_all(&self, g: &mut Graph, store: &ParamStore, inputs: Var) -> Var {
        let raw = store.inject(g, self.raw);
        let mut cols = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let slice = g.slice_cols(raw, d * self.k, (d + 1) * self.k);
            let p = if self.monotone[d] {
                let inc = g.softmax_rows(slice);
                g.cumsum_cols(inc)
            } else {
                g.sigmoid(slice)
            };
            let tau = g.leaf(Matrix::row_vector(
                &self.keypoints[d * self.k..(d + 1) * self.k],
            ));
            let col = g.slice_cols(inputs, d, d + 1);
            cols.push(g.pwl_interp(tau, p, col));
        }
        while cols.len() > 1 {
            cols = cols
                .chunks(2)
                .map(|pair| match *pair {
                    [a, b] => g.concat_cols(a, b),
                    _ => pair[0],
                })
                .collect();
        }
        cols.pop().expect("dims > 0")
    }
}

/// Projects a lattice parameter vector (`1 x 2^m`) to be monotone
/// non-decreasing along every dimension: sweeps all axis-aligned vertex
/// pairs, averaging violators, until a fixpoint (or 32 sweeps).
pub fn project_lattice_monotone(params: &mut [f32], m: usize) {
    let size = 1usize << m;
    assert_eq!(params.len(), size, "params must have 2^m entries");
    for _ in 0..32 {
        let mut changed = false;
        for j in 0..m {
            let bit = 1usize << j;
            for v in 0..size {
                if v & bit == 0 {
                    let hi = v | bit;
                    if params[v] > params[hi] {
                        let avg = 0.5 * (params[v] + params[hi]);
                        params[v] = avg;
                        params[hi] = avg;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// The DLN's network: the six layers' parameter ids and shapes.
pub struct Dln {
    input_cal: CalibratorBank,
    embed_w_free: ParamId,
    embed_w_t: ParamId,
    embed_b: ParamId,
    mid_cal: CalibratorBank,
    lattice_params: Vec<ParamId>,
    lattice_inputs: Vec<Vec<usize>>,
    out_cal: CalibratorBank,
    out_w: ParamId,
    out_b: ParamId,
    dim: usize,
}

impl Network for Dln {
    const LOG_SPACE: bool = true;
    const CONSISTENT: bool = true;

    fn dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, t: Var) -> Var {
        // layer 1: calibrate [x; t] (x dims free, t monotone)
        let input = g.concat_cols(x, t);
        let calibrated = self.input_cal.calibrate_all(g, store, input);
        let xc = g.slice_cols(calibrated, 0, self.dim);
        let tc = g.slice_cols(calibrated, self.dim, self.dim + 1);
        // layer 2: linear embedding; the t channel has non-negative weights
        let wf = store.inject(g, self.embed_w_free);
        let wt_raw = store.inject(g, self.embed_w_t);
        let wt = g.softplus(wt_raw);
        let b = store.inject(g, self.embed_b);
        let xe = g.matmul(xc, wf);
        let te = g.matmul(tc, wt);
        let sum = g.add(xe, te);
        let emb = g.add_row_vec(sum, b);
        let emb01 = g.sigmoid(emb); // squash into the calibrator domain
                                    // layer 3: monotone calibrators per embedding channel
        let cal3 = self.mid_cal.calibrate_all(g, store, emb01);
        // layer 4: lattice ensemble
        let mut lat_out: Option<Var> = None;
        for (pid, dims) in self.lattice_params.iter().zip(&self.lattice_inputs) {
            let mut cols: Option<Var> = None;
            for &d in dims {
                let c = g.slice_cols(cal3, d, d + 1);
                cols = Some(match cols {
                    Some(acc) => g.concat_cols(acc, c),
                    None => c,
                });
            }
            let input = cols.expect("lattice has inputs");
            let params = store.inject(g, *pid);
            let o = g.lattice(input, params);
            lat_out = Some(match lat_out {
                Some(acc) => g.concat_cols(acc, o),
                None => o,
            });
        }
        let lat = lat_out.expect("at least one lattice");
        // layer 5: monotone calibrators on (squashed) lattice outputs
        let lat01 = g.sigmoid(lat);
        let cal5 = self.out_cal.calibrate_all(g, store, lat01);
        // layer 6: linear output with non-negative weights
        let ow_raw = store.inject(g, self.out_w);
        let ow = g.softplus(ow_raw);
        let ob = store.inject(g, self.out_b);
        let z = g.matmul(cal5, ow);
        g.add_row_vec(z, ob)
    }

    /// Projects every lattice back to monotone after an optimizer step.
    fn project(&self, store: &mut ParamStore) {
        for (&pid, dims) in self.lattice_params.iter().zip(&self.lattice_inputs) {
            project_lattice_monotone(store.value_mut(pid).data_mut(), dims.len());
        }
    }
}

/// A trained DLN estimator.
pub type DlnEstimator = Regressor<Dln>;

impl DlnEstimator {
    /// Trains the DLN on a workload.
    pub fn fit(ds: &Dataset, workload: &Workload, cfg: &DlnConfig) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let mut store = ParamStore::new();

        // feature ranges for the input calibrators
        let stats = selnet_data::stats::column_stats(ds);
        let mut ranges: Vec<(f32, f32)> = stats
            .mean
            .iter()
            .zip(&stats.std)
            .map(|(&m, &s)| (m - 3.0 * s, m + 3.0 * s))
            .collect();
        ranges.push((0.0, workload.tmax));
        let mut monotone = vec![false; dim];
        monotone.push(true); // t is the last dim
        let input_cal = CalibratorBank::new(
            &mut store,
            "cal1",
            &ranges,
            cfg.keypoints,
            monotone,
            &mut rng,
        );

        let embed_w_free = store.add("embed.wf", init::xavier(dim, cfg.embed, &mut rng));
        let embed_w_t = store.add("embed.wt", init::normal(1, cfg.embed, 0.5, &mut rng));
        let embed_b = store.add("embed.b", Matrix::zeros(1, cfg.embed));

        let mid_ranges = vec![(0.0f32, 1.0f32); cfg.embed];
        let mid_cal = CalibratorBank::new(
            &mut store,
            "cal3",
            &mid_ranges,
            cfg.keypoints,
            vec![true; cfg.embed],
            &mut rng,
        );

        let m = cfg.lattice_dim.min(cfg.embed).max(1);
        let lattice_params: Vec<ParamId> = (0..cfg.lattices.max(1))
            .map(|i| {
                let mut p = init::normal(1, 1 << m, 0.3, &mut rng);
                project_lattice_monotone(p.data_mut(), m);
                store.add(format!("lattice{i}"), p)
            })
            .collect();
        let lattice_inputs: Vec<Vec<usize>> = (0..cfg.lattices.max(1))
            .map(|i| (0..m).map(|j| (i * m + j) % cfg.embed).collect())
            .collect();

        let out_ranges = vec![(0.0f32, 1.0f32); cfg.lattices.max(1)];
        let out_cal = CalibratorBank::new(
            &mut store,
            "cal5",
            &out_ranges,
            cfg.keypoints,
            vec![true; cfg.lattices.max(1)],
            &mut rng,
        );
        let out_w = store.add("out.w", init::normal(cfg.lattices.max(1), 1, 0.5, &mut rng));
        let out_b = store.add("out.b", Matrix::zeros(1, 1));

        let net = Dln {
            input_cal,
            embed_w_free,
            embed_w_t,
            embed_b,
            mid_cal,
            lattice_params,
            lattice_inputs,
            out_cal,
            out_w,
            out_b,
            dim,
        };
        Regressor::train(store, net, workload, &cfg.base, "DLN")
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
    fn lattice_projection_makes_monotone() {
        let mut p = vec![3.0f32, 1.0, 0.5, 2.0, -1.0, 4.0, 0.0, 0.2];
        project_lattice_monotone(&mut p, 3);
        for j in 0..3usize {
            let bit = 1usize << j;
            for v in 0..8usize {
                if v & bit == 0 {
                    assert!(
                        p[v] <= p[v | bit] + 1e-6,
                        "dim {j}: p[{v}]={} > p[{}]={}",
                        p[v],
                        v | bit,
                        p[v | bit]
                    );
                }
            }
        }
    }

    #[test]
    fn projection_is_idempotent_on_monotone_input() {
        let mut p = vec![0.0f32, 1.0, 2.0, 3.0];
        let orig = p.clone();
        project_lattice_monotone(&mut p, 2);
        assert_eq!(p, orig);
    }

    #[test]
    fn dln_is_consistent_by_construction() {
        let ds = fasttext_like(&GeneratorConfig::new(800, 5, 3, 29));
        let mut wcfg = WorkloadConfig::new(40, DistanceKind::Euclidean, 11);
        wcfg.thresholds_per_query = 8;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = DlnConfig::tiny();
        cfg.base.epochs = 6;
        let model = DlnEstimator::fit(&ds, &w, &cfg);
        let score = selnet_eval::empirical_monotonicity(&model, &w.test, 8, 60, w.tmax);
        assert_eq!(score, 100.0, "DLN must be monotone in t");
    }

    #[test]
    fn dln_trains_and_predicts_finite() {
        let ds = fasttext_like(&GeneratorConfig::new(600, 5, 3, 31));
        let mut wcfg = WorkloadConfig::new(30, DistanceKind::Euclidean, 13);
        wcfg.thresholds_per_query = 6;
        let w = generate_workload(&ds, &wcfg);
        let mut cfg = DlnConfig::tiny();
        cfg.base.epochs = 5;
        let model = DlnEstimator::fit(&ds, &w, &cfg);
        let m = evaluate(&model, &w.test);
        assert!(m.mse.is_finite() && m.count > 0);
        assert!(model.guarantees_consistency());
    }
}
