//! The partitioned estimator of §5.3 — the full **SelNet**.
//!
//! The database is split into `K` disjoint parts (cover tree + greedy merge
//! by default). All local models share the same enhanced input `[x; z_x]`
//! (one shared autoencoder) but own their control-point networks. The
//! global estimate is `f*(x,t) = Σ_i f_c(x,t)[i] · f^(i)(x,t)` where `f_c`
//! is the cluster-intersection indicator. Training follows the paper's
//! third option: pretrain the local models for `T` epochs on local labels,
//! then train jointly with
//! `J_joint = J_est(f*) + β Σ_i J_est(f^(i)) + λ J_AE`.

use crate::autoencoder::Autoencoder;
use crate::config::{PartitionConfig, SelNetConfig};
use crate::model::ControlPointNets;
use crate::plans::{control_points, replay_curves, PlanCell};
use crate::train::{
    ae_term, flatten_pairs, gather_leaf, interp_pairs, log_loss, CurveBatch, FlatPairs, TrainReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_index::Partitioning;
use selnet_tensor::{
    pwl_interp_row, Adam, Graph, InferencePlan, Matrix, Optimizer, ParamStore, Var,
};
use selnet_workload::{label_partitions, LabeledQuery, PartitionedLabels, Workload};
use std::sync::Arc;

/// A trained partitioned SelNet (the paper's headline model).
#[derive(Clone)]
pub struct PartitionedSelNet {
    pub(crate) cfg: SelNetConfig,
    pub(crate) pcfg: PartitionConfig,
    pub(crate) dim: usize,
    pub(crate) tmax: f32,
    pub(crate) store: ParamStore,
    pub(crate) ae: Autoencoder,
    pub(crate) locals: Vec<ControlPointNets>,
    pub(crate) partitioning: Partitioning,
    pub(crate) name: String,
    pub(crate) reference_val_mae: f64,
    /// The compiled curve plan, keyed on the parameter-store version (see
    /// [`crate::plans`]). Rebuilt lazily after any retrain; a clone (the
    /// hot-swap `spawn_update` path) starts with an empty cell.
    pub(crate) plans: PlanCell<InferencePlan>,
}

impl PartitionedSelNet {
    /// The curve plan `x [B × d] → (τ_k, p_k)` over all `K` local models
    /// for the current parameters — compiled on first use or after a
    /// parameter mutation, once per version.
    fn plan(&self) -> Arc<InferencePlan> {
        self.plans.get_or(self.store.version(), || {
            // probe with 2 rows so batch scaling is unambiguous (a constant
            // leaf with probe-batch rows is broadcast; see InferencePlan docs)
            let mut g = Graph::new();
            let xv = g.leaf_with(2, self.dim, |_| {});
            let (_z, knots) = self.forward_locals(&mut g, xv, |_, tau, p| [tau, p]);
            InferencePlan::compile(&g, &[xv], &knots.concat())
                .expect("the partitioned SelNet control-point forward is plan-compilable")
        })
    }

    /// Number of partitions.
    pub fn k(&self) -> usize {
        self.locals.len()
    }

    /// The partitioning in use.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Maximum supported threshold.
    pub fn tmax(&self) -> f32 {
        self.tmax
    }

    /// The learned control points `(τ, p)` for a single query, one pair
    /// per curve (`K` of them; a model from [`crate::fit`] has one) — used
    /// by the Figure 4 experiment to visualize where the model places them.
    pub fn control_points_for(&self, x: &[f32]) -> Vec<(Vec<f32>, Vec<f32>)> {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        control_points(&self.plan(), x)
    }

    /// Records the shared encoder and every local model's control points
    /// for a batch; `head` is recorded right after each model's `(τ, p)`
    /// and chooses what the caller keeps of it (training interpolates at
    /// the batch's thresholds, plan compilation keeps the knots).
    /// Returns `(z, [head_i])`.
    fn forward_locals<T>(
        &self,
        g: &mut Graph,
        x: Var,
        mut head: impl FnMut(&mut Graph, Var, Var) -> T,
    ) -> (Var, Vec<T>) {
        let z = self.ae.encode(g, &self.store, x);
        let input = g.concat_cols(x, z);
        let mut heads = Vec::with_capacity(self.locals.len());
        for nets in &self.locals {
            let (tau, p) = nets.control_points(
                g,
                &self.store,
                input,
                self.tmax,
                self.cfg.query_dependent_tau,
            );
            heads.push(head(g, tau, p));
        }
        (z, heads)
    }

    /// Predicts selectivities for one query at many thresholds, applying
    /// the intersection indicator per threshold: one network row, one
    /// interpolation per threshold (see "The curve plan" in `ARCHITECTURE.md`).
    pub fn predict_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        let mut out = Vec::with_capacity(ts.len());
        self.estimate_into(&[(x, ts)], 1, &mut out);
        out
    }

    /// Reference tape implementation of
    /// [`PartitionedSelNet::predict_many`] — pinned bit-identical to the
    /// plan path by the property suite, and the baseline the `plan_*`
    /// bench group compares against.
    pub fn tape_predict_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let local_preds: Vec<Vec<f64>> = Graph::with_pooled(|g| {
            let xv = g.leaf_with(1, x.len(), |row| row.copy_from_slice(x));
            let z = self.ae.encode(g, &self.store, xv);
            let input = g.concat_cols(xv, z);
            let tv = g.leaf_with(ts.len(), 1, |col| col.copy_from_slice(ts));
            // local predictions over all thresholds (tau/p broadcast from
            // 1 row)
            self.locals
                .iter()
                .map(|nets| {
                    let (tau, p) = nets.control_points(
                        g,
                        &self.store,
                        input,
                        self.tmax,
                        self.cfg.query_dependent_tau,
                    );
                    let y = g.pwl_interp(tau, p, tv);
                    g.value(y).data().iter().map(|&v| v as f64).collect()
                })
                .collect()
        });
        // indicator per threshold
        ts.iter()
            .enumerate()
            .map(|(j, &t)| {
                let ind = self.partitioning.indicator(x, t);
                local_preds
                    .iter()
                    .zip(&ind)
                    .map(|(pred, &on)| if on { pred[j] } else { 0.0 })
                    .sum()
            })
            .collect()
    }

    /// Predicts selectivities for **many distinct queries in one network
    /// pass**: query `i` is `(xs[i], ts[i])`, all query objects become rows
    /// of a single batch matrix.
    ///
    /// Every forward op is row-wise (the blocked matmul kernels accumulate
    /// each output row independently and in a fixed order), so the result
    /// for query `i` is **bit-identical** to
    /// `predict_many(xs[i], &[ts[i]])[0]` — the property that lets the
    /// serving engine coalesce opportunistically without changing any
    /// answer (pinned by `predict_batch_matches_predict_many`).
    pub fn predict_batch(&self, xs: &[&[f32]], ts: &[f32]) -> Vec<f64> {
        self.estimate_batch(xs, ts)
    }

    /// Reference tape implementation of
    /// [`PartitionedSelNet::predict_batch`] — pinned bit-identical to the
    /// plan path by the property suite, and the baseline the `plan_*`
    /// bench group compares against.
    pub fn tape_predict_batch(&self, xs: &[&[f32]], ts: &[f32]) -> Vec<f64> {
        assert_eq!(xs.len(), ts.len(), "one threshold per query object");
        if xs.is_empty() {
            return Vec::new();
        }
        for x in xs {
            assert_eq!(x.len(), self.dim, "query dimension mismatch");
        }
        let b = xs.len();
        let threads = selnet_tensor::parallel::configured_threads();
        let local_preds: Vec<Vec<f64>> = Graph::with_pooled(|g| {
            let xv = g.leaf_rows(b, self.dim, threads, |i, row| row.copy_from_slice(xs[i]));
            let tv = g.leaf_with(b, 1, |col| col.copy_from_slice(ts));
            let z = self.ae.encode(g, &self.store, xv);
            let input = g.concat_cols(xv, z);
            self.locals
                .iter()
                .map(|nets| {
                    let (tau, p) = nets.control_points(
                        g,
                        &self.store,
                        input,
                        self.tmax,
                        self.cfg.query_dependent_tau,
                    );
                    let y = g.pwl_interp(tau, p, tv);
                    g.value(y).data().iter().map(|&v| v as f64).collect()
                })
                .collect()
        });
        (0..b)
            .map(|i| {
                let ind = self.partitioning.indicator(xs[i], ts[i]);
                local_preds
                    .iter()
                    .zip(&ind)
                    .map(|(pred, &on)| if on { pred[i] } else { 0.0 })
                    .sum()
            })
            .collect()
    }

    /// Per-part predictions for one `(x, t)`, before the indicator
    /// (diagnostics / tests).
    pub fn local_estimates(&self, x: &[f32], t: f32) -> Vec<f64> {
        self.control_points_for(x)
            .iter()
            .map(|(tau, p)| pwl_interp_row(tau, p, t) as f64)
            .collect()
    }
}

impl SelectivityEstimator for PartitionedSelNet {
    fn estimate(&self, x: &[f32], t: f32) -> f64 {
        self.predict_many(x, &[t])[0]
    }

    fn estimate_many(&self, x: &[f32], ts: &[f32]) -> Vec<f64> {
        self.predict_many(x, ts)
    }

    /// One network pass over the wave's query objects, fanned across up
    /// to `threads` workers: the tape forward bit for bit, at every thread
    /// count.
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], threads: usize, out: &mut Vec<f64>) {
        replay_curves(
            &self.plan(),
            self.dim,
            queries,
            threads,
            &self.partitioning,
            out,
        )
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

/// A training split laid out for curve batches ([`FlatPairs`]) with the
/// per-part labels and indicators of every pair.
pub(crate) struct JointPairs<'a> {
    flat: FlatPairs<'a>,
    /// `ylog_local[part][pair]`
    ylog_local: Vec<Vec<f32>>,
    /// `indicator[part][pair]` as 0/1
    indicator: Vec<Vec<f32>>,
}

fn build_joint_pairs<'a>(
    train: &'a [LabeledQuery],
    part_labels: &[Vec<Vec<f64>>],
    partitioning: &Partitioning,
    log_eps: f32,
) -> JointPairs<'a> {
    let k = partitioning.k();
    let mut out = JointPairs {
        flat: flatten_pairs(train, log_eps),
        ylog_local: vec![Vec::new(); k],
        indicator: vec![Vec::new(); k],
    };
    let mut on = Vec::new();
    for (q, labels) in train.iter().zip(part_labels) {
        partitioning.indicator_many_into(&q.x, &q.thresholds, &mut on);
        for (j, on) in on.chunks_exact(k).enumerate() {
            for part in 0..k {
                out.ylog_local[part].push((labels[part][j] as f32 + log_eps).ln());
                out.indicator[part].push(if on[part] { 1.0 } else { 0.0 });
            }
        }
    }
    out
}

/// [`label_partitions`] under a `label_partitions` span on the global
/// recorder (inert until armed): a = labelling workers engaged, b =
/// queries labelled.
fn label_partitions_traced(
    ds: &Dataset,
    partitioning: &Partitioning,
    queries: &[LabeledQuery],
    kind: selnet_metric::DistanceKind,
) -> PartitionedLabels {
    let mut span = selnet_obs::trace::global().span("label_partitions", 0);
    let labels = label_partitions(ds, partitioning, queries, kind, 0);
    span.set_detail(labels.workers as u64, queries.len() as u64);
    labels
}

/// One local-pretraining step (§5.3 phase 1). The `K` local estimation
/// losses and the AE reconstruction term are independent given the current
/// parameters, so each runs forward + backward on its **own tape** — on
/// its own thread when the dispatcher has workers to spare. The tapes are
/// persistent arenas owned by [`run_training_phase`]: each job resets and
/// rebuilds its tape in place, so the fan-out's matrix traffic recycles
/// warm buffers. The per-job losses come back in job order; the caller merges the
/// per-tape gradients in that same fixed order, which is mathematically
/// the same total loss the seed computed on one tape
/// (`Σ_i J_est(f^(i)) + λ J_AE`) and keeps the step deterministic for any
/// thread count.
///
/// This multi-tape split runs even with one worker, where it re-runs the
/// (small) AE encoder per job instead of sharing one `z`. That modest
/// single-thread overhead is deliberate: a serial single-tape fallback
/// would produce *different float rounding* than the merged-tape path, so
/// trained models would depend on the machine's thread count — breaking
/// the reproducibility contract pinned by
/// `partitioned_training_is_deterministic`.
fn local_pretrain_step(
    model: &PartitionedSelNet,
    pairs: &JointPairs<'_>,
    batch: &CurveBatch,
    tapes: &mut [Graph],
) -> Vec<f64> {
    let cfg = &model.cfg;
    let k = model.locals.len();
    let threads = selnet_tensor::parallel::configured_threads();
    // jobs 0..k: per-partition estimation losses; job k: the AE term
    selnet_tensor::parallel::par_map_states(tapes, threads, |job, g| {
        g.reset();
        let xv = g.leaf_ref(&batch.x);
        let z = model.ae.encode(g, &model.store, xv);
        let loss = if job < k {
            let tv = gather_leaf(g, &pairs.flat.t, &batch.pairs);
            let input = g.concat_cols(xv, z);
            let (tau, p) = model.locals[job].control_points(
                g,
                &model.store,
                input,
                model.tmax,
                cfg.query_dependent_tau,
            );
            let pred = interp_pairs(g, tau, p, &batch.rows, tv);
            let yl = gather_leaf(g, &pairs.ylog_local[job], &batch.pairs);
            log_loss(g, pred, yl, cfg)
        } else {
            ae_term(g, &model.ae, &model.store, xv, z, batch, cfg.lambda_ae)
        };
        g.backward_params(loss);
        g.value(loss).get(0, 0) as f64
    })
}

/// Records the joint objective of §5.3 phase 2 for `batch` on `g`:
/// `J_est(f*) + β Σ_i J_est(f^(i)) + λ J_AE`. The encoder and the `K`
/// local models run on the batch's object rows; predictions, labels and
/// the indicator mask are per pair.
fn joint_loss(
    model: &PartitionedSelNet,
    pairs: &JointPairs<'_>,
    batch: &CurveBatch,
    g: &mut Graph,
) -> Var {
    let cfg = &model.cfg;
    let beta = model.pcfg.beta;
    let xv = g.leaf_ref(&batch.x);
    let tv = gather_leaf(g, &pairs.flat.t, &batch.pairs);
    let yv = gather_leaf(g, &pairs.flat.ylog, &batch.pairs);
    let (z, local_preds) =
        model.forward_locals(g, xv, |g, tau, p| interp_pairs(g, tau, p, &batch.rows, tv));

    // local losses: beta * sum_i J_est(f^(i))
    let mut loss_acc: Option<Var> = None;
    for (part, &local_pred) in local_preds.iter().enumerate() {
        let yl = gather_leaf(g, &pairs.ylog_local[part], &batch.pairs);
        let m = log_loss(g, local_pred, yl, cfg);
        let weighted = g.scale(m, beta);
        loss_acc = Some(match loss_acc {
            Some(acc) => g.add(acc, weighted),
            None => weighted,
        });
    }
    let mut loss = loss_acc.expect("k > 0");

    // global estimate: sum of indicator-masked local predictions
    let mut global: Option<Var> = None;
    for (part, &local_pred) in local_preds.iter().enumerate() {
        let ind = gather_leaf(g, &pairs.indicator[part], &batch.pairs);
        let masked = g.mul(local_pred, ind);
        global = Some(match global {
            Some(acc) => g.add(acc, masked),
            None => masked,
        });
    }
    let global_loss = log_loss(g, global.expect("k > 0"), yv, cfg);
    loss = g.add(global_loss, loss);

    // lambda * J_AE
    let ae = ae_term(g, &model.ae, &model.store, xv, z, batch, cfg.lambda_ae);
    g.add(loss, ae)
}

/// One joint-training step: the global estimate couples every partition
/// through the indicator sum, so this stays a single (reused) tape.
/// Returns the batch loss and the parameter gradients as borrows into the
/// tape.
fn joint_step<'g>(
    model: &PartitionedSelNet,
    pairs: &JointPairs<'_>,
    batch: &CurveBatch,
    g: &'g mut Graph,
) -> (f64, Vec<(selnet_tensor::ParamId, &'g Matrix)>) {
    g.reset();
    let loss = joint_loss(model, pairs, batch, g);
    g.backward_params(loss);
    let loss_val = g.value(loss).get(0, 0) as f64;
    (loss_val, g.param_grad_refs())
}

impl PartitionedSelNet {
    /// Records on `g` the joint objective a training step minimises when
    /// `objects` are its batch, and returns the scalar loss node.
    /// `part_labels[object][part][threshold]` are the per-partition
    /// selectivities ([`label_partitions`]); objects without a threshold
    /// are left out.
    ///
    /// # Panics
    /// Panics if no object has a threshold.
    pub fn training_loss(
        &self,
        g: &mut Graph,
        objects: &[LabeledQuery],
        part_labels: &[Vec<Vec<f64>>],
    ) -> Var {
        assert_eq!(
            objects.len(),
            part_labels.len(),
            "training_loss: one label set per object"
        );
        let pairs = build_joint_pairs(objects, part_labels, &self.partitioning, self.cfg.log_eps);
        assert!(
            !pairs.flat.t.is_empty(),
            "training_loss: no labelled threshold"
        );
        let batch = CurveBatch::of_all(&pairs.flat, self.dim);
        joint_loss(self, &pairs, &batch, g)
    }
}

/// Runs `epochs` of training. `joint = false` gives the pretraining phase
/// (local losses + AE only); `joint = true` adds the global term.
/// With `patience = Some(p)`, stops once validation MAE has not improved
/// for `p` consecutive epochs (the §5.4 incremental-update rule).
///
/// All tape state is persistent across batches: the pretraining phase owns
/// one arena tape per job (`K` locals + 1 AE) plus fixed-order gradient
/// merge buffers, the joint phase owns a single arena tape, and a step's
/// batch — whole query objects with all their thresholds, shuffled per
/// epoch ([`CurveBatch`]) — is assembled in reused buffers: after the
/// first batch a training step performs no per-op matrix allocations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_training_phase(
    model: &mut PartitionedSelNet,
    pairs: &JointPairs<'_>,
    valid: &[LabeledQuery],
    epochs: usize,
    joint: bool,
    patience: Option<usize>,
    opt: &mut Adam,
    rng: &mut StdRng,
    report: &mut TrainReport,
) {
    // flight-recorder hook (inert unless the global recorder is armed):
    // a = epochs run, b = threads the phase's steps fan out over (the
    // pretraining jobs ride `par_map_states`; a joint step is one tape)
    let mut span = selnet_obs::trace::global().span(
        if joint {
            "joint_phase"
        } else {
            "pretrain_phase"
        },
        0,
    );
    let epochs_before = report.epoch_val_mae.len();
    let cfg = model.cfg.clone();
    let n = pairs.flat.x.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut best_mae = model.reference_val_mae;
    let mut best_store = model.store.clone();
    let mut since_improvement = 0usize;
    let k = model.locals.len();
    // persistent tapes and batch buffers (see the function docs)
    let mut tapes: Vec<Graph> = Vec::new();
    if !joint {
        tapes.resize_with(k + 1, Graph::new);
    }
    let mut joint_tape = Graph::new();
    let mut batch = CurveBatch::default();
    // per-parameter accumulators for the fixed-order pretraining merge
    let mut merged: Vec<Matrix> = Vec::new();
    merged.resize_with(model.store.len(), Matrix::default);
    let mut merged_seen = vec![false; model.store.len()];

    for _ in 0..epochs {
        // shuffle the objects
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(pairs.flat.objects_per_step(cfg.batch_size)) {
            batch.assemble(&pairs.flat, chunk, model.dim);
            let batch_loss = if joint {
                let (loss, grads) = joint_step(model, pairs, &batch, &mut joint_tape);
                opt.step_refs(&mut model.store, &grads);
                loss
            } else {
                let losses = local_pretrain_step(model, pairs, &batch, &mut tapes);
                // deterministic merge: job order, then injection order
                // within a tape, then parameter order for the update
                merged_seen.fill(false);
                for tape in tapes.iter_mut() {
                    for (id, gm) in tape.param_grad_refs() {
                        let slot = &mut merged[id.index()];
                        if merged_seen[id.index()] {
                            slot.add_assign(gm);
                        } else {
                            slot.copy_from(gm);
                            merged_seen[id.index()] = true;
                        }
                    }
                }
                let grads: Vec<(selnet_tensor::ParamId, &Matrix)> = model
                    .store
                    .ids()
                    .filter(|id| merged_seen[id.index()])
                    .map(|id| (id, &merged[id.index()]))
                    .collect();
                opt.step_refs(&mut model.store, &grads);
                losses.iter().sum()
            };
            epoch_loss += batch_loss;
            batches += 1;
        }
        let mean_train_loss = epoch_loss / batches.max(1) as f64;
        report.epoch_train_loss.push(mean_train_loss);
        let mae = validation_mae(model, valid);
        report.epoch_val_mae.push(mae);
        // With an empty validation split the MAE is infinite every epoch;
        // fall back to selecting on training loss so "best" tracks
        // learning instead of freezing the earliest parameters.
        let selection = if valid.is_empty() {
            mean_train_loss
        } else {
            mae
        };
        if selection < best_mae {
            best_mae = selection;
            best_store = model.store.clone();
            report.best_epoch = report.epoch_val_mae.len() - 1;
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if let Some(p) = patience {
                if since_improvement >= p {
                    break;
                }
            }
        }
    }
    if best_mae.is_finite() && best_mae < f64::MAX {
        model.store = best_store;
        if !valid.is_empty() {
            model.reference_val_mae = best_mae;
        }
    }
    let fan_out = if joint {
        1
    } else {
        selnet_tensor::parallel::configured_threads().min(k + 1)
    };
    span.set_detail(
        (report.epoch_val_mae.len() - epochs_before) as u64,
        fan_out as u64,
    );
}

/// Validation MAE of the partitioned model (see
/// [`crate::train::mean_abs_error`] for the parallel reduction and the
/// empty-split `INFINITY` contract).
pub(crate) fn validation_mae(model: &PartitionedSelNet, split: &[LabeledQuery]) -> f64 {
    crate::train::mean_abs_error(split, |q| model.predict_many(&q.x, &q.thresholds))
}

/// Registers the shared autoencoder and the `k` control-point networks in
/// `store` — the one registration (and initialization-draw) order that
/// [`fit_partitioned`] trains and [`PartitionedSelNet::load`] rebuilds
/// before copying a checkpoint's weights in.
pub(crate) fn register_networks(
    store: &mut ParamStore,
    dim: usize,
    cfg: &SelNetConfig,
    k: usize,
    rng: &mut StdRng,
) -> (Autoencoder, Vec<ControlPointNets>) {
    let ae = Autoencoder::new(store, "ae", dim, &cfg.ae_hidden, cfg.latent_dim, rng);
    let locals = (0..k)
        .map(|i| ControlPointNets::new(store, &format!("local{i}"), dim + cfg.latent_dim, cfg, rng))
        .collect();
    (ae, locals)
}

/// Trains the full partitioned SelNet: partition, pretrain local models for
/// `T` epochs, then joint training (§5.3).
pub fn fit_partitioned(
    ds: &Dataset,
    workload: &Workload,
    cfg: &SelNetConfig,
    pcfg: &PartitionConfig,
) -> (PartitionedSelNet, TrainReport) {
    let dim = ds.dim();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let partitioning = {
        // flight-recorder hook, two counts a word: a = build workers, and
        // above bit 32 the balls stored; b = subtree jobs, and above bit 32
        // the covered balls left out
        let mut span = selnet_obs::trace::global().span("partition_build", 0);
        let (partitioning, built) =
            Partitioning::build_reporting(ds, workload.kind, pcfg.method, pcfg.k, cfg.seed);
        let stored: usize = partitioning.region_counts().iter().sum();
        span.set_detail(
            (stored as u64) << 32 | built.workers as u64,
            (built.covered_balls as u64) << 32 | built.subtree_jobs as u64,
        );
        partitioning
    };
    let k = partitioning.k();

    let mut store = ParamStore::new();
    let (ae, locals) = register_networks(&mut store, dim, cfg, k, &mut rng);

    // AE pretraining: database objects, then training queries
    ae.pretrain(
        &mut store,
        ds,
        cfg.ae_pretrain_epochs,
        cfg.batch_size,
        cfg.ae_pretrain_sample,
        cfg.learning_rate,
        cfg.seed ^ 0x5e1f,
    );
    if !workload.train.is_empty() {
        let queries = Dataset::from_rows(
            dim,
            &workload
                .train
                .iter()
                .map(|q| q.x.clone())
                .collect::<Vec<_>>(),
        );
        ae.pretrain(
            &mut store,
            &queries,
            (cfg.ae_pretrain_epochs / 2).max(1),
            cfg.batch_size,
            cfg.ae_pretrain_sample,
            cfg.learning_rate,
            cfg.seed ^ 0xae,
        );
    }

    let mut model = PartitionedSelNet {
        cfg: cfg.clone(),
        pcfg: pcfg.clone(),
        dim,
        tmax: workload.tmax,
        store,
        ae,
        locals,
        partitioning,
        name: "SelNet".into(),
        reference_val_mae: f64::MAX,
        plans: PlanCell::new(),
    };

    // per-partition ground truth (precomputed, as in the paper)
    let part_labels =
        label_partitions_traced(ds, &model.partitioning, &workload.train, workload.kind);
    let pairs = build_joint_pairs(
        &workload.train,
        &part_labels.labels,
        &model.partitioning,
        cfg.log_eps,
    );

    let mut report = TrainReport::default();
    let mut opt = Adam::new(cfg.learning_rate).with_clip(1.0);
    // phase 1: local pretraining (T epochs)
    run_training_phase(
        &mut model,
        &pairs,
        &workload.valid,
        pcfg.pretrain_epochs,
        false,
        None,
        &mut opt,
        &mut rng,
        &mut report,
    );
    // phase 2: joint training
    let joint_epochs = cfg.epochs.saturating_sub(pcfg.pretrain_epochs).max(1);
    run_training_phase(
        &mut model,
        &pairs,
        &workload.valid,
        joint_epochs,
        true,
        None,
        &mut opt,
        &mut rng,
        &mut report,
    );
    (model, report)
}

/// Re-trains an existing partitioned model on updated data until the
/// validation MAE stops improving (used by the §5.4 update rule).
#[allow(clippy::too_many_arguments)]
pub(crate) fn continue_training(
    model: &mut PartitionedSelNet,
    ds: &Dataset,
    train: &[LabeledQuery],
    valid: &[LabeledQuery],
    kind: selnet_metric::DistanceKind,
    max_epochs: usize,
    patience: usize,
    rng: &mut StdRng,
) -> TrainReport {
    // The §5.4 stream mutates `ds` after the partitioning was built, so the
    // positional assignments are stale (and too short after inserts).
    // Re-derive them for the current records before labeling.
    model.partitioning.refresh_assignments(ds);
    let part_labels = label_partitions_traced(ds, &model.partitioning, train, kind);
    let pairs = build_joint_pairs(
        train,
        &part_labels.labels,
        &model.partitioning,
        model.cfg.log_eps,
    );
    let mut report = TrainReport::default();
    let mut opt = Adam::new(model.cfg.learning_rate).with_clip(1.0);
    // Early stopping with restore: seed the selection reference with the
    // *current* parameters' MAE on the (drifted) validation split, so
    // `run_training_phase` only adopts retrained parameters that actually
    // beat what the model already had — incremental training can never
    // leave the model worse than it found it. (Empty split: INFINITY, and
    // the phase falls back to training-loss selection.)
    model.reference_val_mae = validation_mae(model, valid);
    run_training_phase(
        model,
        &pairs,
        valid,
        max_epochs,
        true,
        Some(patience),
        &mut opt,
        rng,
        &mut report,
    );
    if valid.is_empty() {
        // only a real validation MAE may serve as the §5.4 drift
        // reference: keep the "no measurable reference" sentinel
        model.reference_val_mae = f64::MAX;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{fasttext_like, GeneratorConfig};
    use selnet_index::PartitionMethod;
    use selnet_metric::DistanceKind;
    use selnet_workload::{generate_workload, ThresholdScheme, WorkloadConfig};

    fn fixture() -> (Dataset, Workload) {
        let ds = fasttext_like(&GeneratorConfig::new(500, 6, 4, 17));
        let cfg = WorkloadConfig {
            num_queries: 50,
            thresholds_per_query: 10,
            kind: DistanceKind::Euclidean,
            scheme: ThresholdScheme::GeometricSelectivity,
            seed: 2,
            threads: 4,
        };
        let w = generate_workload(&ds, &cfg);
        (ds, w)
    }

    fn tiny_pcfg() -> PartitionConfig {
        PartitionConfig {
            k: 3,
            method: PartitionMethod::CoverTree { ratio: 0.1 },
            pretrain_epochs: 3,
            beta: 0.1,
        }
    }

    #[test]
    fn partitioned_model_trains_and_stays_consistent() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 10;
        let (model, report) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
        assert_eq!(model.k(), 3);
        assert!(!report.epoch_val_mae.is_empty());
        // consistency is structural
        let score = selnet_eval::empirical_monotonicity(&model, &w.test, 10, 40, w.tmax);
        assert_eq!(score, 100.0);
        // ... from thresholds far below zero too (the wire accepts any f32)
        let ts: Vec<f32> = (0..=44).map(|i| (i as f32 / 4.0 - 10.0) * w.tmax).collect();
        for q in w.test.iter().take(10) {
            let preds = model.predict_many(&q.x, &ts);
            assert!(preds.windows(2).all(|p| p[0] <= p[1]), "{preds:?}");
        }
    }

    /// Every entry point rides the one curve plan: whatever mix of calls
    /// arrives, a version is compiled exactly once, and a retrain's
    /// version bump replaces the stale plan.
    #[test]
    fn one_plan_compile_per_version() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 2;
        let (mut model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
        let q = &w.test[0];
        let first_plan = model.plan();
        let mut out = Vec::new();
        for _ in 0..2 {
            model.estimate(&q.x, q.thresholds[0]);
            model.predict_many(&q.x, &q.thresholds);
            model.predict_batch(&[&q.x, &q.x], &q.thresholds[..2]);
            model.local_estimates(&q.x, q.thresholds[0]);
            model.estimate_into(&[(&q.x, &q.thresholds)], 4, &mut out);
            assert!(Arc::ptr_eq(&first_plan, &model.plan()));
        }
        assert!(
            !Arc::ptr_eq(&first_plan, &model.clone().plan()),
            "a clone compiles its own plan"
        );
        // a parameter mutation bumps the version: next use recompiles once
        let first = model
            .store
            .ids()
            .next()
            .expect("a trained model has parameters");
        model.store.value_mut(first);
        model.predict_many(&q.x, &q.thresholds);
        let second_plan = model.plan();
        assert!(!Arc::ptr_eq(&first_plan, &second_plan));
        assert!(Arc::ptr_eq(&second_plan, &model.plan()));
    }

    #[test]
    fn global_estimate_is_sum_of_valid_locals() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 4;
        let (model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
        let q = &w.test[0];
        let t = q.thresholds[q.thresholds.len() - 1];
        let locals = model.local_estimates(&q.x, t);
        let ind = model.partitioning().indicator(&q.x, t);
        let expected: f64 = locals
            .iter()
            .zip(&ind)
            .map(|(&l, &on)| if on { l } else { 0.0 })
            .sum();
        let got = model.estimate(&q.x, t);
        assert!((got - expected).abs() < 1e-3 * expected.abs().max(1.0));
    }

    /// Parallel per-partition pretraining merges gradients in fixed job
    /// order, the kernels accumulate per row and `gather_rows` scatters on
    /// the caller in index order, so a model does not depend on the worker
    /// count: the snapshot bytes after a fit, and again after a §5.4
    /// retrain, are the same on one thread and on three.
    #[test]
    fn partitioned_training_is_deterministic() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 5;
        let always_retrain = crate::UpdatePolicy {
            mae_tolerance: -1.0,
            patience: 2,
            max_epochs: 3,
        };
        let run = |threads: usize| {
            selnet_tensor::parallel::set_threads(threads);
            let (mut model, report) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
            let mut fitted = Vec::new();
            model.save(&mut fitted).expect("save to memory");
            let decision = model.check_and_update(&ds, w.kind, &w.train, &w.valid, &always_retrain);
            assert!(decision.retrained());
            let mut updated = Vec::new();
            model.save(&mut updated).expect("save to memory");
            (report, fitted, updated)
        };
        let (r1, fitted1, updated1) = run(1);
        let (r3, fitted3, updated3) = run(3);
        selnet_tensor::parallel::set_threads(0);
        assert_eq!(r1.epoch_train_loss, r3.epoch_train_loss);
        assert_eq!(r1.epoch_val_mae, r3.epoch_val_mae);
        assert!(fitted1 == fitted3, "fitted snapshots differ across threads");
        assert!(
            updated1 == updated3,
            "retrained snapshots differ across threads"
        );
    }

    /// The fork gate keeps every test-sized wave on one thread, so the
    /// chunked replay's bookkeeping (a chunk's first row, its slice of the
    /// ragged output, the indicator on the chunk's own queries) would go
    /// unexercised: build the smallest wave the gate splits three ways
    /// and compare it with the serial replay bit for bit.
    #[test]
    fn a_wave_past_the_fork_gate_is_chunked_and_bit_identical() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 2;
        let (model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
        let plan = model.plan();
        let rows = (3 * selnet_tensor::parallel::FORK_MIN_WORK).div_ceil(plan.flops_per_row());
        assert_eq!(plan.replay_threads(rows, 3), 3);
        assert_eq!(plan.replay_threads(rows - 1, 3), 2);
        assert_eq!(plan.replay_threads(64, 8), 1, "a serving wave stays serial");
        let queries: Vec<(&[f32], &[f32])> = (0..rows)
            .map(|i| {
                let q = &w.train[i % w.train.len()];
                (q.x.as_slice(), &q.thresholds[i % 4..i % 4 + 1 + i % 3])
            })
            .collect();
        let wave = |threads: usize| {
            let mut out = Vec::new();
            model.estimate_into(&queries, threads, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let serial = wave(1);
        assert_eq!(serial.len(), queries.iter().map(|(_, ts)| ts.len()).sum());
        assert!(
            wave(3) == serial,
            "three chunks diverged from the serial replay"
        );
        assert!(
            wave(2) == serial,
            "two chunks diverged from the serial replay"
        );
    }

    /// The batched entry point must be *bit-identical* to per-query
    /// evaluation — the property the serving engine's request coalescing
    /// relies on. Checked for several batch sizes (including one crossing
    /// the kernel's row-tile width) and with batches that mix queries in
    /// arbitrary order.
    #[test]
    fn predict_batch_matches_predict_many() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 4;
        let (model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());

        // flatten (x, t) pairs across test queries
        let mut xs: Vec<&[f32]> = Vec::new();
        let mut ts: Vec<f32> = Vec::new();
        for q in &w.test {
            for &t in &q.thresholds {
                xs.push(&q.x);
                ts.push(t);
            }
        }
        for &b in &[1usize, 2, 5, 7, 64, xs.len()] {
            let b = b.min(xs.len());
            let batch = model.predict_batch(&xs[..b], &ts[..b]);
            for i in 0..b {
                let single = model.predict_many(xs[i], &[ts[i]])[0];
                assert_eq!(
                    batch[i].to_bits(),
                    single.to_bits(),
                    "batch size {b}, row {i}: {} != {}",
                    batch[i],
                    single
                );
            }
        }
        // and the trait-level batched call agrees
        let via_trait = model.estimate_batch(&xs, &ts);
        assert_eq!(via_trait, model.predict_batch(&xs, &ts));
    }

    #[test]
    fn training_improves_over_initialization() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 12;
        let (_, report) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
        let first = report.epoch_val_mae[0];
        let best = report
            .epoch_val_mae
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        assert!(best < first, "val MAE should improve: {first} -> {best}");
    }
}
