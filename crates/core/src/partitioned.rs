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
use crate::curves::{control_points, replay_curves};
use crate::model::ControlPointNets;
use crate::train::{
    ae_term, flatten_pairs, gather_leaf, interp_pairs, log_loss, CurveBatch, FlatPairs, TrainReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_eval::SelectivityEstimator;
use selnet_index::Partitioning;
use selnet_tensor::parallel::{self, Crew};
use selnet_tensor::{pwl_interp_row, Adam, Graph, Matrix, ParamId, ParamStore, Var};
use selnet_workload::{label_partitions, LabeledQuery, PartitionedLabels, Workload};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
}

impl PartitionedSelNet {
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
        control_points(self, x)
    }

    /// Records the shared encoder and every local model's control points
    /// for a batch; `head` is recorded right after each model's `(τ, p)`
    /// and chooses what the caller keeps of it (training and the tape
    /// reference interpolate at the batch's thresholds).
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

    /// The reference tape implementation of
    /// [`SelectivityEstimator::estimate_into`]: answers every `(x, ts)`
    /// query into `out` (cleared first; flat, query order) from one tape
    /// forward of the networks over the queries' objects, interpolated per
    /// pair as a training step does (`forward_locals` + `interp_pairs`),
    /// then summed under the indicator. The tests' reference for the curve
    /// forward: `tests/plan_identity.rs` pins the two bit-identical.
    pub fn tape_estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        out.clear();
        let mut rows = Vec::new();
        let mut ts = Vec::new();
        for (i, &(x, qts)) in queries.iter().enumerate() {
            assert_eq!(x.len(), self.dim, "query dimension mismatch");
            rows.extend(std::iter::repeat_n(i, qts.len()));
            ts.extend_from_slice(qts);
        }
        if ts.is_empty() {
            return;
        }
        let mut g = Graph::new();
        let xv = g.leaf_with(queries.len(), self.dim, |data| {
            for (row, (x, _)) in data.chunks_exact_mut(self.dim).zip(queries) {
                row.copy_from_slice(x);
            }
        });
        let tv = g.leaf_with(ts.len(), 1, |col| col.copy_from_slice(&ts));
        let (_z, preds) =
            self.forward_locals(&mut g, xv, |g, tau, p| interp_pairs(g, tau, p, &rows, tv));
        let local_preds: Vec<&[f32]> = preds.iter().map(|&y| g.value(y).data()).collect();
        out.extend(rows.iter().zip(&ts).enumerate().map(|(pair, (&i, &t))| {
            let ind = self.partitioning.indicator(queries[i].0, t);
            local_preds
                .iter()
                .zip(&ind)
                .map(|(pred, &on)| if on { pred[pair] as f64 } else { 0.0 })
                .sum::<f64>()
        }));
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
    /// One network pass over the wave's query objects, one interpolation
    /// per threshold (see "The curve forward" in `ARCHITECTURE.md`): the
    /// tape forward bit for bit.
    fn estimate_into(&self, queries: &[(&[f32], &[f32])], out: &mut Vec<f64>) {
        replay_curves(self, queries, out)
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
    let labels = label_partitions(ds, partitioning, queries, kind);
    span.set_detail(labels.workers as u64, queries.len() as u64);
    labels
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

/// Which training phase [`run_training_phase`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// §5.3 phase 1: the local losses and the AE term, each network on
    /// its own, on up to [`parallel::fork_threads`] threads.
    Pretrain,
    /// §5.3 phase 2: the joint objective, on as many threads.
    Joint,
    /// A §5.4 retrain: the joint objective on the calling thread alone,
    /// beside the engine workers serving the tenant, stopping once
    /// validation MAE has not improved for `patience` epochs.
    Retrain { patience: usize },
}

/// What one crew round asks of every job.
#[derive(Clone, Copy)]
enum Stage {
    /// A pretraining step: the job's forward, backward and Adam step.
    Pretrain,
    /// The first half of a joint step: a local up to its prediction and
    /// its loss term; the AE term whole.
    Forward,
    /// The second half: a local's backward from its seed and its loss
    /// term, and its Adam step.
    Backward,
}

/// One network's share of a training step, on a tape of its own: local
/// model `which` (`which < K`) or, at `which == K`, the AE term. A job
/// owns its network's parameters for the phase — their values and moment
/// estimates — and makes their Adam step itself, with the constants every
/// job's optimizer shares.
struct Job {
    tape: Graph,
    /// The job's loss node: its whole pretraining loss; in a joint step
    /// `β·J_est(f^(i))` or `λ·J_AE`.
    loss: Option<Var>,
    /// A local's prediction per pair (joint step).
    pred: Option<Var>,
    /// The code `z` as the τ network's input and as model M's (the
    /// decoder's, for the AE term): their gradients are the job's
    /// contributions to the encoder's (joint step).
    z_in: [Option<Var>; 2],
    /// `mask ⊙ ∂J_est(f*)/∂pred`, which the lead computes from every
    /// local's prediction and the local's backward starts from.
    seed: Matrix,
    /// The network's parameters.
    owned: Vec<ParamId>,
    /// Their values, lent out of the model's store.
    store: ParamStore,
    /// Their moment estimates, lent out of the phase's optimizer.
    opt: Adam,
}

impl Job {
    /// The Adam step of the job's parameters from its tape's gradients
    /// (the tape holds each of them once; a pretraining tape also holds
    /// the encoder's, which the lead merges).
    fn adam_step(&mut self) {
        let Job {
            tape,
            owned,
            store,
            opt,
            ..
        } = self;
        let grads: Vec<(ParamId, &Matrix)> = tape
            .param_grad_refs()
            .into_iter()
            .filter(|(id, _)| owned.contains(id))
            .collect();
        opt.step_refs(store, &grads);
    }
}

/// What the jobs of a phase's crew share with the lead: the networks, the
/// split, the step's batch and code, the lead's store (the encoder's
/// parameters, which pretraining jobs read) and the jobs themselves, each
/// behind a lock that one thread takes at a time — the one running the
/// job in a round, the lead between rounds.
struct Bench<'a> {
    ae: Autoencoder,
    locals: Vec<ControlPointNets>,
    cfg: SelNetConfig,
    beta: f32,
    tmax: f32,
    pairs: &'a JointPairs<'a>,
    batch: RwLock<CurveBatch>,
    z: RwLock<Matrix>,
    encoder: RwLock<ParamStore>,
    /// `jobs[which]`.
    jobs: Vec<Mutex<Job>>,
}

/// A poisoned lock means a job panicked in a round, which the crew has
/// already propagated: the phase is over.
const POISONED: &str = "a training job panicked";

fn hold<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().expect(POISONED)
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().expect(POISONED)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().expect(POISONED)
}

impl Bench<'_> {
    /// Job `which`'s share of a round.
    fn run(&self, which: usize, stage: Stage) {
        let mut job = hold(&self.jobs[which]);
        let job = &mut *job;
        let batch = read(&self.batch);
        let (cfg, pairs, k) = (&self.cfg, self.pairs, self.locals.len());
        match stage {
            Stage::Pretrain => {
                let g = &mut job.tape;
                g.reset();
                let xv = g.leaf_ref(&batch.x);
                let z = self.ae.encode(g, &read(&self.encoder), xv);
                let loss = if which < k {
                    let tv = gather_leaf(g, &pairs.flat.t, &batch.pairs);
                    let input = g.concat_cols(xv, z);
                    let (tau, p) = self.locals[which].control_points(
                        g,
                        &job.store,
                        input,
                        self.tmax,
                        cfg.query_dependent_tau,
                    );
                    let pred = interp_pairs(g, tau, p, &batch.rows, tv);
                    let yl = gather_leaf(g, &pairs.ylog_local[which], &batch.pairs);
                    log_loss(g, pred, yl, cfg)
                } else {
                    ae_term(g, &self.ae, &job.store, xv, z, &batch, cfg.lambda_ae)
                };
                g.backward_params(loss);
                job.loss = Some(loss);
                job.adam_step();
            }
            Stage::Forward => {
                let z = read(&self.z);
                let g = &mut job.tape;
                g.reset();
                let xv = g.leaf_ref(&batch.x);
                if which == k {
                    let za = g.grad_leaf_ref(&z);
                    let ae = ae_term(g, &self.ae, &job.store, xv, za, &batch, cfg.lambda_ae);
                    g.backward_params(ae);
                    job.loss = Some(ae);
                    job.z_in = [None, Some(za)];
                    job.adam_step();
                } else {
                    // `[x; z]` twice, once per network reading it, so the
                    // two gradients reach the lead apart
                    let tv = gather_leaf(g, &pairs.flat.t, &batch.pairs);
                    let zt = cfg.query_dependent_tau.then(|| g.grad_leaf_ref(&z));
                    let tau_in = zt.map(|zt| g.concat_cols(xv, zt));
                    let zp = g.grad_leaf_ref(&z);
                    let input = g.concat_cols(xv, zp);
                    let (tau, p) = self.locals[which]
                        .control_points_from(g, &job.store, tau_in, input, self.tmax);
                    let pred = interp_pairs(g, tau, p, &batch.rows, tv);
                    let yl = gather_leaf(g, &pairs.ylog_local[which], &batch.pairs);
                    let m = log_loss(g, pred, yl, cfg);
                    job.loss = Some(g.scale(m, self.beta));
                    job.pred = Some(pred);
                    job.z_in = [zt, Some(zp)];
                }
            }
            Stage::Backward => {
                if which < k {
                    // the prediction's gradient is the seed first (the
                    // product's gradient is the seed exactly), then the
                    // local loss term's: the single tape's order
                    let g = &mut job.tape;
                    let seed = g.leaf_ref(&job.seed);
                    let seeded = g.mul(job.pred.expect("forward ran"), seed);
                    let seeded = g.sum(seeded);
                    let root = g.add(job.loss.expect("forward ran"), seeded);
                    g.backward_params(root);
                    job.adam_step();
                }
            }
        }
    }

    /// Job `which`, locked.
    fn job(&self, which: usize) -> MutexGuard<'_, Job> {
        hold(&self.jobs[which])
    }

    /// Moves the jobs' parameters into the lead's store and that into
    /// `store`, which is then the whole model's.
    fn gather(&self, store: &mut ParamStore) {
        let mut encoder = write(&self.encoder);
        for job in &self.jobs {
            let mut job = hold(job);
            let job = &mut *job;
            encoder.swap_values(&mut job.store, &job.owned);
        }
        std::mem::swap(store, &mut encoder);
    }

    /// [`Bench::gather`] undone: the jobs' parameters go back to them.
    fn lend(&self, store: &mut ParamStore) {
        let mut encoder = write(&self.encoder);
        std::mem::swap(store, &mut encoder);
        for job in &self.jobs {
            let mut job = hold(job);
            let job = &mut *job;
            encoder.swap_values(&mut job.store, &job.owned);
        }
    }
}

/// The lead's tapes and buffers, reused step after step.
#[derive(Default)]
struct Lead {
    /// The encoder's forward and backward (joint step).
    encoder: Graph,
    /// The global term (joint step).
    global: Graph,
    /// Per parameter, the merged pretraining gradient of the encoder, and
    /// whether this step has written it yet.
    merged: Vec<Matrix>,
    merged_seen: Vec<bool>,
    /// The locals' contributions to the encoder's gradient, folded.
    dz_locals: Matrix,
    /// The encoder's whole output gradient.
    dz: Matrix,
    weighted: Vec<f32>,
}

impl Lead {
    /// One pretraining step: the jobs, then the encoder's gradient merged
    /// over every job's tape in job order (the first copies, the later
    /// ones add) and its Adam step. Returns the batch loss, the jobs'
    /// losses summed in job order.
    fn pretrain_step(
        &mut self,
        bench: &Bench<'_>,
        crew: &mut Crew<'_, Stage>,
        encoder_ids: &[ParamId],
        opt: &mut Adam,
    ) -> f64 {
        crew.round(Stage::Pretrain);
        let mut loss = 0.0;
        let seen = &mut self.merged_seen;
        seen.fill(false);
        for which in 0..bench.jobs.len() {
            let mut job = bench.job(which);
            loss += job.tape.value(job.loss.expect("the round ran")).get(0, 0) as f64;
            for (id, grad) in job.tape.param_grad_refs() {
                let Some(slot) = encoder_ids
                    .contains(&id)
                    .then(|| &mut self.merged[id.index()])
                else {
                    continue;
                };
                if std::mem::replace(&mut seen[id.index()], true) {
                    slot.add_assign(grad);
                } else {
                    slot.copy_from(grad);
                }
            }
        }
        let grads: Vec<(ParamId, &Matrix)> = encoder_ids
            .iter()
            .filter(|id| seen[id.index()])
            .map(|&id| (id, &self.merged[id.index()]))
            .collect();
        opt.step_refs(&mut write(&bench.encoder), &grads);
        loss
    }

    /// One joint step. The encoder runs once, on the lead; the locals and
    /// the AE term run as jobs on `z`; the global term is recorded on the
    /// lead from the locals' predictions, and each local's backward
    /// starts from its share of that term's gradient. The encoder's
    /// backward goes on from its output gradient, folded from the jobs'
    /// contributions in the order the one-tape sweep (`joint_loss`)
    /// accumulates them: the AE term's first; then the locals', the last
    /// local's first, model M's before the τ network's, added up on their
    /// own before they join it. So every gradient, and the parameters,
    /// are that tape's bit for bit. Returns the batch loss.
    fn joint_step(&mut self, bench: &Bench<'_>, crew: &mut Crew<'_, Stage>, opt: &mut Adam) -> f64 {
        let (cfg, pairs, k) = (&bench.cfg, bench.pairs, bench.locals.len());
        let enc = &mut self.encoder;
        enc.reset();
        let z = {
            let batch = read(&bench.batch);
            let xv = enc.leaf_ref(&batch.x);
            let z = bench.ae.encode(enc, &read(&bench.encoder), xv);
            write(&bench.z).copy_from(enc.value(z));
            z
        };
        crew.round(Stage::Forward);

        // J_est(f*): the indicator-masked sum of the locals' predictions
        let gt = &mut self.global;
        gt.reset();
        let global_loss = {
            let batch = read(&bench.batch);
            let preds: Vec<Var> = (0..k)
                .map(|i| {
                    let job = bench.job(i);
                    gt.grad_leaf_ref(job.tape.value(job.pred.expect("the round ran")))
                })
                .collect();
            let mut global: Option<Var> = None;
            for (part, &pred) in preds.iter().enumerate() {
                let ind = gather_leaf(gt, &pairs.indicator[part], &batch.pairs);
                let masked = gt.mul(pred, ind);
                global = Some(match global {
                    Some(acc) => gt.add(acc, masked),
                    None => masked,
                });
            }
            let yv = gather_leaf(gt, &pairs.flat.ylog, &batch.pairs);
            let global_loss = log_loss(gt, global.expect("k > 0"), yv, cfg);
            gt.backward_params(global_loss);
            for (i, &pred) in preds.iter().enumerate() {
                let seed = gt
                    .grad_ref(pred)
                    .expect("every local feeds the global term");
                bench.job(i).seed.copy_from(seed);
            }
            gt.value(global_loss).get(0, 0)
        };
        crew.round(Stage::Backward);

        let mut folded = false;
        self.weighted.clear();
        self.weighted.resize(k, 0.0);
        for i in (0..k).rev() {
            let job = bench.job(i);
            self.weighted[i] = job.tape.value(job.loss.expect("the round ran")).get(0, 0);
            for v in job.z_in.iter().rev().flatten() {
                let grad = job.tape.grad_ref(*v).expect("z feeds every local");
                if std::mem::replace(&mut folded, true) {
                    self.dz_locals.add_assign(grad);
                } else {
                    self.dz_locals.copy_from(grad);
                }
            }
        }
        let ae_loss = {
            let job = bench.job(k);
            let za = job.z_in[1].expect("the round ran");
            self.dz
                .copy_from(job.tape.grad_ref(za).expect("z feeds the decoder"));
            job.tape.value(job.loss.expect("the round ran")).get(0, 0)
        };
        self.dz.add_assign(&self.dz_locals);
        let seed = enc.leaf_ref(&self.dz);
        let seeded = enc.mul(z, seed);
        let seeded = enc.sum(seeded);
        enc.backward_params(seeded);
        opt.step_refs(&mut write(&bench.encoder), &enc.param_grad_refs());

        // the one tape's loss: J_est(f*) + β Σ J_est(f^(i)), then + λ J_AE
        let locals = self.weighted[1..]
            .iter()
            .fold(self.weighted[0], |acc, &w| acc + w);
        ((global_loss + locals) + ae_loss) as f64
    }
}

/// Runs `epochs` of one training phase. A retrain stops early as
/// [`Phase::Retrain`] says.
///
/// The phase is one [`parallel::crew`] whose parts are the `K + 1` jobs
/// ([`Job`]: each local model, and the AE term; a retrain's one part runs
/// them all), each on a persistent tape of its own. The lead (the calling thread) keeps the encoder; a job
/// owns its network's parameters and moment estimates for the phase and
/// makes their Adam step itself, with the constants every job's optimizer
/// shares. Every gradient is reduced by one thread in one fixed order,
/// whichever thread runs a job, so the trained model is the same bit for
/// bit at any thread count. A step's batch — whole query objects with all
/// their thresholds, shuffled per epoch ([`CurveBatch`]) — is assembled
/// in reused buffers: after the first batch a training step performs no
/// per-op matrix allocations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_training_phase(
    model: &mut PartitionedSelNet,
    pairs: &JointPairs<'_>,
    valid: &[LabeledQuery],
    epochs: usize,
    phase: Phase,
    opt: &mut Adam,
    rng: &mut StdRng,
    report: &mut TrainReport,
) {
    // flight-recorder hook (inert unless the global recorder is armed):
    // a = epochs run, b = threads the crew ran on
    let mut span = selnet_obs::trace::global().span(
        if phase == Phase::Pretrain {
            "pretrain_phase"
        } else {
            "joint_phase"
        },
        0,
    );
    if epochs == 0 {
        return;
    }
    let k = model.locals.len();
    let mut best_mae = model.reference_val_mae;
    let mut best_store = model.store.clone();
    let jobs = (0..=k)
        .map(|which| {
            let owned = if which < k {
                model.locals[which].params()
            } else {
                model.ae.decoder_params()
            };
            Mutex::new(Job {
                tape: Graph::new(),
                loss: None,
                pred: None,
                z_in: [None, None],
                seed: Matrix::default(),
                store: model.store.lend(&owned),
                opt: opt.lend(&owned),
                owned,
            })
        })
        .collect();
    let encoder_ids = model.ae.encoder_params();
    let bench = Bench {
        ae: model.ae.clone(),
        locals: model.locals.clone(),
        cfg: model.cfg.clone(),
        beta: model.pcfg.beta,
        tmax: model.tmax,
        pairs,
        batch: RwLock::new(CurveBatch::default()),
        z: RwLock::new(Matrix::default()),
        encoder: RwLock::new(std::mem::take(&mut model.store)),
        jobs,
    };

    let objects_per_step = pairs.flat.objects_per_step(model.cfg.batch_size);
    let n = pairs.flat.x.len();
    let dim = model.dim;
    // crew part `p` is job `k - p`: the AE term, which rides with the
    // lead's encoder, then the locals from the last, so two threads split
    // `K = 3` into [AE, local 2] on the lead and [local 1, local 0]. A
    // retrain is one part that runs every job in that order, on the
    // calling thread.
    let parts = if let Phase::Retrain { .. } = phase {
        1
    } else {
        k + 1
    };
    let (epochs_run, threads) = parallel::crew(
        parts,
        |part, stage| {
            if parts == 1 {
                (0..=k).rev().for_each(|which| bench.run(which, stage));
            } else {
                bench.run(k - part, stage);
            }
        },
        |crew| {
            let params = read(&bench.encoder).len();
            let mut lead = Lead {
                merged: vec![Matrix::default(); params],
                merged_seen: vec![false; params],
                ..Lead::default()
            };
            let mut order: Vec<usize> = (0..n).collect();
            let mut since_improvement = 0usize;
            let mut epochs_run = 0;
            for _ in 0..epochs {
                epochs_run += 1;
                // shuffle the objects
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                let mut epoch_loss = 0.0f64;
                let mut batches = 0usize;
                for chunk in order.chunks(objects_per_step) {
                    write(&bench.batch).assemble(&pairs.flat, chunk, dim);
                    epoch_loss += if phase == Phase::Pretrain {
                        lead.pretrain_step(&bench, crew, &encoder_ids, opt)
                    } else {
                        lead.joint_step(&bench, crew, opt)
                    };
                    batches += 1;
                }
                let mean_train_loss = epoch_loss / batches.max(1) as f64;
                report.epoch_train_loss.push(mean_train_loss);
                bench.gather(&mut model.store);
                let mae = validation_mae(model, valid);
                report.epoch_val_mae.push(mae);
                // With an empty validation split the MAE is infinite every
                // epoch; fall back to selecting on training loss so "best"
                // tracks learning instead of freezing the earliest
                // parameters.
                let selection = if valid.is_empty() {
                    mean_train_loss
                } else {
                    mae
                };
                let improved = selection < best_mae;
                if improved {
                    best_mae = selection;
                    best_store = model.store.clone();
                    report.best_epoch = report.epoch_val_mae.len() - 1;
                    since_improvement = 0;
                } else {
                    since_improvement += 1;
                }
                bench.lend(&mut model.store);
                if let Phase::Retrain { patience } = phase {
                    if since_improvement >= patience {
                        break;
                    }
                }
            }
            (epochs_run, crew.threads())
        },
    );
    bench.gather(&mut model.store);
    for job in bench.jobs {
        opt.take_back(job.into_inner().expect(POISONED).opt);
    }
    if best_mae.is_finite() && best_mae < f64::MAX {
        model.store = best_store;
        if !valid.is_empty() {
            model.reference_val_mae = best_mae;
        }
    }
    span.set_detail(epochs_run as u64, threads as u64);
}

/// Validation MAE of the partitioned model, the split asked as one wave:
/// errors summed per query, the sums in query order. `f64::INFINITY` for
/// an empty split (a `0.0` there made training keep its earliest
/// parameters and stored a drift reference of 0).
pub(crate) fn validation_mae(model: &PartitionedSelNet, split: &[LabeledQuery]) -> f64 {
    if split.is_empty() {
        return f64::INFINITY;
    }
    let wave: Vec<_> = split.iter().map(LabeledQuery::query).collect();
    let mut preds = Vec::new();
    model.estimate_into(&wave, &mut preds);
    let mut unread = preds.iter();
    let mut abs = 0.0f64;
    for q in split {
        let errors = unread.by_ref().take(q.len()).zip(&q.selectivities);
        abs += errors.map(|(p, &y)| (p - y).abs()).sum::<f64>();
    }
    abs / preds.len().max(1) as f64
}

/// Registers the shared autoencoder and the `k` control-point networks in
/// `store`, the one description of the architecture. On a new store their
/// weights are drawn, in the one order [`fit_partitioned`] trains, from
/// the stream seeded by `cfg.seed`, which is returned for training to go
/// on drawing from. On the store [`ParamStore::load`] returned they are
/// the checkpoint's and nothing is drawn; the `k` loop stops at the first
/// parameter the checkpoint refuses, so a header's `k` costs no more than
/// its stream holds.
pub(crate) fn register_networks(
    store: &mut ParamStore,
    dim: usize,
    cfg: &SelNetConfig,
    k: usize,
) -> (Autoencoder, Vec<ControlPointNets>, StdRng) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ae = Autoencoder::new(store, "ae", dim, &cfg.ae_hidden, cfg.latent_dim, &mut rng);
    let in_dim = dim + cfg.latent_dim;
    let locals = (0..k)
        .map_while(|i| {
            let name = format!("local{i}");
            store
                .accepts()
                .then(|| ControlPointNets::new(store, &name, in_dim, cfg, &mut rng))
        })
        .collect();
    (ae, locals, rng)
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
    let (ae, locals, mut rng) = register_networks(&mut store, dim, cfg, k);

    // AE pretraining: database objects, then training queries, under an
    // `ae_pretrain` span: a = epochs over the database sample, b = epochs
    // over the training queries
    let mut span = selnet_obs::trace::global().span("ae_pretrain", 0);
    let query_epochs = if workload.train.is_empty() {
        0
    } else {
        (cfg.ae_pretrain_epochs / 2).max(1)
    };
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
            query_epochs,
            cfg.batch_size,
            cfg.ae_pretrain_sample,
            cfg.learning_rate,
            cfg.seed ^ 0xae,
        );
    }
    span.set_detail(cfg.ae_pretrain_epochs as u64, query_epochs as u64);
    drop(span);

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
        Phase::Pretrain,
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
        Phase::Joint,
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
        Phase::Retrain { patience },
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
            let preds = model.estimate_many(&q.x, &ts);
            assert!(preds.windows(2).all(|p| p[0] <= p[1]), "{preds:?}");
        }
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

    /// A joint epoch on the phase's crew — the encoder on the lead, each
    /// local and the AE term on a tape of its own, the gradient of the
    /// global term and of `z` folded at the seam, Adam split by part — is
    /// the one-tape step of `joint_loss` bit for bit: the same losses and
    /// the same parameters, at one, two and three threads, with τ
    /// query-dependent and shared.
    #[test]
    fn the_crew_joint_epoch_is_the_one_tape_epoch() {
        let (ds, w) = fixture();
        for query_dependent_tau in [true, false] {
            let cfg = SelNetConfig {
                epochs: 2,
                query_dependent_tau,
                ..SelNetConfig::tiny()
            };
            let (model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
            let labels = label_partitions(&ds, &model.partitioning, &w.train, w.kind);
            let pairs =
                build_joint_pairs(&w.train, &labels.labels, &model.partitioning, cfg.log_eps);
            let adam = || Adam::new(cfg.learning_rate).with_clip(1.0);
            let bytes = |m: &PartitionedSelNet| {
                let mut out = Vec::new();
                m.store.save(&mut out).expect("save to memory");
                out
            };

            // the reference: one tape per step, as training used to run
            let mut one_tape = model.clone();
            let mut rng = StdRng::seed_from_u64(5);
            let mut opt = adam();
            let n = pairs.flat.x.len();
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let (mut g, mut batch, mut losses) = (Graph::new(), CurveBatch::default(), 0.0);
            let chunks = order.chunks(pairs.flat.objects_per_step(cfg.batch_size));
            let steps = chunks.len();
            for chunk in chunks {
                batch.assemble(&pairs.flat, chunk, one_tape.dim);
                g.reset();
                let loss = joint_loss(&one_tape, &pairs, &batch, &mut g);
                g.backward_params(loss);
                losses += g.value(loss).get(0, 0) as f64;
                opt.step_refs(&mut one_tape.store, &g.param_grad_refs());
            }

            for threads in [1, 2, 3] {
                selnet_tensor::parallel::set_threads(threads);
                let mut crew = model.clone();
                crew.reference_val_mae = f64::INFINITY;
                let mut report = TrainReport::default();
                run_training_phase(
                    &mut crew,
                    &pairs,
                    &[],
                    1,
                    Phase::Joint,
                    &mut adam(),
                    &mut StdRng::seed_from_u64(5),
                    &mut report,
                );
                selnet_tensor::parallel::set_threads(0);
                assert_eq!(
                    report.epoch_train_loss,
                    [losses / steps as f64],
                    "{threads} threads, τ query-dependent {query_dependent_tau}"
                );
                assert!(
                    bytes(&crew) == bytes(&one_tape),
                    "{threads} threads, τ query-dependent {query_dependent_tau}: \
                     the parameters differ"
                );
            }
        }
    }

    /// Four test threads, each fitting on a two-thread crew at once on
    /// however many cores there are, all finish — no barrier waits
    /// without end for a thread that is not scheduled — with the same
    /// model.
    #[test]
    fn concurrent_fits_on_crews_all_finish_alike() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 3;
        let snapshots: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let fits: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        selnet_tensor::parallel::set_threads(2);
                        let (model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
                        let mut out = Vec::new();
                        model.save(&mut out).expect("save to memory");
                        out
                    })
                })
                .collect();
            fits.into_iter().map(|f| f.join().unwrap()).collect()
        });
        assert!(snapshots.windows(2).all(|s| s[0] == s[1]));
    }

    /// No other test replays a wave of thousands of ragged rows: 4 096
    /// query objects with one to three thresholds each, in one
    /// `estimate_into`, are per-query `estimate_many` bit for bit, every
    /// row's estimates in its own slice of the flat output.
    #[test]
    fn a_large_ragged_wave_is_per_query_estimate_many() {
        let (ds, w) = fixture();
        let mut cfg = SelNetConfig::tiny();
        cfg.epochs = 2;
        let (model, _) = fit_partitioned(&ds, &w, &cfg, &tiny_pcfg());
        let queries: Vec<(&[f32], &[f32])> = (0..4096)
            .map(|i| {
                let q = &w.train[i % w.train.len()];
                (q.x.as_slice(), &q.thresholds[i % 4..i % 4 + 1 + i % 3])
            })
            .collect();
        let mut wave = Vec::new();
        model.estimate_into(&queries, &mut wave);
        assert_eq!(wave.len(), queries.iter().map(|(_, ts)| ts.len()).sum());
        let per_query: Vec<f64> = queries
            .iter()
            .flat_map(|&(x, ts)| model.estimate_many(x, ts))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&wave) == bits(&per_query),
            "the wave diverged from per-query estimate_many"
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
            let batch = model.estimate_batch(&xs[..b], &ts[..b]);
            for i in 0..b {
                let single = model.estimate_many(xs[i], &[ts[i]])[0];
                assert_eq!(
                    batch[i].to_bits(),
                    single.to_bits(),
                    "batch size {b}, row {i}: {} != {}",
                    batch[i],
                    single
                );
            }
        }
        // and the tape reference agrees
        let queries: Vec<(&[f32], &[f32])> = xs
            .iter()
            .zip(&ts)
            .map(|(x, t)| (*x, std::slice::from_ref(t)))
            .collect();
        let mut tape = Vec::new();
        model.tape_estimate_into(&queries, &mut tape);
        assert_eq!(model.estimate_batch(&xs, &ts), tape);
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
