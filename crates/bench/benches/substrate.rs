//! Microbenchmarks of the substrates: tensor matmul (naive reference vs
//! blocked vs blocked+threads, and its thread-scaling curve), the hand
//! kernel against the naive gemm per serving shape, the tape itself (fresh
//! graph per step vs arena reuse — the allocation-sensitive benchmark), the
//! distance layer (pair kernel against the 16-lane block kernel, in cache
//! and streamed), the paper fixture's generator, cover-tree construction
//! (one and two build workers, and the benchmark's paper fixture), the
//! partitioning's ball store, the fork-join primitive itself, a label
//! column rank-selected, one
//! end-to-end training epoch, and the §5.3 joint training step on a curve
//! batch beside the Adam loop.
//!
//! One timing pass: `cargo bench -p selnet-bench --bench substrate` prints
//! the JSON block it measured, `SELNET_BENCH_RECORD=1` also rewrites
//! `BENCH_substrate.json` at the repo root, and `-- --test` runs each
//! closure once and checks the block's keys against the file (see
//! `selnet_bench::servebench::Pass`). The numbers of code that is gone —
//! the `seed` and `pr2` kernels, the insertion-built cover tree, and the
//! "befores" of PRs 15, 16, 21 and 23 — are literals in the block, frozen
//! as last recorded; the ratios beside them are taken against this run.
//! So are the row-by-row generator and the paper fixture's tree builds
//! routing one point per kernel call.
//! See `crates/bench/README.md` for the workflow.

use selnet_bench::servebench::Pass;
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_index::{CoverTree, PartitionMethod, Partitioning};
use selnet_metric::vectors::{squared_euclidean, LaneBlocks, LANES, ROWS};
use selnet_metric::DistanceKind;
use selnet_tensor::{Activation, Adam, Graph, Matrix, Mlp, Optimizer, ParamStore, Sgd, Var};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// One forward+backward+step of a small MLP regression — the op mix of
/// the training hot path. The benchmark runs it two ways: handing in a
/// brand-new `Graph` per step (the historical behavior) vs one long-lived
/// arena tape that each step resets and refills.
fn tape_step(
    g: &mut Graph,
    store: &mut ParamStore,
    opt: &mut Sgd,
    net: &Mlp,
    x: &Matrix,
    y: &Matrix,
) -> f32 {
    g.reset();
    let xv = g.leaf_ref(x);
    let yv = g.leaf_ref(y);
    let pred = net.forward(g, store, xv);
    let d = g.sub(pred, yv);
    let h = g.huber(d, 1.0);
    let loss = g.mean(h);
    g.backward(loss);
    let val = g.value(loss).get(0, 0);
    let grads = g.param_grad_refs();
    opt.step_refs(store, &grads);
    val
}

/// Small-batch fixture: 16 rows is the regime the ROADMAP flags, where
/// per-op allocation (not matmul flops) dominates the step.
fn tape_fixture() -> (ParamStore, Mlp, Matrix, Matrix) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let rows = 16;
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let net = Mlp::new(
        &mut store,
        "bench",
        &[10, 64, 64, 1],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    let x = Matrix::from_fn(rows, 10, |i, j| ((i * 7 + j * 13) % 31) as f32 * 0.05 - 0.7);
    let y = Matrix::from_fn(rows, 1, |i, _| (i % 17) as f32 * 0.1);
    (store, net, x, y)
}

/// The serving shapes the skinny-kernel tuning targets: a coalesced wave
/// is 64 rows through layers of width 16–64, nothing like the square
/// 256² the classic kernels are timed at. `(m, k, n)` for `A(m×k) · B(k×n)`.
const GEMM_SHAPES: [(usize, usize, usize); 5] = [
    (64, 10, 64),    // wave × input dim → trunk
    (64, 64, 64),    // trunk → trunk
    (64, 64, 16),    // trunk → head
    (16, 64, 64),    // light wave (a quarter-full batch)
    (256, 256, 256), // control: the square shape the tiling was built for
];

fn gemm_fixture(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    (a, b)
}

/// `count` pseudo-random vectors of dimension `dim`, row-major for the
/// pair kernel and lane-major for the block kernel, and a query.
fn distance_fixture(dim: usize, count: usize) -> (Vec<f32>, LaneBlocks, Vec<f32>) {
    let value = |i: usize| ((i * 2_654_435_761) % 1_000_003) as f32 / 1_000_003.0 - 0.5;
    let rows: Vec<f32> = (0..count * dim).map(value).collect();
    let mut blocks = LaneBlocks::new(dim);
    rows.chunks_exact(dim).for_each(|v| blocks.push(v));
    (rows, blocks, (0..dim).map(|i| value(i + 7)).collect())
}

/// One query against every vector, pair by pair.
fn pair_scan(rows: &[f32], x: &[f32]) -> f32 {
    rows.chunks_exact(x.len())
        .map(|v| squared_euclidean(x, v))
        .sum()
}

/// One query against every vector, sixteen per kernel call.
fn block_scan(blocks: &LaneBlocks, x: &[f32]) -> f32 {
    let mut sq = [0.0f32; LANES];
    (0..blocks.blocks())
        .map(|b| {
            blocks.sqdist_into(b, x, &mut sq);
            sq.iter().sum::<f32>()
        })
        .sum()
}

/// One query against every vector through the bounded kernel, under
/// limits that every lane is beyond after the first stride of
/// coordinates (`0.0`: an indicator probe far from a block of small
/// balls) or that nothing is ever beyond (`+∞`: what the looks cost a
/// call that finishes).
fn bounded_scan(blocks: &LaneBlocks, x: &[f32], limit: f32) -> f32 {
    let limits = [limit; LANES];
    let mut sq = [0.0f32; LANES];
    (0..blocks.blocks())
        .map(|b| match blocks.sqdist_within(b, x, &limits, &mut sq) {
            true => sq.iter().sum::<f32>(),
            false => 0.0,
        })
        .sum()
}

/// [`ROWS`] queries against every vector, sixteen vectors and all the
/// queries per kernel call: the labelling scan's full-distance shape.
fn rows_scan(blocks: &LaneBlocks, xs: [&[f32]; ROWS]) -> f32 {
    let mut sq = [[0.0f32; LANES]; ROWS];
    (0..blocks.blocks())
        .map(|b| {
            blocks.sqdist_rows_into(b, xs, &mut sq);
            sq.iter().flatten().sum::<f32>()
        })
        .sum()
}

/// [`ROWS`] queries for [`rows_scan`], `x` among them.
fn rows_fixture(x: &[f32]) -> [Vec<f32>; ROWS] {
    std::array::from_fn(|r| x.iter().map(|v| v + r as f32 * 0.125).collect())
}

/// The shapes of the `distance` block: the two fixture dimensions of
/// `benchmark/`, each over 32 vectors (in cache) and over 60 MB of them
/// (streamed from memory, as a labelling pass or an indicator sweep over
/// the paper fixture's region centres is).
const DISTANCE_SHAPES: [(usize, &str, usize); 4] = [
    (24, "cached", 32),
    (24, "streamed", 60_000_000 / (24 * 4)),
    (300, "cached", 32),
    (300, "streamed", 60_000_000 / (300 * 4)),
];

/// The benchmark's partitioning of a fixture: K = 3 clusters of cover-tree
/// regions cut at 0.05 · |D|, Euclidean.
const BALL_STORE_K: usize = 3;
const BALL_STORE_RATIO: f64 = 0.05;

/// A fixture's ball store as `Partitioning::build` makes it: a region's
/// ball that a bigger ball of its cluster covers is not stored.
fn ball_store_build(ds: &Dataset) -> Partitioning {
    let method = PartitionMethod::CoverTree {
        ratio: BALL_STORE_RATIO,
    };
    Partitioning::build(ds, DistanceKind::Euclidean, method, BALL_STORE_K, 42)
}

/// A query whose ball meets the first (biggest) ball of every cluster,
/// and one that meets none, so every block is walked.
fn hit_and_miss(ds: &Dataset) -> [(Vec<f32>, f32); 2] {
    [(ds.row(17).to_vec(), 1e4), (vec![1e3; ds.dim()], 0.1)]
}

/// The first `rows` records of `ds`: what a refresh is timed over.
fn head(ds: &Dataset, rows: usize) -> Dataset {
    let dim = ds.dim();
    Dataset::from_flat(dim, ds.flat()[..rows * dim].to_vec())
}

fn save_load(p: &Partitioning) -> usize {
    let mut bytes = Vec::new();
    p.save(&mut bytes).expect("write to memory");
    let back = Partitioning::load(&mut bytes.as_slice()).expect("own bytes load");
    black_box(back.k());
    bytes.len()
}

/// `refresh_assignments` on a copy of `p`. Over no records it is the pass
/// that decides which balls a store keeps and nothing else.
fn refreshed(p: &Partitioning, records: &Dataset) -> usize {
    let mut p = p.clone();
    p.refresh_assignments(records);
    p.region_counts().iter().sum()
}

/// Rows a `ball_store` refresh runs over.
const REFRESH_ROWS: usize = 2000;

/// `(name, fixture, samples, every)`: the benchmark's two fixtures, the
/// samples a build or a refresh of one is timed over, and the `every` side
/// of its ball store — the ball of every region the ratio cut exports, the
/// store before PR 23 — frozen as last recorded.
fn ball_store_fixtures(paper: Dataset) -> [(&'static str, Dataset, usize, &'static str); 2] {
    [
        (
            "paper",
            paper,
            3,
            r#""every": { "balls": 19202, "snapshot_bytes": 23672882, "save_load_ms": 30.33, "indicator_hit_ns": 1094, "indicator_miss_ns": 193045, "compaction_ms": 60.13, "refresh_2000_rows_ms": 2397.6 }"#,
        ),
        (
            "small",
            fasttext_like(&GeneratorConfig::new(20_000, 24, 16, 7)),
            10,
            r#""every": { "balls": 1599, "snapshot_bytes": 332750, "save_load_ms": 0.17, "indicator_hit_ns": 74, "indicator_miss_ns": 2291, "compaction_ms": 0.23, "refresh_2000_rows_ms": 6.5 }"#,
        ),
    ]
}

/// One empty two-way fork-join: a scope, one spawn, one join — the cost
/// `selnet_tensor::parallel::FORK_MIN_WORK` is derived from.
fn fork_join_once() {
    selnet_tensor::parallel::fork_join(vec![0u8, 1], |part| {
        black_box(part);
    });
}

/// Records per label column and the rank the paper fixture's ladder tops
/// out at (`N / 100`).
const LABEL_COLUMN: (usize, usize) = (50_000, 500);

/// A column of distances as the labelling scan leaves it: unsorted, with
/// runs of equal values.
fn label_column() -> Vec<f32> {
    let (n, _) = LABEL_COLUMN;
    (0..n)
        .map(|i| ((i * 7919) % 10_007) as f32 * 0.013 + 1.0)
        .collect()
}

fn by_distance(a: &f32, b: &f32) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("finite distances")
}

/// What `NearestColumns::finish` does with a column: select the top rank,
/// sort that prefix, count the ties of the rank's value among the rest.
fn column_select(column: &mut [f32]) -> (f32, usize) {
    let rank = LABEL_COLUMN.1;
    let (_, &mut top, beyond) = column.select_nth_unstable_by(rank - 1, by_distance);
    let ties = beyond.iter().filter(|&&d| d == top).count();
    column[..rank].sort_unstable_by(by_distance);
    (column[rank - 1], ties)
}

/// The tape of one §5.3 joint step on a curve batch, rebuilt from the
/// public parts (`core::partitioned::joint_step` is private): the shared
/// code `z_x`, `K = 3` control-point networks on `[x; z_x]` — one network
/// row per object —, `gather_rows` out to each object's `JOINT_LADDER`
/// pairs, the PWL heads, the local losses, the indicator-masked global
/// loss and the reconstruction term.
struct JointStep {
    cfg: selnet_core::SelNetConfig,
    store: ParamStore,
    ae: selnet_core::Autoencoder,
    locals: Vec<selnet_core::ControlPointNets>,
    /// One row per object ...
    objects: Matrix,
    /// ... the row of `objects` each pair expands from ...
    pair_rows: Vec<usize>,
    /// ... and one row per pair of thresholds, log labels and one
    /// indicator column per partition.
    pair_columns: Vec<Matrix>,
}

const JOINT_K: usize = 3;
const JOINT_TMAX: f32 = 4.0;
/// Thresholds per object in the curve batch: the benchmark fixtures' ladder.
const JOINT_LADDER: usize = 20;

impl JointStep {
    fn new(cfg: selnet_core::SelNetConfig, dim: usize) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let ae = selnet_core::Autoencoder::new(
            &mut store,
            "ae",
            dim,
            &cfg.ae_hidden,
            cfg.latent_dim,
            &mut rng,
        );
        let locals = (0..JOINT_K)
            .map(|i| {
                selnet_core::ControlPointNets::new(
                    &mut store,
                    &format!("local{i}"),
                    dim + cfg.latent_dim,
                    &cfg,
                    &mut rng,
                )
            })
            .collect();
        // the objects `SelNetConfig::batch_size` works out to on this ladder
        let rows = cfg.batch_size;
        let objects = (rows as f64 / JOINT_LADDER as f64).round() as usize;
        let pairs = objects * JOINT_LADDER;
        // the pair columns repeat every `batch_size` rows
        let column =
            |value: &dyn Fn(usize) -> f32| Matrix::from_fn(pairs, 1, |i, _| value(i % rows));
        let mut pair_columns = vec![
            column(&|i| (i % 17) as f32 * (JOINT_TMAX / 17.0)),
            column(&|i| (i % 17) as f32 * 0.3),
        ];
        pair_columns.extend((0..JOINT_K).map(|k| column(&|i| ((i + k) % 2) as f32)));
        JointStep {
            cfg,
            store,
            ae,
            locals,
            objects: Matrix::from_fn(objects, dim, |i, j| {
                ((i * 7 + j * 13) % 31) as f32 * 0.05 - 0.7
            }),
            pair_rows: (0..pairs).map(|pair| pair / JOINT_LADDER).collect(),
            pair_columns,
        }
    }

    /// Encoder, local models and reconstruction on the object rows,
    /// `gather_rows` hands every pair its object's `(τ, p)`, and heads,
    /// losses and masks are per pair.
    fn record(&self, g: &mut Graph) -> Var {
        let cfg = &self.cfg;
        g.reset();
        let xv = g.leaf_ref(&self.objects);
        let tv = g.leaf_ref(&self.pair_columns[0]);
        let yv = g.leaf_ref(&self.pair_columns[1]);
        let z = self.ae.encode(g, &self.store, xv);
        let input = g.concat_cols(xv, z);
        let log_residual_loss = |g: &mut Graph, pred: Var| {
            let pl = g.ln_eps(pred, cfg.log_eps);
            let r = g.sub(pl, yv);
            let h = g.huber(r, cfg.huber_delta);
            g.mean(h)
        };
        let mut loss: Option<Var> = None;
        let mut global: Option<Var> = None;
        for (nets, ind) in self.locals.iter().zip(&self.pair_columns[2..]) {
            let (tau, p) = nets.control_points(g, &self.store, input, JOINT_TMAX, true);
            let tau = g.gather_rows(tau, &self.pair_rows);
            let p = g.gather_rows(p, &self.pair_rows);
            let pred = g.pwl_interp(tau, p, tv);
            let local = log_residual_loss(g, pred);
            loss = Some(loss.map_or(local, |acc| g.add(acc, local)));
            let iv = g.leaf_ref(ind);
            let masked = g.mul(pred, iv);
            global = Some(global.map_or(masked, |acc| g.add(acc, masked)));
        }
        let global_loss = log_residual_loss(g, global.expect("k > 0"));
        let mut loss = g.add(global_loss, loss.expect("k > 0"));
        let recon = self.ae.decode(g, &self.store, z);
        let dx = g.sub(recon, xv);
        let sq = g.square(dx);
        // every object's share of the pairs: equal ladders, all ones
        let weight = g.leaf_with(self.objects.rows(), 1, |w| w.fill(1.0));
        let sq = g.mul_col_vec(sq, weight);
        let ae = g.mean(sq);
        let ae = g.scale(ae, cfg.lambda_ae);
        loss = g.add(loss, ae);
        loss
    }

    /// Forward, the parameters-only sweep, Adam: the step training runs.
    fn step(&mut self, g: &mut Graph, opt: &mut Adam) -> f32 {
        let loss = self.record(g);
        g.backward_params(loss);
        let val = g.value(loss).get(0, 0);
        let grads = g.param_grad_refs();
        opt.step_refs(&mut self.store, &grads);
        val
    }
}

/// `(name, fixture, pair row, pair_step_us_per_pair)`: the benchmark's
/// paper-shaped model (d = 300, default widths, 256 rows) and its small
/// one (d = 24, `tiny()`, 96 rows), each with the numbers of its batch of
/// pair rows — one network row per `(x, t)`, the batch training assembled
/// before PR 21 — frozen as last recorded.
fn joint_fixtures() -> [(&'static str, JointStep, &'static str, f64); 2] {
    use selnet_core::SelNetConfig;
    [
        (
            "paper",
            JointStep::new(SelNetConfig::default(), 300),
            r#"{ "rows": 256, "params": 643761, "full_sweep_us": 21365.2, "params_only_us": 19118.0, "full_vs_params_only": 1.12 }"#,
            74.68,
        ),
        (
            "tiny",
            JointStep::new(SelNetConfig::tiny(), 24),
            r#"{ "rows": 96, "params": 11525, "full_sweep_us": 270.0, "params_only_us": 252.8, "full_vs_params_only": 1.07 }"#,
            2.63,
        ),
    ]
}

/// Parameters in the Adam fixture: about one paper-shaped local model.
const ADAM_PARAMS: usize = 1 << 17;

fn adam_fixture() -> (ParamStore, selnet_tensor::ParamId, Matrix) {
    let value = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f32 * 0.01 - 0.5;
    let mut store = ParamStore::new();
    let id = store.add("p", Matrix::from_fn(256, ADAM_PARAMS / 256, value));
    let grad = Matrix::from_fn(256, ADAM_PARAMS / 256, |i, j| 3.0 * value(j, i));
    (store, id, grad)
}

fn main() -> ExitCode {
    let pass = Pass::from_args();

    let a = Matrix::from_fn(256, 256, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b = Matrix::from_fn(256, 256, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    let naive = pass.time_ms(10, 10, || {
        black_box(a.matmul_naive(&b));
    });
    let blocked_1t = pass.time_ms(10, 10, || {
        black_box(a.matmul_threaded(&b, 1));
    });
    let blocked_4t = pass.time_ms(10, 10, || {
        black_box(a.matmul_threaded(&b, 4));
    });
    let at_b_1t = pass.time_ms(10, 10, || {
        black_box(a.matmul_at_b_threaded(&b, 1));
    });
    let a_bt_1t = pass.time_ms(10, 10, || {
        black_box(a.matmul_a_bt_threaded(&b, 1));
    });

    // tape overhead at batch 16 (the small-batch regime the ROADMAP
    // flags): fresh graph per step vs reused arena
    let (mut store, net, bx, by) = tape_fixture();
    let mut opt = Sgd::new(1e-3);
    let tape_fresh = pass.time_ms(10, 50, || {
        let mut g = Graph::new();
        black_box(tape_step(&mut g, &mut store, &mut opt, &net, &bx, &by));
    });
    let (mut store, net, bx, by) = tape_fixture();
    let mut opt = Sgd::new(1e-3);
    let mut g = Graph::new();
    let tape_reused = pass.time_ms(10, 50, || {
        black_box(tape_step(&mut g, &mut store, &mut opt, &net, &bx, &by));
    });

    use selnet_core::SelNetConfig;
    use selnet_workload::{generate_workload, ThresholdScheme, WorkloadConfig};
    let ds = fasttext_like(&GeneratorConfig::new(2000, 6, 4, 7));
    let wcfg = WorkloadConfig {
        num_queries: 60,
        thresholds_per_query: 12,
        kind: DistanceKind::Euclidean,
        scheme: ThresholdScheme::GeometricSelectivity,
        seed: 1,
        threads: 4,
    };
    let w = generate_workload(&ds, &wcfg);
    let mut cfg = SelNetConfig::tiny();
    cfg.epochs = 1;
    let train_epoch = pass.time_ms(5, 3, || {
        black_box(selnet_core::fit(&ds, &w, &cfg));
    });

    // the parallel matmul dispatcher's scaling curve at the 256² control
    // shape (2^24 multiply-adds: below the fork gate's two workers' worth,
    // so flat at every thread count) and at 512² (eight workers' worth)
    let mm_scaling: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            pass.time_ms(10, 10, || {
                black_box(a.matmul_threaded(&b, t));
            })
        })
        .collect();
    let a512 = Matrix::from_fn(512, 512, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b512 = Matrix::from_fn(512, 512, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    let mm512_scaling: Vec<f64> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            pass.time_ms(10, 4, || {
                black_box(a512.matmul_threaded(&b512, t));
            })
        })
        .collect();

    // one empty two-way fork-join, back to back (the second core awake)
    // and after 2 ms of sleep each (the vCPU has to be woken): the number
    // `parallel::FORK_MIN_WORK` is derived from
    let fork_join_us = pass.time_ms(10, 200, fork_join_once) * 1e3;
    let fork_join_idle_us = (0..40)
        .map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let t = Instant::now();
            fork_join_once();
            t.elapsed().as_secs_f64() * 1e6
        })
        .sum::<f64>()
        / 40.0;

    // a label column of 50 000 distances selected at the ladder's top
    // rank, the copy that refills it subtracted
    let column = label_column();
    let mut scratch = column.clone();
    let column_copy = pass.time_ms(5, 20, || {
        scratch.copy_from_slice(&column);
        black_box(&scratch);
    });
    let select_ms = pass.time_ms(5, 20, || {
        scratch.copy_from_slice(&column);
        black_box(column_select(&mut scratch));
    }) - column_copy;

    // gemm yardstick: hand kernel vs naive reference per serving shape
    let gemm_lines: Vec<String> = GEMM_SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let (ga, gb) = gemm_fixture(m, k, n);
            let hand = pass.time_ms(10, 50, || {
                black_box(ga.matmul_threaded(&gb, 1));
            });
            let naive_ref = pass.time_ms(10, 50, || {
                black_box(ga.matmul_naive(&gb));
            });
            format!(
                r#"    "{m}x{k}x{n}": {{ "hand_ms": {hand:.5}, "naive_ms": {naive_ref:.5}, "hand_vs_naive": {ratio:.2} }}"#,
                ratio = naive_ref / hand
            )
        })
        .collect();
    let gemm_block = gemm_lines.join(",\n");

    // distance layer: nanoseconds per distance, pair kernel (the "before"
    // of every scan that moved onto blocks) against the block kernel
    let distance_lines: Vec<String> = DISTANCE_SHAPES
        .iter()
        .map(|&(dim, residency, count)| {
            let (rows, blocks, x) = distance_fixture(dim, count);
            let iters = (4_000_000 / (dim * count)).max(1);
            let per_distance = |ms: f64| ms * 1e6 / count as f64;
            let pair = per_distance(pass.time_ms(5, iters, || {
                black_box(pair_scan(black_box(&rows), &x));
            }));
            let block = per_distance(pass.time_ms(5, iters, || {
                black_box(block_scan(black_box(&blocks), &x));
            }));
            let [first, never] = [0.0, f32::INFINITY].map(|limit| {
                per_distance(pass.time_ms(5, iters, || {
                    black_box(bounded_scan(black_box(&blocks), &x, limit));
                }))
            });
            let xs = rows_fixture(&x);
            let xs: [&[f32]; ROWS] = std::array::from_fn(|r| xs[r].as_slice());
            let rows4 = per_distance(pass.time_ms(5, iters.div_ceil(ROWS), || {
                black_box(rows_scan(black_box(&blocks), xs));
            })) / ROWS as f64;
            format!(
                r#"    "d{dim}_{residency}": {{ "vectors": {count}, "pair_ns": {pair:.2}, "block_ns": {block:.2}, "pair_vs_block": {ratio:.2}, "bounded_first_stride_ns": {first:.2}, "bounded_never_ns": {never:.2}, "rows4_ns": {rows4:.2} }}"#,
                ratio = pair / block
            )
        })
        .collect();
    let distance_block = distance_lines.join(",\n");
    let ds5k = fasttext_like(&GeneratorConfig::new(5000, 16, 8, 1));
    let build_5k = pass.time_ms(10, 2, || {
        black_box(CoverTree::build_with_workers(&ds5k, 1));
    });
    let build_5k_2w = pass.time_ms(10, 2, || {
        black_box(CoverTree::build_with_workers(&ds5k, 2));
    });
    // the benchmark's paper fixture: generated on the default workers,
    // then its tree to full depth and to the ratio cut the partitioner
    // passes (0.05 · |D|); a build is most of a second, so best of three
    let paper = GeneratorConfig::new(50_000, 300, 16, 7);
    let gen_50k = pass.time_ms(5, 1, || {
        black_box(fasttext_like(&paper));
    });
    let ds50k = fasttext_like(&paper);
    let build_50k = pass.time_ms(3, 1, || {
        black_box(CoverTree::build(&ds50k));
    });
    let build_50k_ratio = pass.time_ms(3, 1, || {
        black_box(CoverTree::build_for_regions(&ds50k, 2500));
    });

    // the ball store at the benchmark's two fixtures: what the build
    // stores (the uncovered balls), beside the frozen store of every ball
    let ball_store_lines: Vec<String> = ball_store_fixtures(ds50k)
        .into_iter()
        .map(|(name, ds, samples, every)| {
            let build = pass.time_ms(samples, 1, || {
                black_box(ball_store_build(&ds));
            });
            let p = ball_store_build(&ds);
            let (none, head) = (head(&ds, 0), head(&ds, REFRESH_ROWS));
            let balls: usize = p.region_counts().iter().sum();
            let bytes = save_load(&p);
            let save_load_ms = pass.time_ms(5, 2, || {
                black_box(save_load(&p));
            });
            let mut flags = Vec::new();
            let [hit, miss] = hit_and_miss(&ds).map(|(x, t)| {
                pass.time_ms(5, 2000, || {
                    p.indicator_into(black_box(&x), t, &mut flags);
                    black_box(flags.len());
                }) * 1e6
            });
            let [compaction, refresh] = [&none, &head].map(|records| {
                pass.time_ms(samples, 1, || {
                    black_box(refreshed(&p, records));
                })
            });
            format!(
                r#"    "{name}": {{ "records": {n}, "dim": {dim}, "build_ms": {build:.1},
      {every},
      "compact": {{ "balls": {balls}, "snapshot_bytes": {bytes}, "save_load_ms": {save_load_ms:.2}, "indicator_hit_ns": {hit:.0}, "indicator_miss_ns": {miss:.0}, "compaction_ms": {compaction:.2}, "refresh_{REFRESH_ROWS}_rows_ms": {refresh:.1} }} }}"#,
                n = ds.len(),
                dim = ds.dim(),
            )
        })
        .collect();
    let ball_store_block = ball_store_lines.join(",\n");

    // the §5.3 joint step on the curve batch, in microseconds, beside the
    // frozen pair batch, and the Adam loop per parameter
    let train_step_lines: Vec<String> = joint_fixtures()
        .into_iter()
        .map(|(name, mut fx, pair_row, per_pair_before)| {
            let iters = if name == "paper" { 20 } else { 800 };
            let mut g = Graph::new();
            let mut opt = Adam::new(1e-3).with_clip(1.0);
            let curves = pass.time_ms(7, iters, || {
                black_box(fx.step(&mut g, &mut opt));
            }) * 1e3;
            let pairs = fx.pair_rows.len();
            let per_pair = curves / pairs as f64;
            format!(
                r#"    "joint_{name}_k3": {pair_row},
    "curves_{name}_k3": {{ "objects": {objects}, "pairs": {pairs}, "step_us": {curves:.1}, "us_per_pair": {per_pair:.2}, "pair_step_us_per_pair": {per_pair_before:.2}, "pair_vs_curves_per_pair": {gain:.1} }}"#,
                objects = fx.objects.rows(),
                gain = per_pair_before / per_pair
            )
        })
        .collect();
    let train_step_block = train_step_lines.join(",\n");
    let (mut adam_store, adam_id, adam_grad) = adam_fixture();
    let mut adam = Adam::new(1e-3).with_clip(1.0);
    let adam_after = pass.time_ms(10, 20, || {
        adam.step_refs(black_box(&mut adam_store), &[(adam_id, &adam_grad)]);
    }) * 1e6
        / ADAM_PARAMS as f64;

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The `seed` block is the frozen pre-optimization measurement (naive
    // ikj kernel, no target-cpu flags, single thread) and the `pr2` block
    // the frozen post-blocked-kernel measurement — keep both stable so the
    // trajectory stays comparable across PRs.
    let json = format!(
        r#"{{
  "description": "Substrate benchmark trajectory: seed = frozen pre-optimization baseline; pr2 = frozen blocked-kernel baseline (PR 2); current = latest SELNET_BENCH_RECORD=1 run of `cargo bench -p selnet-bench --bench substrate`. Times in milliseconds (best-of-samples mean).",
  "seed": {{
    "machine_cpus": 1,
    "matmul_256_ms": 2.0667,
    "matmul_128_ms": 0.2678,
    "matmul_64_ms": 0.03741,
    "train_epoch_tiny_ms": 3.3017
  }},
  "pr2": {{
    "machine_cpus": 1,
    "matmul_naive_256_ms": 1.5338,
    "matmul_blocked_256_1t_ms": 0.5930,
    "train_epoch_tiny_ms": 1.3914
  }},
  "current": {{
    "machine_cpus": {cpus},
    "matmul_naive_256_ms": {naive:.4},
    "matmul_blocked_256_1t_ms": {blocked_1t:.4},
    "matmul_blocked_256_4t_ms": {blocked_4t:.4},
    "matmul_at_b_256_1t_ms": {at_b_1t:.4},
    "matmul_a_bt_256_1t_ms": {a_bt_1t:.4},
    "tape_train_step_b16_fresh_graph_ms": {tape_fresh:.4},
    "tape_train_step_b16_reused_arena_ms": {tape_reused:.4},
    "train_epoch_tiny_ms": {train_epoch:.4},
    "speedup_vs_seed_matmul_256": {speedup_mm:.2},
    "speedup_vs_seed_train_epoch": {speedup_te:.2},
    "speedup_vs_pr2_train_epoch": {speedup_pr2:.2},
    "speedup_tape_reuse_vs_fresh": {speedup_tape:.2}
  }},
  "scaling": {{
    "machine_cpus": {cpus},
    "matmul_256_1t_ms": {mm1:.4},
    "matmul_256_2t_ms": {mm2:.4},
    "matmul_256_4t_ms": {mm4:.4},
    "matmul_256_8t_ms": {mm8:.4},
    "speedup_4t_vs_1t": {mm_speedup:.2},
    "matmul_512_1t_ms": {mm512_1:.4},
    "matmul_512_2t_ms": {mm512_2:.4},
    "matmul_512_4t_ms": {mm512_4:.4},
    "speedup_512_2t_vs_1t": {mm512_speedup:.2}
  }},
  "parallel": {{
    "machine_cpus": {cpus},
    "fork_join_us": {fork_join_us:.1},
    "fork_join_idle_us": {fork_join_idle_us:.1},
    "fork_min_work": {fork_min_work}
  }},
  "gemm": {{
{gemm_block}
  }},
  "distance": {{
{distance_block}
  }},
  "generator": {{
    "records": 50000,
    "dim": 300,
    "row_by_row_ms": 516.7,
    "fasttext_like_ms": {gen_50k:.1},
    "row_by_row_vs_chunked": {gen_ratio:.2}
  }},
  "cover_tree": {{
    "build_5k_insertion_ms": 4.1826,
    "build_5k_ms": {build_5k:.4},
    "build_5k_2w_ms": {build_5k_2w:.4},
    "speedup_vs_insertion": {speedup_ct:.2},
    "build_50k_d300_one_point_ms": 546.0,
    "build_50k_d300_ms": {build_50k:.1},
    "build_50k_d300_ratio_one_point_ms": 491.4,
    "build_50k_d300_ratio_ms": {build_50k_ratio:.1},
    "ratio_one_point_vs_four": {ct_four_ratio:.2}
  }},
  "ball_store": {{
{ball_store_block}
  }},
  "label_column": {{
    "records": {column_n},
    "rank": {column_rank},
    "sort_ms": 3.0461,
    "select_ms": {select_ms:.4},
    "sort_vs_select": {sort_vs_select:.2}
  }},
  "train_step": {{
{train_step_block},
    "adam_ns_per_param": {{ "params": {ADAM_PARAMS}, "zip_before": 3.02, "indexed": {adam_after:.2}, "before_vs_after": {adam_ratio:.2} }}
  }},
  "notes": "seed/pr2 numbers were taken on a single-vCPU container; the 4t entries only show parallel gains on multi-core hosts (the kernels are bit-identical across thread counts either way). The tape_* pair isolates per-step tape overhead: same model, same data, fresh Graph per step vs one reused arena. The scaling block is the parallel matmul dispatcher's per-thread curve at the 256² control shape; the gemm block is the hand-tiled kernel vs the naive ikj reference per serving shape (hand_vs_naive > 1 means the hand kernel wins), recorded on machine_cpus cores. The distance block is nanoseconds per distance of one query against `vectors` vectors, `vectors::squared_euclidean` pair by pair vs `LaneBlocks::sqdist_into` sixteen at a time (bit-identical lanes), over 32 vectors (cached) and over 60 MB of them (streamed); bounded_first_stride_ns and bounded_never_ns are `LaneBlocks::sqdist_within` under limits every lane is beyond after the first 32 coordinates, and limits nothing is ever beyond (at d = 24, a single stride, the kernel never looks and both are the block kernel), rows4_ns is `LaneBlocks::sqdist_rows_into`, four queries per pass over a block, per distance. The generator block is `fasttext_like` at the benchmark's paper fixture (50 000 x 300, seed 7), best of five on the default workers: fasttext_like_ms draws the RNG stream on the calling thread a chunk at a time and runs the chunk's Box-Muller transforms on the workers; row_by_row_ms is frozen — the loop that drew and transformed each normal in turn on one thread, which it replaced (same bytes), the best of the runs taken on the recording host just before and after the recording — and row_by_row_vs_chunked divides it by the live number. cover_tree.build_5k_insertion_ms is frozen: sequential insertion on the pair kernel, the build the batch build replaced, best of 10 on the host that recorded build_5k_ms; build_5k_ms is the batch build on one worker, build_5k_2w_ms the same tree routed by two (80 000 coordinates: far below the size `CoverTree::build` goes parallel at); build_50k_d300_ms and build_50k_d300_ratio_ms are the best of three builds each of the benchmark's paper fixture (50 000 x 300) on the default workers, to full depth (`CoverTree::build`) and down to the partitioner's ratio cut (`build_for_regions`, subtrees of at most 2 500 points left flat), with four arriving points routed per kernel call (`LaneBlocks::dist_rows_within`); the *_one_point_ms beside them are frozen — the same builds routing one point per call (`dist_within`), which that replaced (same tree), timed the same way — and ratio_one_point_vs_four divides the ratio-cut one by the live build_50k_d300_ratio_ms. The parallel block is one empty two-way `parallel::fork_join` (a scope, one spawn, one join) in microseconds, back to back and after 2 ms of sleep each (the second vCPU has to be woken), beside the gate derived from it: `parallel::FORK_MIN_WORK` elementary operations per engaged worker. Under it the 256² scaling curve (2^24 multiply-adds in all) never forks and is flat by construction; 512² is eight workers' worth and does fork — where speedup_512_2t_vs_1t reads about 1.0 the recording host's two vCPUs share one core's vector units, so a compute-bound kernel gains nothing from the second while a latency-bound scan (the N=50 000 cover-tree build, 1.25 → 0.67 s, or the generator's transforms) halves. The label_column block is one column of `records` distances: select_ms is `select_nth_unstable` at `rank`, a sort of that prefix and a tie count over the rest (`NearestColumns::finish`), the copy that refills the column subtracted; sort_ms is frozen — the full sort of the column, which rank selection replaced in labelling — and sort_vs_select divides it by the live select_ms. The train_step block is one §5.3 joint step (forward, backward sweep, Adam with clip) on a reused tape, K = 3 local models, at the benchmark's paper shape (d = 300, default widths, 256 rows) and its small one (d = 24, tiny(), 96 rows), in microseconds. The joint_*_k3 rows are frozen: the step on a batch of pair rows, one network row per (x, t), which training no longer assembles, under `Graph::backward` (every leaf live — what training ran before the parameters-only sweep) against `Graph::backward_params` (only what a parameter needs; same parameter bits). adam_ns_per_param is one clipped Adam update of `params` parameters per parameter: zip_before is frozen — the four-way zip that read its hyper-parameters and the clip decision through `self` per element, which the indexed loop replaced — and before_vs_after divides it by the live indexed loop (same bits). The curves_* rows are that joint step on the batch training assembles now: `objects` whole query objects with 20 thresholds each (what `batch_size` works out to on the benchmark's ladder), the encoder, the local models and the reconstruction term on the object rows, `Graph::gather_rows` out to `pairs` rows for the PWL heads, losses and masks, parameters-only sweep, Adam; `us_per_pair` is `step_us / pairs`, `pair_step_us_per_pair` is frozen — `params_only_us / rows` of the pair batch above it — and pair_vs_curves_per_pair divides it by the live us_per_pair. Not the 20x the row count suggests: at 13 rows the first-layer GEMMs are skinny, and the Adam update of `params` parameters, the per-pair heads and the tape's fixed costs do not shrink with the rows. The ball_store block is a cover-tree partitioning's ball store (K = 3, ratio 0.05, Euclidean) at the benchmark's two fixtures, two ways: `every` is frozen — the ball of every region the ratio cut exports, the store before covered balls were left out, last recorded from a snapshot stream written by hand (the partitioner's greedy merge kept verbatim) and loaded, since `Partitioning::load` stores what it is given — and `compact` is what `Partitioning::build` stores since: no ball that a bigger ball of its own cluster covers (same indicator flags, same refreshed assignments). build_ms is `Partitioning::build`, tree included; save_load_ms one `save` into a fresh Vec plus one `load` of it; indicator_hit_ns one `indicator_into` whose query ball meets the first (biggest) ball of every cluster, indicator_miss_ns one that meets no ball, so that every block of every cluster is walked (abandoned after the first 32 coordinates at d = 300); compaction_ms is `refresh_assignments` over no records on a copy of the store — the pass that decides which balls a store keeps, and on `every` the work the partitioner's store phase does (52-68 ms inside the build by a scratch timer; the plain copy it replaced 24 ms); refresh_2000_rows_ms is `refresh_assignments` over the first 2 000 records on a copy (on `every` that is the scan of the old store plus one compaction_ms)."
}}
"#,
        mm1 = mm_scaling[0],
        mm2 = mm_scaling[1],
        mm4 = mm_scaling[2],
        mm8 = mm_scaling[3],
        mm_speedup = mm_scaling[0] / mm_scaling[2],
        mm512_1 = mm512_scaling[0],
        mm512_2 = mm512_scaling[1],
        mm512_4 = mm512_scaling[2],
        mm512_speedup = mm512_scaling[0] / mm512_scaling[1],
        fork_min_work = selnet_tensor::parallel::FORK_MIN_WORK,
        adam_ratio = 3.02 / adam_after,
        column_n = LABEL_COLUMN.0,
        column_rank = LABEL_COLUMN.1,
        sort_vs_select = 3.0461 / select_ms,
        speedup_mm = 2.0667 / blocked_1t.min(blocked_4t),
        speedup_te = 3.3017 / train_epoch,
        speedup_pr2 = 1.3914 / train_epoch,
        speedup_tape = tape_fresh / tape_reused,
        speedup_ct = 4.1826 / build_5k,
        gen_ratio = 516.7 / gen_50k,
        ct_four_ratio = 491.4 / build_50k_ratio,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    pass.finish(path, &json)
}
