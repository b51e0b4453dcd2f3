//! Microbenchmarks of the substrates: tensor matmul (naive reference vs
//! blocked vs blocked+threads), the tape itself (fresh graph per step vs
//! arena reuse — the allocation-sensitive benchmark), the distance layer
//! (pair kernel against the 16-lane block kernel, in cache and streamed),
//! cover-tree construction (one and two build workers) and range
//! counting, the partitioning's ball store (every region's ball against
//! the uncovered ones only), the fork-join primitive itself, a label column fully sorted
//! against rank-selected, PWL head evaluation, workload ground-truth
//! labeling, one end-to-end training epoch, and the §5.3 joint training
//! step (full backward sweep against the parameters-only one, a batch of
//! shuffled pairs against a batch of whole objects, the scalar Adam loop
//! against the vectorised one).
//!
//! With `SELNET_BENCH_RECORD=1` the run re-times the key kernels with a
//! plain `Instant` loop and rewrites `BENCH_substrate.json` at the repo
//! root, next to the frozen seed/PR-2 baselines, so perf PRs leave a
//! recorded trajectory. See `crates/bench/README.md` for the workflow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selnet_core::PiecewiseLinear;
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_index::{CoverTree, PartitionMethod, Partitioning};
use selnet_metric::vectors::{squared_euclidean, LaneBlocks, LANES, ROWS};
use selnet_metric::DistanceKind;
use selnet_tensor::{Activation, Adam, Graph, Matrix, Mlp, Optimizer, ParamStore, Sgd, Var};
use std::hint::black_box;

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

/// Small-batch fixture: `rows = 16` is the regime the ROADMAP flags, where
/// per-op allocation (not matmul flops) dominates the step.
fn tape_fixture(rows: usize) -> (ParamStore, Mlp, Matrix, Matrix) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

fn bench_tape(c: &mut Criterion) {
    let mut group = c.benchmark_group("tape");
    group.sample_size(20);
    for rows in [16usize, 128] {
        let (mut store, net, x, y) = tape_fixture(rows);
        let mut opt = Sgd::new(1e-3);
        group.bench_function(format!("train_step_b{rows}_fresh_graph"), |b| {
            b.iter(|| {
                let mut g = Graph::new();
                black_box(tape_step(&mut g, &mut store, &mut opt, &net, &x, &y))
            })
        });
        let (mut store, net, x, y) = tape_fixture(rows);
        let mut opt = Sgd::new(1e-3);
        let mut g = Graph::new();
        group.bench_function(format!("train_step_b{rows}_reused_arena"), |b| {
            b.iter(|| black_box(tape_step(&mut g, &mut store, &mut opt, &net, &x, &y)))
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_matmul");
    group.sample_size(20);
    for size in [64usize, 128, 256] {
        let a = Matrix::from_fn(size, size, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
        let b = Matrix::from_fn(size, size, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)))
        });
    }
    // before/after at the ROADMAP's flagged size: the naive ikj reference
    // (the seed kernel) vs the blocked kernel vs blocked + 4 workers
    let a = Matrix::from_fn(256, 256, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b = Matrix::from_fn(256, 256, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    group.bench_function("256_naive_seed", |bench| {
        bench.iter(|| black_box(a.matmul_naive(&b)))
    });
    group.bench_function("256_blocked_1t", |bench| {
        bench.iter(|| black_box(a.matmul_threaded(&b, 1)))
    });
    group.bench_function("256_blocked_4t", |bench| {
        bench.iter(|| black_box(a.matmul_threaded(&b, 4)))
    });
    group.bench_function("256_at_b_blocked_1t", |bench| {
        bench.iter(|| black_box(a.matmul_at_b_threaded(&b, 1)))
    });
    group.bench_function("256_a_bt_lanes_1t", |bench| {
        bench.iter(|| black_box(a.matmul_a_bt_threaded(&b, 1)))
    });
    group.finish();
}

/// The serving shapes the skinny-kernel tuning targets: a coalesced wave
/// is 64 rows through layers of width 16–64, nothing like the square
/// 256² the classic group times. `(m, k, n)` for `A(m×k) · B(k×n)`.
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

/// Yardstick group: the hand-tiled kernel vs the straightforward naive
/// gemm on the exact serving shapes, so kernel-peak distance is a tracked
/// number per shape rather than folklore extrapolated from 256².
fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_yardstick");
    group.sample_size(20);
    for (m, k, n) in GEMM_SHAPES {
        let (a, b) = gemm_fixture(m, k, n);
        group.bench_function(format!("{m}x{k}x{n}_hand"), |bench| {
            bench.iter(|| black_box(a.matmul_threaded(&b, 1)))
        });
        group.bench_function(format!("{m}x{k}x{n}_naive"), |bench| {
            bench.iter(|| black_box(a.matmul_naive(&b)))
        });
    }
    group.finish();
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

/// The shapes of the `distance` group: the two fixture dimensions of
/// `benchmark/`, each over 32 vectors (in cache) and over 60 MB of them
/// (streamed from memory, as a labelling pass or an indicator sweep over
/// the paper fixture's region centres is).
const DISTANCE_SHAPES: [(usize, &str, usize); 4] = [
    (24, "cached", 32),
    (24, "streamed", 60_000_000 / (24 * 4)),
    (300, "cached", 32),
    (300, "streamed", 60_000_000 / (300 * 4)),
];

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    group.sample_size(10);
    for (dim, residency, count) in DISTANCE_SHAPES {
        let (rows, blocks, x) = distance_fixture(dim, count);
        group.bench_function(format!("pair_d{dim}_{residency}_x{count}"), |b| {
            b.iter(|| black_box(pair_scan(black_box(&rows), black_box(&x))))
        });
        group.bench_function(format!("block_d{dim}_{residency}_x{count}"), |b| {
            b.iter(|| black_box(block_scan(black_box(&blocks), black_box(&x))))
        });
        for (name, limit) in [("first_stride", 0.0), ("never", f32::INFINITY)] {
            let name = format!("bounded_{name}_d{dim}_{residency}_x{count}");
            group.bench_function(name, |b| {
                b.iter(|| black_box(bounded_scan(black_box(&blocks), black_box(&x), limit)))
            });
        }
        let xs = rows_fixture(&x);
        group.bench_function(format!("rows4_d{dim}_{residency}_x{count}"), |b| {
            let xs = std::array::from_fn(|r| xs[r].as_slice());
            b.iter(|| black_box(rows_scan(black_box(&blocks), black_box(xs))))
        });
    }
    group.finish();
}

fn bench_cover_tree(c: &mut Criterion) {
    let ds = fasttext_like(&GeneratorConfig::new(5000, 16, 8, 1));
    let mut group = c.benchmark_group("cover_tree");
    group.sample_size(10);
    for workers in [1usize, 2] {
        group.bench_function(format!("build_5k_{workers}w"), |b| {
            b.iter(|| black_box(CoverTree::build_with_workers(&ds, workers)))
        });
    }
    // down to the partitioner's ratio cut (0.05 · |D|) only
    group.bench_function("build_5k_ratio", |b| {
        b.iter(|| black_box(CoverTree::build_for_regions(&ds, 250)))
    });
    let tree = CoverTree::build(&ds);
    let q = ds.row(17).to_vec();
    group.bench_function("range_count", |b| {
        b.iter(|| black_box(tree.range_count(black_box(&q), black_box(2.0))))
    });
    group.finish();
}

/// The benchmark's partitioning of a fixture: K = 3 clusters of cover-tree
/// regions cut at 0.05 · |D|, Euclidean.
const BALL_STORE_K: usize = 3;
const BALL_STORE_RATIO: f64 = 0.05;

/// One dataset's cover-tree ball store two ways: `compact` as
/// `Partitioning::build` makes it — a region's ball that a bigger ball of
/// its cluster covers is not stored — and `every`, the store before that,
/// with the ball of every region.
struct BallStores {
    ds: Dataset,
    compact: Partitioning,
    every: Partitioning,
}

fn ball_store_build(ds: &Dataset) -> Partitioning {
    let method = PartitionMethod::CoverTree {
        ratio: BALL_STORE_RATIO,
    };
    Partitioning::build(ds, DistanceKind::Euclidean, method, BALL_STORE_K, 42)
}

/// The frozen "before": every region's ball, the regions merged greedily
/// as the partitioner merges them (largest first, each into the cluster
/// that is smallest so far), laid out by hand as `Partitioning::save`
/// lays a snapshot out and loaded — `load` stores what it is given.
fn every_region_stored(ds: &Dataset) -> Partitioning {
    let cut = ((ds.len() as f64 * BALL_STORE_RATIO).ceil() as usize).max(1);
    let tree = CoverTree::build_for_regions(ds, cut);
    let mut regions = tree.regions(cut);
    regions.sort_by_key(|r| std::cmp::Reverse(r.members.len()));
    let k = BALL_STORE_K.min(regions.len().max(1));
    let mut sizes = vec![0usize; k];
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut assignments = vec![0u64; ds.len()];
    for (r, region) in regions.iter().enumerate() {
        let target = (0..k).min_by_key(|&c| sizes[c]).expect("k > 0");
        sizes[target] += region.members.len();
        for &m in &region.members {
            assignments[m] = target as u64;
        }
        clusters[target].push(r);
    }
    let mut s = Vec::new();
    s.extend((k as u64).to_le_bytes());
    s.extend([0u8, 0u8]); // Euclidean, cover tree
    s.extend(BALL_STORE_RATIO.to_le_bytes());
    s.extend((assignments.len() as u64).to_le_bytes());
    assignments.iter().for_each(|a| s.extend(a.to_le_bytes()));
    s.extend((k as u64).to_le_bytes());
    for cluster in &clusters {
        s.extend((cluster.len() as u64).to_le_bytes());
        for &r in cluster {
            s.extend((ds.dim() as u64).to_le_bytes());
            let centre = ds.row(regions[r].center);
            centre.iter().for_each(|c| s.extend(c.to_le_bytes()));
            s.extend(regions[r].radius.to_le_bytes());
        }
    }
    Partitioning::load(&mut s.as_slice()).expect("a well-formed stream")
}

fn ball_stores(ds: Dataset) -> BallStores {
    let (compact, every) = (ball_store_build(&ds), every_region_stored(&ds));
    assert_eq!(compact.assignments(), every.assignments());
    BallStores { ds, compact, every }
}

impl BallStores {
    /// The two stores by name, the frozen one first.
    fn sides(&self) -> [(&'static str, &Partitioning); 2] {
        [("every", &self.every), ("compact", &self.compact)]
    }

    /// A query whose ball meets the first (biggest) ball of every
    /// cluster, and one that meets none, so every block is walked.
    fn hit_and_miss(&self) -> [(&'static str, Vec<f32>, f32); 2] {
        [
            ("hit", self.ds.row(17).to_vec(), 1e4),
            ("miss", vec![1e3; self.ds.dim()], 0.1),
        ]
    }

    /// The first `rows` records: what a refresh is timed over.
    fn head(&self, rows: usize) -> Dataset {
        let dim = self.ds.dim();
        Dataset::from_flat(dim, self.ds.flat()[..rows * dim].to_vec())
    }
}

fn save_load(p: &Partitioning) -> usize {
    let mut bytes = Vec::new();
    p.save(&mut bytes).expect("write to memory");
    let back = Partitioning::load(&mut bytes.as_slice()).expect("own bytes load");
    black_box(back.k());
    bytes.len()
}

/// `refresh_assignments` on a copy of `p`. Over no records it is the pass
/// that decides which balls a store keeps and nothing else: on the store
/// of every region, the work the partitioner's store phase does.
fn refreshed(p: &Partitioning, records: &Dataset) -> usize {
    let mut p = p.clone();
    p.refresh_assignments(records);
    p.region_counts().iter().sum()
}

/// Rows a `ball_store` refresh runs over.
const REFRESH_ROWS: usize = 2000;

fn bench_ball_store(c: &mut Criterion) {
    // the benchmark's small fixture; the paper one is the recorder's
    let stores = ball_stores(fasttext_like(&GeneratorConfig::new(20_000, 24, 16, 7)));
    let mut group = c.benchmark_group("ball_store");
    group.sample_size(10);
    group.bench_function("build_small", |b| {
        b.iter(|| black_box(ball_store_build(&stores.ds)))
    });
    let (none, head) = (stores.head(0), stores.head(REFRESH_ROWS));
    let mut flags = Vec::new();
    for (side, p) in stores.sides() {
        group.bench_function(format!("save_load_small_{side}"), |b| {
            b.iter(|| black_box(save_load(p)))
        });
        for (query, x, t) in stores.hit_and_miss() {
            group.bench_function(format!("indicator_{query}_small_{side}"), |b| {
                b.iter(|| {
                    p.indicator_into(black_box(&x), t, &mut flags);
                    black_box(flags.len())
                })
            });
        }
        for (what, records) in [("compaction", &none), ("refresh", &head)] {
            group.bench_function(format!("{what}_small_{side}"), |b| {
                b.iter(|| black_box(refreshed(p, records)))
            });
        }
    }
    group.finish();
}

/// One empty two-way fork-join: a scope, one spawn, one join — the cost
/// `selnet_tensor::parallel::FORK_MIN_WORK` is derived from.
fn fork_join_once() {
    selnet_tensor::parallel::fork_join(vec![0u8, 1], |part| {
        black_box(part);
    });
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(20);
    group.bench_function("fork_join_2way_empty", |b| b.iter(fork_join_once));
    group.finish();
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

/// What labelling did with a column before this PR: sort all of it.
fn column_sort(column: &mut [f32]) -> f32 {
    column.sort_unstable_by(by_distance);
    column[LABEL_COLUMN.1 - 1]
}

/// What `NearestColumns::finish` does with it: select the top rank, sort
/// that prefix, count the ties of the rank's value among the rest.
fn column_select(column: &mut [f32]) -> (f32, usize) {
    let rank = LABEL_COLUMN.1;
    let (_, &mut top, beyond) = column.select_nth_unstable_by(rank - 1, by_distance);
    let ties = beyond.iter().filter(|&&d| d == top).count();
    column[..rank].sort_unstable_by(by_distance);
    (column[rank - 1], ties)
}

fn bench_label_column(c: &mut Criterion) {
    let column = label_column();
    let mut scratch = column.clone();
    let mut group = c.benchmark_group("label_column");
    group.sample_size(10);
    group.bench_function("sort_50k", |b| {
        b.iter(|| {
            scratch.copy_from_slice(&column);
            black_box(column_sort(&mut scratch))
        })
    });
    group.bench_function("select_50k_rank500", |b| {
        b.iter(|| {
            scratch.copy_from_slice(&column);
            black_box(column_select(&mut scratch))
        })
    });
    group.finish();
}

fn bench_pwl(c: &mut Criterion) {
    let tau: Vec<f32> = (0..52).map(|i| i as f32 / 51.0).collect();
    let p: Vec<f32> = (0..52).map(|i| (i * i) as f32).collect();
    let pwl = PiecewiseLinear::new(tau.clone(), p.clone());
    let mut group = c.benchmark_group("pwl_head");
    group.bench_function("eval_scalar", |b| {
        b.iter(|| black_box(pwl.eval(black_box(0.73))))
    });
    group.bench_function("eval_tape_batch256", |b| {
        let ts: Vec<f32> = (0..256).map(|i| i as f32 / 256.0).collect();
        b.iter(|| {
            let mut g = Graph::new();
            let tauv = g.leaf(Matrix::row_vector(&tau));
            let pv = g.leaf(Matrix::row_vector(&p));
            let tv = g.leaf(Matrix::col_vector(&ts));
            black_box(g.pwl_interp(tauv, pv, tv))
        })
    });
    group.finish();
}

fn bench_train_epoch(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);
    group.bench_function("tiny_1epoch", |b| {
        b.iter(|| black_box(selnet_core::fit(&ds, &w, &cfg)))
    });
    group.finish();
}

/// The tape of one §5.3 joint step, rebuilt from the public parts
/// (`core::partitioned::joint_step` is private): the shared code `z_x`,
/// `K = 3` control-point networks on `[x; z_x]`, the PWL heads, the local
/// losses, the indicator-masked global loss and the reconstruction term.
///
/// Two batches of it: `record` is the step as training assembled it up to
/// PR 19, one network row per `(x, t)` pair — kept verbatim as the
/// "before"; `record_curves` is the step training runs now, one network
/// row per object and `gather_rows` out to its `JOINT_LADDER` pairs.
struct JointStep {
    cfg: selnet_core::SelNetConfig,
    store: ParamStore,
    ae: selnet_core::Autoencoder,
    locals: Vec<selnet_core::ControlPointNets>,
    x: Matrix,
    /// Thresholds, log labels and one indicator column per partition.
    columns: Vec<Matrix>,
    /// The curve batch: one row per object ...
    objects: Matrix,
    /// ... the row of `objects` each of its pairs expands from ...
    pair_rows: Vec<usize>,
    /// ... and `columns` again, one row per pair of the curve batch.
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
        let rows = cfg.batch_size;
        let x = Matrix::from_fn(rows, dim, |i, j| {
            ((i * 7 + j * 13) % 31) as f32 * 0.05 - 0.7
        });
        let column = |scale: f32| Matrix::from_fn(rows, 1, |i, _| (i % 17) as f32 * scale);
        let mut columns = vec![column(JOINT_TMAX / 17.0), column(0.3)];
        columns.extend((0..JOINT_K).map(|k| Matrix::from_fn(rows, 1, |i, _| ((i + k) % 2) as f32)));
        // the objects `SelNetConfig::batch_size` works out to on this ladder
        let objects = (rows as f64 / JOINT_LADDER as f64).round() as usize;
        let pair_rows: Vec<usize> = (0..objects * JOINT_LADDER)
            .map(|pair| pair / JOINT_LADDER)
            .collect();
        let pair_columns = columns
            .iter()
            .map(|c| Matrix::from_fn(pair_rows.len(), 1, |i, _| c.get(i % rows, 0)))
            .collect();
        JointStep {
            cfg,
            store,
            ae,
            locals,
            objects: x.slice_rows(0, objects),
            pair_rows,
            pair_columns,
            x,
            columns,
        }
    }

    fn record(&self, g: &mut Graph) -> Var {
        let cfg = &self.cfg;
        g.reset();
        let xv = g.leaf_ref(&self.x);
        let tv = g.leaf_ref(&self.columns[0]);
        let yv = g.leaf_ref(&self.columns[1]);
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
        for (nets, ind) in self.locals.iter().zip(&self.columns[2..]) {
            let (tau, p) = nets.control_points(g, &self.store, input, JOINT_TMAX, true);
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
        let ae = g.mean(sq);
        let ae = g.scale(ae, cfg.lambda_ae);
        loss = g.add(loss, ae);
        loss
    }

    /// `record` on a batch of whole objects: encoder, local models and
    /// reconstruction run on the object rows, `gather_rows` hands every
    /// pair its object's `(τ, p)`, and heads, losses and masks are per pair
    /// as in `record`.
    fn record_curves(&self, g: &mut Graph) -> Var {
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

    /// Forward, one of the two sweeps, Adam.
    fn step(&mut self, g: &mut Graph, opt: &mut Adam, params_only: bool) -> f32 {
        let loss = self.record(g);
        if params_only {
            g.backward_params(loss);
        } else {
            g.backward(loss);
        }
        let val = g.value(loss).get(0, 0);
        let grads = g.param_grad_refs();
        opt.step_refs(&mut self.store, &grads);
        val
    }

    /// `step` on the curve batch, as training runs it: parameters-only
    /// sweep.
    fn step_curves(&mut self, g: &mut Graph, opt: &mut Adam) -> f32 {
        let loss = self.record_curves(g);
        g.backward_params(loss);
        let val = g.value(loss).get(0, 0);
        let grads = g.param_grad_refs();
        opt.step_refs(&mut self.store, &grads);
        val
    }
}

/// `(name, fixture)`: the benchmark's paper-shaped model (d = 300, default
/// widths, 256 rows) and its small one (d = 24, `tiny()`, 96 rows).
fn joint_fixtures() -> [(&'static str, JointStep); 2] {
    use selnet_core::SelNetConfig;
    [
        ("paper", JointStep::new(SelNetConfig::default(), 300)),
        ("tiny", JointStep::new(SelNetConfig::tiny(), 24)),
    ]
}

/// The Adam update as it stood before PR 16, kept as the "before" of
/// `adam_ns_per_param`: a four-way `zip` that reads the hyper-parameters
/// and the clip decision through `self` per element. The moment stores
/// may alias those fields for all the compiler knows, so they are reloaded
/// every iteration and the loop stays scalar.
struct ZipAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: Option<f32>,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl ZipAdam {
    fn new(lr: f32, clip: f32) -> Self {
        ZipAdam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: Some(clip),
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, id: usize, shape: (usize, usize)) {
        if self.m.len() <= id {
            self.m.resize_with(id + 1, || None);
            self.v.resize_with(id + 1, || None);
        }
        if self.m[id].is_none() {
            self.m[id] = Some(Matrix::zeros(shape.0, shape.1));
            self.v[id] = Some(Matrix::zeros(shape.0, shape.1));
        }
    }

    fn step_refs(&mut self, store: &mut ParamStore, grads: &[(selnet_tensor::ParamId, &Matrix)]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for &(id, g) in grads {
            self.ensure_state(id.index(), g.shape());
            let m = self.m[id.index()].as_mut().expect("state ensured");
            let v = self.v[id.index()].as_mut().expect("state ensured");
            let p = store.value_mut(id);
            for (((pv, mv), vv), &graw) in p
                .data_mut()
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(g.data())
            {
                let gv = match self.clip {
                    Some(c) => graw.clamp(-c, c),
                    None => graw,
                };
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
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

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for (name, mut fx) in joint_fixtures() {
        for (sweep, params_only) in [("full_sweep", false), ("params_only", true)] {
            let mut g = Graph::new();
            let mut opt = Adam::new(1e-3).with_clip(1.0);
            group.bench_function(format!("joint_{name}_{sweep}"), |b| {
                b.iter(|| black_box(fx.step(&mut g, &mut opt, params_only)))
            });
        }
        let mut g = Graph::new();
        let mut opt = Adam::new(1e-3).with_clip(1.0);
        group.bench_function(format!("curves_{name}_params_only"), |b| {
            b.iter(|| black_box(fx.step_curves(&mut g, &mut opt)))
        });
    }
    let (mut store, id, grad) = adam_fixture();
    let mut zip_store = store.clone();
    let mut zip = ZipAdam::new(1e-3, 1.0);
    group.bench_function("adam_128k_zip_before", |b| {
        b.iter(|| zip.step_refs(black_box(&mut zip_store), &[(id, &grad)]))
    });
    let mut opt = Adam::new(1e-3).with_clip(1.0);
    group.bench_function("adam_128k_indexed", |b| {
        b.iter(|| opt.step_refs(black_box(&mut store), &[(id, &grad)]))
    });
    group.finish();
}

fn bench_ground_truth(c: &mut Criterion) {
    let ds = fasttext_like(&GeneratorConfig::new(10_000, 24, 8, 2));
    let q = ds.row(3).to_vec();
    let mut group = c.benchmark_group("ground_truth");
    group.sample_size(10);
    group.bench_function("sorted_distances_10k_d24", |b| {
        b.iter(|| {
            black_box(selnet_workload::sorted_distances(
                &ds,
                black_box(&q),
                DistanceKind::Euclidean,
            ))
        })
    });
    group.finish();
}

/// Re-times the headline kernels with a plain wall-clock loop and rewrites
/// `BENCH_substrate.json` (repo root). Opt-in via `SELNET_BENCH_RECORD=1`
/// so ordinary `cargo bench` / CI runs never touch the tree; the frozen
/// `seed` numbers inside the JSON are the pre-optimization measurements
/// and are preserved verbatim by this recorder.
fn bench_record(_c: &mut Criterion) {
    if std::env::var("SELNET_BENCH_RECORD").as_deref() != Ok("1") {
        return;
    }
    use std::time::Instant;
    // best-of-samples mean, in milliseconds
    fn time_ms(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm up
        let mut best = f64::MAX;
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e3 / iters as f64);
        }
        best
    }

    let a = Matrix::from_fn(256, 256, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b = Matrix::from_fn(256, 256, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    let naive = time_ms(10, 10, || {
        black_box(a.matmul_naive(&b));
    });
    let blocked_1t = time_ms(10, 10, || {
        black_box(a.matmul_threaded(&b, 1));
    });
    let blocked_4t = time_ms(10, 10, || {
        black_box(a.matmul_threaded(&b, 4));
    });
    let at_b_1t = time_ms(10, 10, || {
        black_box(a.matmul_at_b_threaded(&b, 1));
    });
    let a_bt_1t = time_ms(10, 10, || {
        black_box(a.matmul_a_bt_threaded(&b, 1));
    });

    // tape overhead at batch 16 (the small-batch regime the ROADMAP
    // flags): fresh graph per step vs reused arena
    let (mut store, net, bx, by) = tape_fixture(16);
    let mut opt = Sgd::new(1e-3);
    let tape_fresh = time_ms(10, 50, || {
        let mut g = Graph::new();
        black_box(tape_step(&mut g, &mut store, &mut opt, &net, &bx, &by));
    });
    let (mut store, net, bx, by) = tape_fixture(16);
    let mut opt = Sgd::new(1e-3);
    let mut g = Graph::new();
    let tape_reused = time_ms(10, 50, || {
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
    let train_epoch = time_ms(5, 3, || {
        black_box(selnet_core::fit(&ds, &w, &cfg));
    });

    // the parallel matmul dispatcher's scaling curve at the 256² control
    // shape (2^24 multiply-adds: below the fork gate's two workers' worth,
    // so flat at every thread count) and at 512² (eight workers' worth)
    let mm_scaling: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            time_ms(10, 10, || {
                black_box(a.matmul_threaded(&b, t));
            })
        })
        .collect();
    let a512 = Matrix::from_fn(512, 512, |i, j| ((i * 31 + j * 17) % 97) as f32 * 0.01);
    let b512 = Matrix::from_fn(512, 512, |i, j| ((i * 13 + j * 29) % 89) as f32 * 0.01);
    let mm512_scaling: Vec<f64> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            time_ms(10, 4, || {
                black_box(a512.matmul_threaded(&b512, t));
            })
        })
        .collect();

    // one empty two-way fork-join, back to back (the second core awake)
    // and after 2 ms of sleep each (the vCPU has to be woken): the number
    // `parallel::FORK_MIN_WORK` is derived from
    let fork_join_us = time_ms(10, 200, fork_join_once) * 1e3;
    let fork_join_idle_us = (0..40)
        .map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let t = Instant::now();
            fork_join_once();
            t.elapsed().as_secs_f64() * 1e6
        })
        .sum::<f64>()
        / 40.0;

    // a label column of 50 000 distances: fully sorted against selected
    // at the ladder's top rank
    let column = label_column();
    let mut scratch = column.clone();
    let column_copy = time_ms(5, 20, || {
        scratch.copy_from_slice(&column);
        black_box(&scratch);
    });
    let sort_ms = time_ms(5, 20, || {
        scratch.copy_from_slice(&column);
        black_box(column_sort(&mut scratch));
    }) - column_copy;
    let select_ms = time_ms(5, 20, || {
        scratch.copy_from_slice(&column);
        black_box(column_select(&mut scratch));
    }) - column_copy;

    // gemm yardstick: hand kernel vs naive reference per serving shape
    let gemm_lines: Vec<String> = GEMM_SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let (ga, gb) = gemm_fixture(m, k, n);
            let hand = time_ms(10, 50, || {
                black_box(ga.matmul_threaded(&gb, 1));
            });
            let naive_ref = time_ms(10, 50, || {
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
            let pair = per_distance(time_ms(5, iters, || {
                black_box(pair_scan(black_box(&rows), &x));
            }));
            let block = per_distance(time_ms(5, iters, || {
                black_box(block_scan(black_box(&blocks), &x));
            }));
            let [first, never] = [0.0, f32::INFINITY].map(|limit| {
                per_distance(time_ms(5, iters, || {
                    black_box(bounded_scan(black_box(&blocks), &x, limit));
                }))
            });
            let xs = rows_fixture(&x);
            let xs: [&[f32]; ROWS] = std::array::from_fn(|r| xs[r].as_slice());
            let rows4 = per_distance(time_ms(5, iters.div_ceil(ROWS), || {
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
    let build_5k = time_ms(10, 2, || {
        black_box(CoverTree::build_with_workers(&ds5k, 1));
    });
    let build_5k_2w = time_ms(10, 2, || {
        black_box(CoverTree::build_with_workers(&ds5k, 2));
    });
    // the benchmark's paper fixture, to full depth and to the ratio cut
    // the partitioner passes (0.05 · |D|), on the default workers: a
    // build is most of a second, so best of three
    let ds50k = fasttext_like(&GeneratorConfig::new(50_000, 300, 16, 7));
    let build_50k = time_ms(3, 1, || {
        black_box(CoverTree::build(&ds50k));
    });
    let build_50k_ratio = time_ms(3, 1, || {
        black_box(CoverTree::build_for_regions(&ds50k, 2500));
    });

    // the ball store at the benchmark's two fixtures: every region's ball
    // (before, from the hand-written stream) against the uncovered ones
    let small = fasttext_like(&GeneratorConfig::new(20_000, 24, 16, 7));
    let ball_store_lines: Vec<String> = [("paper", ds50k, 3), ("small", small, 10)]
        .into_iter()
        .map(|(name, ds, samples)| {
            let build = time_ms(samples, 1, || {
                black_box(ball_store_build(&ds));
            });
            let stores = ball_stores(ds);
            let (none, head) = (stores.head(0), stores.head(REFRESH_ROWS));
            let mut flags = Vec::new();
            let sides: Vec<String> = stores
                .sides()
                .into_iter()
                .map(|(side, p)| {
                    let balls: usize = p.region_counts().iter().sum();
                    let bytes = save_load(p);
                    let save_load_ms = time_ms(5, 2, || {
                        black_box(save_load(p));
                    });
                    let [hit, miss] = stores.hit_and_miss().map(|(_, x, t)| {
                        time_ms(5, 2000, || {
                            p.indicator_into(black_box(&x), t, &mut flags);
                            black_box(flags.len());
                        }) * 1e6
                    });
                    let [compaction, refresh] = [&none, &head].map(|records| {
                        time_ms(samples, 1, || {
                            black_box(refreshed(p, records));
                        })
                    });
                    format!(
                        r#""{side}": {{ "balls": {balls}, "snapshot_bytes": {bytes}, "save_load_ms": {save_load_ms:.2}, "indicator_hit_ns": {hit:.0}, "indicator_miss_ns": {miss:.0}, "compaction_ms": {compaction:.2}, "refresh_{REFRESH_ROWS}_rows_ms": {refresh:.1} }}"#
                    )
                })
                .collect();
            format!(
                r#"    "{name}": {{ "records": {n}, "dim": {dim}, "build_ms": {build:.1},
      {every},
      {compact} }}"#,
                n = stores.ds.len(),
                dim = stores.ds.dim(),
                every = sides[0],
                compact = sides[1],
            )
        })
        .collect();
    let ball_store_block = ball_store_lines.join(",\n");

    // the §5.3 joint step: full sweep vs parameters-only, the pair batch vs
    // the curve batch, in microseconds, and the Adam loop per parameter,
    // before (zip) and after (indexed)
    let train_step_lines: Vec<String> = joint_fixtures()
        .into_iter()
        .map(|(name, mut fx)| {
            let iters = if name == "paper" { 5 } else { 200 };
            let [full, only] = [false, true].map(|params_only| {
                let mut g = Graph::new();
                let mut opt = Adam::new(1e-3).with_clip(1.0);
                time_ms(7, iters, || {
                    black_box(fx.step(&mut g, &mut opt, params_only));
                }) * 1e3
            });
            let curves = {
                let mut g = Graph::new();
                let mut opt = Adam::new(1e-3).with_clip(1.0);
                time_ms(7, iters * 4, || {
                    black_box(fx.step_curves(&mut g, &mut opt));
                }) * 1e3
            };
            let (rows, pairs) = (fx.cfg.batch_size, fx.pair_rows.len());
            let (per_pair_before, per_pair) = (only / rows as f64, curves / pairs as f64);
            format!(
                r#"    "joint_{name}_k3": {{ "rows": {rows}, "params": {params}, "full_sweep_us": {full:.1}, "params_only_us": {only:.1}, "full_vs_params_only": {ratio:.2} }},
    "curves_{name}_k3": {{ "objects": {objects}, "pairs": {pairs}, "step_us": {curves:.1}, "us_per_pair": {per_pair:.2}, "pair_step_us_per_pair": {per_pair_before:.2}, "pair_vs_curves_per_pair": {gain:.1} }}"#,
                params = fx.store.num_scalars(),
                ratio = full / only,
                objects = fx.objects.rows(),
                gain = per_pair_before / per_pair
            )
        })
        .collect();
    let train_step_block = train_step_lines.join(",\n");
    let (mut adam_store, adam_id, adam_grad) = adam_fixture();
    let mut zip_store = adam_store.clone();
    let mut zip = ZipAdam::new(1e-3, 1.0);
    let per_param = |ms: f64| ms * 1e6 / ADAM_PARAMS as f64;
    let adam_before = per_param(time_ms(10, 20, || {
        zip.step_refs(black_box(&mut zip_store), &[(adam_id, &adam_grad)]);
    }));
    let mut adam = Adam::new(1e-3).with_clip(1.0);
    let adam_after = per_param(time_ms(10, 20, || {
        adam.step_refs(black_box(&mut adam_store), &[(adam_id, &adam_grad)]);
    }));

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
  "cover_tree": {{
    "build_5k_insertion_ms": 4.1826,
    "build_5k_ms": {build_5k:.4},
    "build_5k_2w_ms": {build_5k_2w:.4},
    "speedup_vs_insertion": {speedup_ct:.2},
    "build_50k_d300_ms": {build_50k:.1},
    "build_50k_d300_ratio_ms": {build_50k_ratio:.1}
  }},
  "ball_store": {{
{ball_store_block}
  }},
  "label_column": {{
    "records": {column_n},
    "rank": {column_rank},
    "sort_ms": {sort_ms:.4},
    "select_ms": {select_ms:.4},
    "sort_vs_select": {sort_vs_select:.2}
  }},
  "train_step": {{
{train_step_block},
    "adam_ns_per_param": {{ "params": {adam_params}, "zip_before": {adam_before:.2}, "indexed": {adam_after:.2}, "before_vs_after": {adam_ratio:.2} }}
  }},
  "notes": "seed/pr2 numbers were taken on a single-vCPU container; the 4t entries only show parallel gains on multi-core hosts (the kernels are bit-identical across thread counts either way). The tape_* pair isolates per-step tape overhead: same model, same data, fresh Graph per step vs one reused arena. The scaling block is the parallel matmul dispatcher's per-thread curve at the 256² control shape; the gemm block is the hand-tiled kernel vs the naive ikj reference per serving shape (hand_vs_naive > 1 means the hand kernel wins), recorded on machine_cpus cores. The distance block is nanoseconds per distance of one query against `vectors` vectors, `vectors::squared_euclidean` pair by pair vs `LaneBlocks::sqdist_into` sixteen at a time (bit-identical lanes), over 32 vectors (cached) and over 60 MB of them (streamed); bounded_first_stride_ns and bounded_never_ns are `LaneBlocks::sqdist_within` under limits every lane is beyond after the first 32 coordinates, and limits nothing is ever beyond (at d = 24, a single stride, the kernel never looks and both are the block kernel), rows4_ns is `LaneBlocks::sqdist_rows_into`, four queries per pass over a block, per distance. cover_tree.build_5k_insertion_ms is frozen: sequential insertion on the pair kernel, the build before PR 14, best of 10 on the host that recorded build_5k_ms; build_5k_ms is the batch build on one worker, build_5k_2w_ms the same tree routed by two (80 000 coordinates: far below the size `CoverTree::build` goes parallel at); build_50k_d300_ms and build_50k_d300_ratio_ms are the best of three builds each of the benchmark's paper fixture (50 000 x 300) on the default workers, to full depth (`CoverTree::build`) and down to the partitioner's ratio cut (`build_for_regions`, subtrees of at most 2 500 points left flat). The parallel block is one empty two-way `parallel::fork_join` (a scope, one spawn, one join) in microseconds, back to back and after 2 ms of sleep each (the second vCPU has to be woken), beside the gate derived from it: `parallel::FORK_MIN_WORK` elementary operations per engaged worker. Under it the 256² scaling curve (2^24 multiply-adds in all) never forks and is flat by construction; 512² is eight workers' worth and does fork — where speedup_512_2t_vs_1t reads about 1.0 the recording host's two vCPUs share one core's vector units, so a compute-bound kernel gains nothing from the second while a latency-bound scan (the N=50 000 cover-tree build, 1.25 → 0.67 s) halves. The label_column block is one column of `records` distances fully sorted (labelling before PR 15) against `select_nth_unstable` at `rank`, a sort of that prefix and a tie count over the rest (`NearestColumns::finish`), the copy that refills the column subtracted from both. The train_step block is one §5.3 joint step (forward, backward sweep, Adam with clip) on a reused tape, K = 3 local models, at the benchmark's paper shape (d = 300, default widths, 256 rows) and its small one (d = 24, tiny(), 96 rows), in microseconds: `Graph::backward` (every leaf live — what training ran before PR 16) against `Graph::backward_params` (only what a parameter needs; same parameter bits); adam_ns_per_param is one clipped Adam update of `params` parameters per parameter, the four-way zip that reads its hyper-parameters and the clip decision through `self` per element (before, kept verbatim in the bench) against the indexed loop (after; same bits). The curves_* rows are that joint step on the batch training assembles since PR 21: `objects` whole query objects with 20 thresholds each (what `batch_size` works out to on the benchmark's ladder), the encoder, the local models and the reconstruction term on the object rows, `Graph::gather_rows` out to `pairs` rows for the PWL heads, losses and masks, parameters-only sweep, Adam; `us_per_pair` is `step_us / pairs` and `pair_step_us_per_pair` is `params_only_us / rows` of the pair batch above it — one network row per (x, t), kept verbatim in the bench as the before; training no longer builds it. Not the 20x the row count suggests: at 13 rows the first-layer GEMMs are skinny, and the Adam update of `params` parameters, the per-pair heads and the tape's fixed costs do not shrink with the rows. The ball_store block is a cover-tree partitioning's ball store (K = 3, ratio 0.05, Euclidean) at the benchmark's two fixtures, two ways: `every` holds the ball of every region the ratio cut exports — the store before PR 23, written in the bench as a snapshot stream by hand (the partitioner's greedy merge kept verbatim) and loaded, since `Partitioning::load` stores what it is given — and `compact` is what `Partitioning::build` stores since: no ball that a bigger ball of its own cluster covers (same indicator flags, same refreshed assignments). build_ms is `Partitioning::build`, tree included; save_load_ms one `save` into a fresh Vec plus one `load` of it; indicator_hit_ns one `indicator_into` whose query ball meets the first (biggest) ball of every cluster, indicator_miss_ns one that meets no ball, so that every block of every cluster is walked (abandoned after the first 32 coordinates at d = 300); compaction_ms is `refresh_assignments` over no records on a copy of the store — the pass that decides which balls a store keeps, and on `every` the work the partitioner's store phase does (52-68 ms inside the build by a scratch timer; the plain copy it replaced 24 ms); refresh_2000_rows_ms is `refresh_assignments` over the first 2 000 records on a copy (on `every` that is the scan before PR 23 plus one compaction_ms)."
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
        adam_params = ADAM_PARAMS,
        adam_ratio = adam_before / adam_after,
        column_n = LABEL_COLUMN.0,
        column_rank = LABEL_COLUMN.1,
        sort_vs_select = sort_ms / select_ms,
        speedup_mm = 2.0667 / blocked_1t.min(blocked_4t),
        speedup_te = 3.3017 / train_epoch,
        speedup_pr2 = 1.3914 / train_epoch,
        speedup_tape = tape_fresh / tape_reused,
        speedup_ct = 4.1826 / build_5k,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    std::fs::write(path, json).expect("write BENCH_substrate.json");
    println!("\nrecorded substrate numbers to {path}");
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gemm,
    bench_tape,
    bench_distance,
    bench_cover_tree,
    bench_ball_store,
    bench_parallel,
    bench_label_column,
    bench_pwl,
    bench_train_epoch,
    bench_train_step,
    bench_ground_truth,
    bench_record
);
criterion_main!(benches);
