//! The substrate's three yardsticks: the fork-join primitive and the gate
//! derived from it (`parallel`), the hand-tiled gemm against the naive
//! reference per serving shape (`gemm`), and the distance layer's pair
//! kernel against its block kernels, in cache and streamed (`distance`).
//! Everything above the substrate — generator, cover tree, ball store,
//! labelling, training — is timed end to end by the repository's
//! benchmark (`benchmark/`, per-layer metrics in `BENCHMARK.json`).
//!
//! One timing pass: `cargo bench -p selnet-bench --bench substrate` prints
//! the JSON block it measured, `SELNET_BENCH_RECORD=1` also rewrites
//! `BENCH_substrate.json` at the repo root, and `-- --test` runs each
//! closure once and checks the block's keys against the file (see
//! `selnet_bench::timing::Pass`).
//! See `crates/bench/README.md` for the workflow.

use selnet_bench::timing::Pass;
use selnet_metric::vectors::{squared_euclidean, LaneBlocks, LANES, ROWS};
use selnet_tensor::Matrix;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// The serving shapes the skinny-kernel tuning targets: a coalesced wave
/// is 64 rows through layers of width 16–64, nothing like the square
/// 256² control. `(m, k, n)` for `A(m×k) · B(k×n)`.
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

/// One empty two-way fork-join: a scope, one spawn, one join — the cost
/// `selnet_tensor::parallel::FORK_MIN_WORK` is derived from.
fn fork_join_once() {
    selnet_tensor::parallel::fork_join(vec![0u8, 1], |part| {
        black_box(part);
    });
}

fn main() -> ExitCode {
    let pass = Pass::from_args();

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

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        r#"{{
  "description": "Substrate yardsticks: the fork-join primitive and the gate derived from it (parallel), the hand-tiled gemm vs the naive reference per serving shape (gemm), and the distance layer's pair kernel vs its block kernels (distance); latest SELNET_BENCH_RECORD=1 run of `cargo bench -p selnet-bench --bench substrate`. Times in milliseconds unless a key names its unit (best-of-samples mean). Everything above the substrate is timed end to end by `benchmark/` (BENCHMARK.json).",
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
  "notes": "The parallel block is one empty two-way `parallel::fork_join` (a scope, one spawn, one join) in microseconds, back to back and after 2 ms of sleep each (the second vCPU has to be woken), beside the gate derived from it: `parallel::FORK_MIN_WORK` elementary operations per engaged worker (the derivation is the constant's doc comment). The gemm block is the hand-tiled kernel (`Matrix::matmul_threaded` on one thread) vs the naive ikj reference (`Matrix::matmul_naive`, bit-identical) per serving shape m x k x n (hand_vs_naive > 1 means the hand kernel wins), recorded on machine_cpus cores; 256x256x256 is the control shape the tiling was built for, the multiply-adds per nanosecond FORK_MIN_WORK is derived from. The distance block is nanoseconds per distance of one query against `vectors` vectors, `vectors::squared_euclidean` pair by pair vs `LaneBlocks::sqdist_into` sixteen at a time (bit-identical lanes), over 32 vectors (cached) and over 60 MB of them (streamed); bounded_first_stride_ns and bounded_never_ns are `LaneBlocks::sqdist_within` under limits every lane is beyond after the first 32 coordinates, and limits nothing is ever beyond (at d = 24, a single stride, the kernel never looks and both are the block kernel), rows4_ns is `LaneBlocks::sqdist_rows_into`, four queries per pass over a block, per distance."
}}
"#,
        fork_min_work = selnet_tensor::parallel::FORK_MIN_WORK,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    pass.finish(path, &json)
}
