//! Grad-free **compiled inference plans**: record a forward pass once on a
//! [`Graph`] probe tape, compile it to a flat instruction list, and replay
//! it per batch with none of the autodiff machinery.
//!
//! The serving hot path (the paper's §4–§5 query-time contract) is pure
//! forward evaluation, yet a tape replay still pays for everything training
//! needs: per-node gradient buffers, `Op` metadata writes, parameter
//! re-injection (a copy of every weight matrix *per call*), and slot
//! bookkeeping. An [`InferencePlan`] strips all of that out:
//!
//! * **compile once per model generation** — [`InferencePlan::compile`]
//!   walks a recorded probe tape, dead-code-eliminates nodes the outputs
//!   don't need, **bakes parameter and constant leaves into the plan**
//!   (no per-call injection), and fuses adjacent
//!   `matmul → add_row_vec → activation` triples into single affine
//!   instructions;
//! * **replay allocation-free** — [`InferencePlan::run`] executes the
//!   instruction list into a caller-provided [`PlanBuffers`] arena whose
//!   matrices keep their capacity across calls, for any batch row count;
//! * **bit-identical by construction** — every instruction calls the same
//!   `fwd` kernels the tape ops call (and the fused affine performs exactly
//!   the tape's `matmul`, `+bias`, `activation` scalar sequence), so a plan
//!   replay produces the same bits as the tape forward pass. The property
//!   suite (`tests/plan_properties.rs`) pins this over random networks,
//!   shapes, and batch sizes.
//!
//! ## The pass pipeline
//!
//! Compilation is a sequence of passes over one lowering state (see
//! [`InferencePlan::compile_with`]): **capture** validates the declared
//! inputs against the probe tape; **DCE** computes reachability and use
//! counts from the outputs; **lower/fuse** emits one symbolic instruction
//! per surviving node, baking parameters and fusing
//! `matmul → add_row_vec → activation` chains; **buffer assignment**
//! resolves node ids to dense arena slots; and finally the
//! **precision-lowering** passes rewrite baked weights according to a
//! [`PlanPrecision`] — fused int8 per-channel quantization or magnitude
//! pruning into CSR sparse instructions.
//! `PlanPrecision::Exact` skips the lossy passes entirely, so it is
//! bit-identical to the tape by construction; the lossy modes keep the
//! paper's §4 monotonicity-in-`t` guarantee structurally (the perturbed
//! weights still feed non-negative increment activations ahead of the
//! prefix sum) and their drift is pinned by accuracy-contract tests in
//! `selnet-core`.
//!
//! ## Row scaling
//!
//! A plan is compiled from a probe tape recorded at some **probe batch
//! size** `B0` and replayed at any row count: every slot is classified as
//! *batch-scaled* (rows follow the run's row count) or *fixed* (rows are
//! whatever the probe recorded). Classification propagates from the
//! declared inputs through the op semantics; a constant leaf whose row
//! count equals `B0` (with `B0 >= 2`) is treated as a batch-broadcast
//! constant — its rows must be bit-identical, and the plan replicates the
//! single stored row to the run's row count. Compile with `B0 >= 2` so
//! batch-scaled slots are distinguishable from genuine one-row constants.

use crate::fwd;
use crate::graph::{Graph, Node, Op, Var};
use crate::matrix::Matrix;

/// Why a tape could not be compiled into an [`InferencePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inference plan compile error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

fn err<T>(msg: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError(msg.into()))
}

/// Numeric precision a plan is lowered to by the compiler's
/// precision-lowering passes (see [`InferencePlan::compile_with`]).
///
/// `Exact` replays the tape arithmetic bit for bit; the lossy modes trade
/// accuracy for arithmetic. All modes preserve the §4 monotonicity-in-`t`
/// guarantee structurally: lowering only perturbs baked weights, and the
/// control-point increments those weights produce still pass through
/// non-negative activations ahead of the prefix sum, so ordinates stay
/// non-decreasing under any weight perturbation.
///
/// Equality and hashing go through the canonical [`PlanPrecision::code`],
/// so `Pruned` thresholds compare by bit pattern (usable as a cache-key
/// component).
#[derive(Clone, Copy, Debug, Default)]
pub enum PlanPrecision {
    /// Full f32 — bit-identical to the tape forward pass.
    #[default]
    Exact,
    /// Symmetric int8 per-channel quantization of baked affine weights
    /// (one scale per output channel, `scale_j = max_i |w[i][j]| / 127`)
    /// with f32 accumulation, executed by a fused dot-product kernel.
    Int8,
    /// Magnitude pruning: weights with `|w| < threshold * max|w|` (per
    /// matrix) are zeroed; sufficiently sparse results lower to a CSR
    /// sparse-affine instruction, the rest stay dense.
    Pruned {
        /// Relative magnitude cut-off in `[0, 1)`, as a fraction of the
        /// matrix's largest absolute weight.
        threshold: f32,
    },
}

impl PlanPrecision {
    /// A canonical 64-bit code: the variant tag in the high 32 bits, the
    /// pruning threshold's f32 bit pattern in the low 32. Stable across
    /// runs and processes — the form cache keys and snapshots store. Tag
    /// `1` belonged to the deleted `bf16` mode and is retired, never
    /// reused.
    pub fn code(self) -> u64 {
        match self {
            PlanPrecision::Exact => 0,
            PlanPrecision::Int8 => 2 << 32,
            PlanPrecision::Pruned { threshold } => (3 << 32) | u64::from(threshold.to_bits()),
        }
    }

    /// Inverse of [`PlanPrecision::code`]; `None` for codes no variant
    /// produces (e.g. read from a corrupt snapshot). The retired `bf16`
    /// code `1 << 32` reads back as `Exact`: that mode stored and streamed
    /// f32 weights, so exact replay is what an old snapshot asking for it
    /// gets.
    pub fn from_code(code: u64) -> Option<PlanPrecision> {
        let low = (code & 0xFFFF_FFFF) as u32;
        match (code >> 32, low) {
            (0, 0) | (1, 0) => Some(PlanPrecision::Exact),
            (2, 0) => Some(PlanPrecision::Int8),
            (3, bits) => Some(PlanPrecision::Pruned {
                threshold: f32::from_bits(bits),
            }),
            _ => None,
        }
    }
}

impl PartialEq for PlanPrecision {
    fn eq(&self, other: &Self) -> bool {
        self.code() == other.code()
    }
}

impl Eq for PlanPrecision {}

impl std::hash::Hash for PlanPrecision {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.code().hash(state);
    }
}

impl std::fmt::Display for PlanPrecision {
    /// Renders the token [`std::str::FromStr`] parses back: `exact`,
    /// `int8`, or `pruned:<threshold>`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanPrecision::Exact => write!(f, "exact"),
            PlanPrecision::Int8 => write!(f, "int8"),
            PlanPrecision::Pruned { threshold } => write!(f, "pruned:{threshold}"),
        }
    }
}

impl std::str::FromStr for PlanPrecision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(PlanPrecision::Exact),
            "int8" => Ok(PlanPrecision::Int8),
            other => match other.strip_prefix("pruned:") {
                Some(t) => {
                    let threshold: f32 = t
                        .parse()
                        .map_err(|_| format!("bad pruning threshold {t:?}"))?;
                    if !(0.0..1.0).contains(&threshold) {
                        return Err(format!("pruning threshold {threshold} outside [0, 1)"));
                    }
                    Ok(PlanPrecision::Pruned { threshold })
                }
                None => Err(format!(
                    "unknown precision {other:?} (expected exact|int8|pruned:THRESHOLD)"
                )),
            },
        }
    }
}

/// How a slot's row count behaves across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowSpec {
    /// Rows follow the `rows` argument of [`InferencePlan::run`].
    Batch,
    /// Rows are fixed at the probe-recorded count.
    Fixed(usize),
}

impl RowSpec {
    fn resolve(self, rows: usize) -> usize {
        match self {
            RowSpec::Batch => rows,
            RowSpec::Fixed(n) => n,
        }
    }
}

/// An instruction operand: either a run-time buffer slot or a baked
/// constant (parameter / constant leaf).
#[derive(Clone, Copy, Debug)]
enum Arg {
    Buf(u32),
    Const(u32),
}

/// Elementwise unary ops (also usable as the fused-affine activation).
#[derive(Clone, Copy, Debug)]
enum UnOp {
    Relu,
    LeakyRelu(f32),
    EluPlusOne,
    Softplus,
    Sigmoid,
    Tanh,
    Exp,
    LnEps(f32),
    Abs,
    Square,
    Scale(f32),
    AddScalar(f32),
    Huber(f32),
}

impl UnOp {
    /// `out = f(a)` elementwise, with the variant match resolved **once
    /// per instruction**: each arm monomorphizes
    /// [`fwd::unary_map`] with a concrete scalar closure, so the
    /// per-element loop vectorizes exactly like the tape's closures do.
    fn run(self, a: &Matrix, out: &mut Matrix) {
        match self {
            UnOp::Relu => fwd::unary_map(a, out, fwd::relu),
            UnOp::LeakyRelu(al) => fwd::unary_map(a, out, |x| fwd::leaky_relu(x, al)),
            UnOp::EluPlusOne => fwd::unary_map(a, out, fwd::elu_plus_one),
            UnOp::Softplus => fwd::unary_map(a, out, fwd::softplus),
            UnOp::Sigmoid => fwd::unary_map(a, out, fwd::sigmoid),
            UnOp::Tanh => fwd::unary_map(a, out, f32::tanh),
            UnOp::Exp => fwd::unary_map(a, out, fwd::exp_clamped),
            UnOp::LnEps(eps) => fwd::unary_map(a, out, |x| fwd::ln_eps(x, eps)),
            UnOp::Abs => fwd::unary_map(a, out, f32::abs),
            UnOp::Square => fwd::unary_map(a, out, |x| x * x),
            UnOp::Scale(al) => fwd::unary_map(a, out, |x| x * al),
            UnOp::AddScalar(c) => fwd::unary_map(a, out, |x| x + c),
            UnOp::Huber(d) => fwd::unary_map(a, out, |x| fwd::huber(x, d)),
        }
    }

    /// In-place `out[i][j] = f(out[i][j] + bias[j])` — the fused affine
    /// tail, monomorphized per variant like [`UnOp::run`]. The exact path
    /// keeps this as a separate cache-hot pass after `matmul_into` (its
    /// output is bit-pinned by the plan-identity suite and the pass costs
    /// little); the quantized replay instead folds the same arithmetic
    /// into its own padded microkernel's writeback ([`quant_axpy_band`]),
    /// which is where its throughput edge over exact comes from.
    fn run_bias_act(self, bias: &Matrix, out: &mut Matrix) {
        match self {
            UnOp::Relu => bias_act(bias, out, fwd::relu),
            UnOp::LeakyRelu(al) => bias_act(bias, out, |x| fwd::leaky_relu(x, al)),
            UnOp::EluPlusOne => bias_act(bias, out, fwd::elu_plus_one),
            UnOp::Softplus => bias_act(bias, out, fwd::softplus),
            UnOp::Sigmoid => bias_act(bias, out, fwd::sigmoid),
            UnOp::Tanh => bias_act(bias, out, f32::tanh),
            UnOp::Exp => bias_act(bias, out, fwd::exp_clamped),
            UnOp::LnEps(eps) => bias_act(bias, out, |x| fwd::ln_eps(x, eps)),
            UnOp::Abs => bias_act(bias, out, f32::abs),
            UnOp::Square => bias_act(bias, out, |x| x * x),
            UnOp::Scale(al) => bias_act(bias, out, |x| x * al),
            UnOp::AddScalar(c) => bias_act(bias, out, |x| x + c),
            UnOp::Huber(d) => bias_act(bias, out, |x| fwd::huber(x, d)),
        }
    }
}

/// `out[i][j] = f(out[i][j] + bias[j])` over all rows — the second half of
/// a fused affine instruction, running on the cache-hot matmul output.
fn bias_act(bias: &Matrix, out: &mut Matrix, f: impl Fn(f32) -> f32) {
    let cols = bias.cols();
    let b = bias.data();
    for row in out.data_mut().chunks_exact_mut(cols) {
        for (o, &bv) in row.iter_mut().zip(b) {
            *o = f(*o + bv);
        }
    }
}

/// Accumulator bank width of the quantized-affine microkernel (one
/// AVX-512 register of `f32`, matching the shared tile kernel's lane
/// count); padded replay rows are multiples of this.
const QVW: usize = 16;
/// Rows per band of the quantized-affine microkernel (same height as the
/// shared tile kernel's row bands).
const QMR: usize = 6;
/// Widest output dimension the padded replay is kept for; wider affines
/// fall back to the shared (row-parallel) matmul.
const QUANT_PAD_MAX: usize = 128;

/// A baked weight matrix quantized to symmetric int8 with one scale per
/// output channel. `q` (row-major `in × out`) plus `scales` is the
/// canonical representation; `deq` is the f32 replay mirror in the same
/// `in × out` row-major orientation as the exact weight (entry
/// `[i][j] = q[i·out+j] · scales[j]`) — scalar CPUs have no i8 dot
/// product, so the dequantization happens once at lowering time and
/// execution keeps the f32 accumulation the mode promises.
///
/// `padded` is the performance trick the quantized path gets for free:
/// because the lowering *owns* its weight mirror (unlike the exact path,
/// whose shared baked constants are bit-pinned), it can repack `deq` with
/// each input-channel row zero-padded to the next multiple of [`QVW`].
/// The replay kernel then runs full-width register banks with the
/// bias+activation epilogue fused at writeback — the shared kernel's
/// per-call column-tail packing never runs and the separate epilogue
/// pass disappears — which is what keeps int8 throughput above exact on
/// the skinny serving shapes.
#[derive(Debug)]
struct QuantMatrix {
    q: Vec<i8>,
    scales: Vec<f32>,
    deq: Matrix,
    /// `(padded width, element offset, rows padded to that width)` when
    /// the output dimension is at most [`QUANT_PAD_MAX`]; `None` falls
    /// back to [`Matrix::matmul_into`] over `deq`. The offset cache-line-
    /// aligns the first weight row within the over-allocated buffer (a
    /// `Vec`'s natural alignment varies allocation to allocation, and a
    /// line-splitting weight stream slows every band of every replay for
    /// the life of the plan); it is fixed at quantization time so the
    /// packed rows stay addressable even if the buffer is later moved to
    /// memory with different alignment.
    padded: Option<(usize, usize, Vec<f32>)>,
}

impl QuantMatrix {
    fn quantize(w: &Matrix) -> QuantMatrix {
        let (rows, cols) = w.shape();
        let mut scales = vec![0.0f32; cols];
        for row in w.data().chunks_exact(cols) {
            for (s, &v) in scales.iter_mut().zip(row) {
                *s = s.max(v.abs());
            }
        }
        for s in &mut scales {
            *s /= 127.0;
        }
        let mut q = vec![0i8; rows * cols];
        for (qrow, row) in q.chunks_exact_mut(cols).zip(w.data().chunks_exact(cols)) {
            for ((qv, &v), &s) in qrow.iter_mut().zip(row).zip(&scales) {
                // an all-zero column has scale 0; its weights stay 0
                if s > 0.0 {
                    *qv = (v / s).round().clamp(-127.0, 127.0) as i8;
                }
            }
        }
        let mut deq = Matrix::default();
        deq.reset_shape(rows, cols);
        let d = deq.data_mut();
        for ((dv, &qv), &s) in d.iter_mut().zip(&q).zip(scales.iter().cycle()) {
            *dv = f32::from(qv) * s;
        }
        let padded = (cols <= QUANT_PAD_MAX).then(|| {
            let np = cols.next_multiple_of(QVW);
            let mut p = vec![0.0f32; rows * np + QVW - 1];
            let off = p.as_ptr().align_offset(64).min(QVW - 1);
            for (prow, drow) in p[off..off + rows * np]
                .chunks_exact_mut(np)
                .zip(d.chunks_exact(cols))
            {
                prow[..cols].copy_from_slice(drow);
            }
            (np, off, p)
        });
        QuantMatrix {
            q,
            scales,
            deq,
            padded,
        }
    }
}

/// Fused store of one accumulator bank: `out[i0+r][j0 + c] =
/// f(acc[r][c] + bias[j0 + c])` for the `min(QVW, n - j0)` real columns
/// the bank covers (trailing padding lanes are simply never written).
fn quant_store<const R: usize>(
    acc: &[[f32; QVW]; R],
    od: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    b: &[f32],
    f: &impl Fn(f32) -> f32,
) {
    let w = QVW.min(n - j0);
    for (r, acc_row) in acc.iter().enumerate() {
        let orow = &mut od[(i0 + r) * n + j0..(i0 + r) * n + j0 + w];
        for ((o, &a), &bv) in orow.iter_mut().zip(acc_row).zip(&b[j0..j0 + w]) {
            *o = f(a + bv);
        }
    }
}

/// One `R`-row band of the padded quantized-affine microkernel — the same
/// two-bank register tiling as the shared matmul kernel (two separate
/// `QVW`-wide accumulator arrays per row, reduction innermost, each
/// padded weight row loaded once per band and reused across all `R`
/// batch rows), with two differences the padded layout buys: the
/// column-tail packing never runs (the padded width is a multiple of
/// [`QVW`] by construction), and the bias+activation epilogue is applied
/// straight off the accumulators at writeback instead of in a separate
/// output pass. Per output element the reduction runs strictly in input
/// order — the same order as [`Matrix::matmul_into`] — so the result is
/// bit-identical to the fallback `matmul_into` + epilogue sequence;
/// padding lanes accumulate `x · 0` and are never written back.
#[allow(clippy::too_many_arguments)]
fn quant_axpy_band<const R: usize>(
    xd: &[f32],
    inner: usize,
    wp: &[f32],
    np: usize,
    b: &[f32],
    od: &mut [f32],
    n: usize,
    i0: usize,
    f: &impl Fn(f32) -> f32,
) {
    let mut xrows = [&xd[0..0]; R];
    for (r, row) in xrows.iter_mut().enumerate() {
        *row = &xd[(i0 + r) * inner..(i0 + r) * inner + inner];
    }
    let mut j0 = 0;
    while j0 + 2 * QVW <= np {
        let mut acc0 = [[0.0f32; QVW]; R];
        let mut acc1 = [[0.0f32; QVW]; R];
        for s in 0..inner {
            let row = &wp[s * np + j0..s * np + j0 + 2 * QVW];
            let b0: &[f32; QVW] = row[..QVW].try_into().expect("bank 0");
            let b1: &[f32; QVW] = row[QVW..].try_into().expect("bank 1");
            for r in 0..R {
                let xv = xrows[r][s];
                for c in 0..QVW {
                    acc0[r][c] += xv * b0[c];
                }
                for c in 0..QVW {
                    acc1[r][c] += xv * b1[c];
                }
            }
        }
        quant_store(&acc0, od, n, i0, j0, b, f);
        if j0 + QVW < n {
            quant_store(&acc1, od, n, i0, j0 + QVW, b, f);
        }
        j0 += 2 * QVW;
    }
    if j0 + QVW <= np && j0 < n {
        let mut acc = [[0.0f32; QVW]; R];
        for s in 0..inner {
            let bk: &[f32; QVW] = wp[s * np + j0..s * np + j0 + QVW]
                .try_into()
                .expect("single bank");
            for r in 0..R {
                let xv = xrows[r][s];
                for c in 0..QVW {
                    acc[r][c] += xv * bk[c];
                }
            }
        }
        quant_store(&acc, od, n, i0, j0, b, f);
    }
}

/// Runs the banded microkernel over all batch rows: full-height bands,
/// then ONE monomorphized band sized to the row remainder — sharing one
/// weight stream across all leftover rows instead of re-streaming the
/// whole weight matrix per row, worth ~10% on the serving plans, whose
/// batch sizes are rarely multiples of the band height. (The shared tile
/// kernel has since adopted the same remainder schedule — see
/// `saxpy_kernel` — which is bit-safe there too: banding never changes
/// any output element's reduction order.)
fn quant_axpy_fused(
    x: &Matrix,
    wp: &[f32],
    np: usize,
    bias: &Matrix,
    out: &mut Matrix,
    f: impl Fn(f32) -> f32,
) {
    let (m, inner) = x.shape();
    let n = bias.cols();
    let b = bias.data();
    let xd = x.data();
    let od = out.data_mut();
    let mut i0 = 0;
    while i0 + QMR <= m {
        quant_axpy_band::<QMR>(xd, inner, wp, np, b, od, n, i0, &f);
        i0 += QMR;
    }
    match m - i0 {
        0 => {}
        1 => quant_axpy_band::<1>(xd, inner, wp, np, b, od, n, i0, &f),
        2 => quant_axpy_band::<2>(xd, inner, wp, np, b, od, n, i0, &f),
        3 => quant_axpy_band::<3>(xd, inner, wp, np, b, od, n, i0, &f),
        4 => quant_axpy_band::<4>(xd, inner, wp, np, b, od, n, i0, &f),
        5 => quant_axpy_band::<5>(xd, inner, wp, np, b, od, n, i0, &f),
        _ => unreachable!("remainder bounded by QMR"),
    }
}

/// `act(x @ deq + b)` with the activation already resolved to a scalar
/// closure: the padded microkernel when the output width is at most
/// [`QUANT_PAD_MAX`], otherwise the same register-tiled matmul +
/// cache-hot epilogue sequence the exact [`Instr::Affine`] arm runs.
/// (Two designs measured and rejected on the serving shapes: a
/// hand-rolled per-output dot-product kernel ran ~4x slower than the
/// tiled matmul, and folding the epilogue into the *shared* tile
/// kernel's writeback lost ~20% by bloating its codegen. The padded
/// layout plus a quant-only clone of the tile kernel is what buys the
/// honest edge — see [`QuantMatrix`].)
fn quant_affine_fused(
    x: &Matrix,
    w: &QuantMatrix,
    bias: &Matrix,
    out: &mut Matrix,
    f: impl Fn(f32) -> f32,
) {
    match &w.padded {
        Some((np, off, p)) => quant_axpy_fused(x, &p[*off..], *np, bias, out, f),
        None => {
            x.matmul_into(&w.deq, out);
            bias_act(bias, out, f);
        }
    }
}

/// Dispatches [`quant_affine_fused`] with the activation resolved once
/// per instruction, monomorphizing the kernel per variant exactly like
/// [`UnOp::run_bias_act`].
fn quant_affine(x: &Matrix, w: &QuantMatrix, bias: &Matrix, act: Option<UnOp>, out: &mut Matrix) {
    match act {
        None => quant_affine_fused(x, w, bias, out, |v| v),
        Some(UnOp::Relu) => quant_affine_fused(x, w, bias, out, fwd::relu),
        Some(UnOp::LeakyRelu(al)) => {
            quant_affine_fused(x, w, bias, out, |v| fwd::leaky_relu(v, al))
        }
        Some(UnOp::EluPlusOne) => quant_affine_fused(x, w, bias, out, fwd::elu_plus_one),
        Some(UnOp::Softplus) => quant_affine_fused(x, w, bias, out, fwd::softplus),
        Some(UnOp::Sigmoid) => quant_affine_fused(x, w, bias, out, fwd::sigmoid),
        Some(UnOp::Tanh) => quant_affine_fused(x, w, bias, out, f32::tanh),
        Some(UnOp::Exp) => quant_affine_fused(x, w, bias, out, fwd::exp_clamped),
        Some(UnOp::LnEps(eps)) => quant_affine_fused(x, w, bias, out, |v| fwd::ln_eps(v, eps)),
        Some(UnOp::Abs) => quant_affine_fused(x, w, bias, out, f32::abs),
        Some(UnOp::Square) => quant_affine_fused(x, w, bias, out, |v| v * v),
        Some(UnOp::Scale(al)) => quant_affine_fused(x, w, bias, out, |v| v * al),
        Some(UnOp::AddScalar(c)) => quant_affine_fused(x, w, bias, out, |v| v + c),
        Some(UnOp::Huber(d)) => quant_affine_fused(x, w, bias, out, |v| fwd::huber(v, d)),
    }
}

/// CSR-over-input-channels form of a magnitude-pruned weight matrix: row
/// `k` holds the surviving `(output column, value)` pairs of input
/// channel `k`, so the kernel streams `out[i][·] += x[i][k] · row_k` like
/// the dense axpy it replaces, touching only the survivors.
#[derive(Debug)]
struct SparseMatrix {
    /// `row_ptr[k]..row_ptr[k+1]` spans input channel `k`'s entries.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl SparseMatrix {
    /// Builds the CSR form keeping entries with `|w| >= cut`.
    fn prune(w: &Matrix, cut: f32) -> SparseMatrix {
        let (rows, cols) = w.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for row in w.data().chunks_exact(cols) {
            for (j, &v) in row.iter().enumerate() {
                if v.abs() >= cut {
                    col_idx.push(j as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        SparseMatrix {
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Surviving (non-pruned) entry count.
    fn nnz(&self) -> usize {
        self.vals.len()
    }
}

/// `act(x @ w + b)` with a CSR weight: per batch row, zero the output
/// row, accumulate the surviving axpy terms, then run the same
/// bias+activation epilogue as the dense affine.
fn sparse_affine(x: &Matrix, w: &SparseMatrix, bias: &Matrix, act: Option<UnOp>, out: &mut Matrix) {
    let inner = x.cols();
    let cols = bias.cols();
    for (orow, xrow) in out
        .data_mut()
        .chunks_exact_mut(cols)
        .zip(x.data().chunks_exact(inner))
    {
        orow.fill(0.0);
        for (k, &xv) in xrow.iter().enumerate() {
            let span = w.row_ptr[k] as usize..w.row_ptr[k + 1] as usize;
            for (&j, &v) in w.col_idx[span.clone()].iter().zip(&w.vals[span]) {
                orow[j as usize] += xv * v;
            }
        }
    }
    match act {
        None => bias_act(bias, out, |v| v),
        Some(a) => a.run_bias_act(bias, out),
    }
}

/// Elementwise binary ops.
#[derive(Clone, Copy, Debug)]
enum BinOp {
    Add,
    Sub,
    Mul,
}

/// One compiled forward instruction. Operands are [`Arg`]s; `out` is
/// always a buffer slot written in execution order (so every operand's
/// buffer index is strictly below `out`).
#[derive(Clone, Copy, Debug)]
enum Instr {
    /// Replicates a baked single-row constant to the run's row count
    /// (batch-broadcast constant leaves, e.g. an all-zeros column).
    Broadcast {
        src: u32,
        out: u32,
    },
    /// Fused `act(x @ w + b)`; `act: None` is plain `x @ w + b`.
    Affine {
        x: Arg,
        w: Arg,
        b: Arg,
        act: Option<UnOp>,
        out: u32,
    },
    MatMul {
        a: Arg,
        b: Arg,
        out: u32,
    },
    AddRowVec {
        m: Arg,
        row: Arg,
        out: u32,
    },
    MulColVec {
        m: Arg,
        col: Arg,
        out: u32,
    },
    Binary {
        op: BinOp,
        a: Arg,
        b: Arg,
        out: u32,
    },
    Unary {
        op: UnOp,
        a: Arg,
        out: u32,
    },
    SoftmaxRows {
        a: Arg,
        out: u32,
    },
    Sum {
        a: Arg,
        out: u32,
    },
    Mean {
        a: Arg,
        out: u32,
    },
    RowSum {
        a: Arg,
        out: u32,
    },
    ConcatCols {
        a: Arg,
        b: Arg,
        out: u32,
    },
    SliceCols {
        a: Arg,
        start: u32,
        end: u32,
        out: u32,
    },
    CumsumCols {
        a: Arg,
        out: u32,
    },
    Norml2 {
        a: Arg,
        eps: f32,
        out: u32,
    },
    PwlInterp {
        tau: Arg,
        p: Arg,
        t: Arg,
        out: u32,
    },
    BlockLinear {
        input: Arg,
        weight: Arg,
        bias: Arg,
        out: u32,
    },
    Lattice {
        input: Arg,
        params: Arg,
        out: u32,
    },
    /// Fused `act(x @ deq(w) + b)` over an int8-quantized baked weight;
    /// `w` indexes the plan's quantized-constant table and accumulation
    /// stays f32. Produced only by the int8 precision pass.
    QuantAffine {
        x: Arg,
        w: u32,
        b: Arg,
        act: Option<UnOp>,
        out: u32,
    },
    /// `act(x @ w + b)` over a magnitude-pruned CSR weight; `w` indexes
    /// the plan's sparse-constant table. Produced only by the pruning
    /// precision pass when enough weights die to make CSR pay.
    SparseAffine {
        x: Arg,
        w: u32,
        b: Arg,
        act: Option<UnOp>,
        out: u32,
    },
}

impl Instr {
    fn out(&self) -> u32 {
        match *self {
            Instr::Broadcast { out, .. }
            | Instr::Affine { out, .. }
            | Instr::MatMul { out, .. }
            | Instr::AddRowVec { out, .. }
            | Instr::MulColVec { out, .. }
            | Instr::Binary { out, .. }
            | Instr::Unary { out, .. }
            | Instr::SoftmaxRows { out, .. }
            | Instr::Sum { out, .. }
            | Instr::Mean { out, .. }
            | Instr::RowSum { out, .. }
            | Instr::ConcatCols { out, .. }
            | Instr::SliceCols { out, .. }
            | Instr::CumsumCols { out, .. }
            | Instr::Norml2 { out, .. }
            | Instr::PwlInterp { out, .. }
            | Instr::BlockLinear { out, .. }
            | Instr::Lattice { out, .. }
            | Instr::QuantAffine { out, .. }
            | Instr::SparseAffine { out, .. } => out,
        }
    }
}

/// Reusable value-buffer arena for plan replays. One `PlanBuffers` serves
/// any number of plans (buffers are reshaped per run, keeping capacity);
/// a steady-state replay touches the allocator not at all. Not shareable
/// across threads mid-run — use [`PlanBuffers::with_pooled`] for a
/// zero-setup thread-local arena.
#[derive(Default)]
pub struct PlanBuffers {
    bufs: Vec<Matrix>,
}

impl PlanBuffers {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PlanBuffers::default()
    }

    /// Runs `f` with a **thread-local** arena whose buffers persist for
    /// the life of the thread — the inference mirror of
    /// [`Graph::with_pooled`]. Must not be nested (the arena is exclusively
    /// borrowed while `f` runs; nesting panics).
    pub fn with_pooled<R>(f: impl FnOnce(&mut PlanBuffers) -> R) -> R {
        use std::cell::RefCell;
        thread_local! {
            static POOLED: RefCell<PlanBuffers> = RefCell::new(PlanBuffers::new());
        }
        POOLED.with(|pool| {
            let mut b = pool.borrow_mut();
            f(&mut b)
        })
    }

    /// Runs `f` with an arena drawn from a **process-global keyed free
    /// list** — the arena pool behind [`InferencePlan::run_chunked`].
    ///
    /// Chunked replay workers are `std::thread::scope` threads that die at
    /// the end of every wave, so [`PlanBuffers::with_pooled`]'s
    /// thread-local arenas can never survive from one wave to the next.
    /// This pool survives instead: an arena is popped under a brief lock
    /// (or freshly created when the key's list is empty), used lock-free
    /// for the whole replay, and pushed back afterwards. Keying by plan
    /// (see [`InferencePlan::run_chunked`]) gives capacity affinity — a
    /// worker usually receives an arena whose matrices were last shaped by
    /// the same plan, so steady-state chunk replays stay allocation-free
    /// just like the thread-local path. If `f` panics the arena is simply
    /// dropped, never returned poisoned.
    pub fn with_keyed<R>(key: u64, f: impl FnOnce(&mut PlanBuffers) -> R) -> R {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        /// Arenas retained per key; beyond this, returns are dropped so a
        /// one-off wide fan-out can't pin memory forever.
        const KEYED_ARENA_CAP: usize = 64;
        static POOL: OnceLock<Mutex<HashMap<u64, Vec<PlanBuffers>>>> = OnceLock::new();
        let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
        let mut arena = pool
            .lock()
            .expect("keyed arena pool poisoned")
            .get_mut(&key)
            .and_then(Vec::pop)
            .unwrap_or_default();
        let r = f(&mut arena);
        let mut map = pool.lock().expect("keyed arena pool poisoned");
        let slot = map.entry(key).or_default();
        if slot.len() < KEYED_ARENA_CAP {
            slot.push(arena);
        }
        r
    }
}

/// Read-only view of a finished replay's outputs, borrowing the arena.
pub struct PlanOutputs<'a> {
    plan: &'a InferencePlan,
    bufs: &'a PlanBuffers,
    rows: usize,
}

impl PlanOutputs<'_> {
    /// The batch row count this replay ran at (a chunk's rows under
    /// [`InferencePlan::run_chunked`]).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The `i`-th output matrix (same order as the `outputs` slice given
    /// to [`InferencePlan::compile`]).
    pub fn output(&self, i: usize) -> &Matrix {
        match self.plan.outputs[i] {
            Arg::Buf(b) => &self.bufs.bufs[b as usize],
            Arg::Const(c) => &self.plan.consts[c as usize],
        }
    }
}

/// A compiled, immutable, grad-free forward program. Compile once per
/// model generation with [`InferencePlan::compile`]; replay with
/// [`InferencePlan::run`]. The plan owns baked copies of every parameter
/// and constant leaf, so it stays valid (and answers from exactly the
/// generation it was compiled from) even if the source model mutates —
/// callers invalidate by recompiling, typically keyed on
/// [`ParamStore::version`](crate::ParamStore::version).
#[derive(Debug)]
pub struct InferencePlan {
    instrs: Vec<Instr>,
    /// Baked parameter/constant values (and single rows of batch-broadcast
    /// constants).
    consts: Vec<Matrix>,
    /// `(RowSpec, cols)` per buffer slot, indexed by buffer id.
    buf_shapes: Vec<(RowSpec, usize)>,
    /// Buffer ids of the run-time inputs, in `compile`'s `inputs` order.
    input_bufs: Vec<u32>,
    /// `(RowSpec, cols)` per input, for shaping before the fill callback.
    input_shapes: Vec<(RowSpec, usize)>,
    outputs: Vec<Arg>,
    /// Int8-quantized weights produced by the precision-lowering pass;
    /// indexed by `Instr::QuantAffine`'s weight id.
    qconsts: Vec<QuantMatrix>,
    /// CSR weights produced by the pruning pass; indexed by
    /// `Instr::SparseAffine`'s weight id.
    sparse_consts: Vec<SparseMatrix>,
    /// The precision this plan was lowered to.
    precision: PlanPrecision,
    /// Whether every instruction is row-independent over the batch
    /// dimension — no instruction reduces batch-scaled data into a fixed
    /// shape — so replay may be split into row chunks bit-safely. Computed
    /// by the buffer-assignment pass.
    chunkable: bool,
    /// Counted multiply-add estimate **per batch row** of one replay
    /// (matmul/affine inner products dominate; elementwise ops count one
    /// per output element). Drives the chunked-replay engagement
    /// threshold — see [`InferencePlan::replay_threads`].
    flops_per_row: usize,
    /// Process-unique id keying this plan's arenas in
    /// [`PlanBuffers::with_keyed`] (capacity affinity across waves).
    arena_key: u64,
}

/// Per-node classification produced during compilation.
#[derive(Clone, Copy)]
enum NodeVal {
    /// Not yet assigned (unreached).
    None,
    /// Resolves to a baked constant.
    Const(u32),
    /// Resolves to a computed/bound buffer, identified by node id until
    /// buffer ids are assigned in the final pass.
    Node,
}

impl InferencePlan {
    /// Compiles the live tape of `g` into a plan.
    ///
    /// * `inputs` — leaves to re-bind on every run, each with a flag:
    ///   `true` = batch-scaled (rows follow the run's row count; all such
    ///   inputs must share the probe row count `B0`), `false` = fixed rows
    ///   as recorded on the probe tape.
    /// * `outputs` — the nodes whose values [`PlanOutputs::output`]
    ///   exposes. Nodes no output depends on are eliminated.
    ///
    /// Errors when a referenced `Var` is stale, an input is not a plain
    /// constant leaf, batch inputs disagree on the probe row count, or row
    /// scaling cannot be propagated consistently (e.g. an elementwise op
    /// mixing a batch-scaled and a fixed operand).
    pub fn compile(
        g: &Graph,
        inputs: &[(Var, bool)],
        outputs: &[Var],
    ) -> Result<InferencePlan, PlanError> {
        InferencePlan::compile_with(g, inputs, outputs, PlanPrecision::Exact)
    }

    /// [`compile`](InferencePlan::compile) with an explicit precision:
    /// runs the shared pipeline (capture → DCE → lower/fuse → buffer
    /// assignment), then the precision-lowering pass `precision` selects.
    /// `PlanPrecision::Exact` skips the lowering pass entirely, so it is
    /// bit-identical to [`compile`](InferencePlan::compile).
    pub fn compile_with(
        g: &Graph,
        inputs: &[(Var, bool)],
        outputs: &[Var],
        precision: PlanPrecision,
    ) -> Result<InferencePlan, PlanError> {
        // flight-recorder hook: inert unless the process-global recorder
        // was armed (e.g. selnet-serve --trace-buffer)
        let mut span = selnet_obs::trace::global().span("plan_compile", 0);
        let nodes = g.live_nodes();
        let b0 = pass_capture(nodes, inputs, outputs)?;
        let dce = pass_dce(nodes, outputs);
        let lowered = pass_lower(nodes, inputs, b0, &dce)?;
        let mut plan = pass_assign_buffers(nodes, inputs, outputs, precision, lowered)?;
        pass_precision(&mut plan);
        span.set_detail(plan.instrs.len() as u64, plan.outputs.len() as u64);
        Ok(plan)
    }

    /// Number of run-time inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_bufs.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of compiled instructions (after dead-code elimination and
    /// affine fusion) — diagnostics for tests and benches.
    pub fn num_instructions(&self) -> usize {
        self.instrs.len()
    }

    /// The precision this plan was lowered to.
    pub fn precision(&self) -> PlanPrecision {
        self.precision
    }

    /// Number of affines the int8 pass lowered to quantized kernels.
    pub fn num_quantized(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::QuantAffine { .. }))
            .count()
    }

    /// Number of affines the pruning pass lowered to CSR kernels.
    pub fn num_sparse(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::SparseAffine { .. }))
            .count()
    }

    /// Bytes held by the canonical int8 representation (quantized weights
    /// plus per-channel scales) — the compressed footprint an int8
    /// snapshot would ship, reported for diagnostics.
    pub fn quantized_weight_bytes(&self) -> usize {
        self.qconsts
            .iter()
            .map(|q| q.q.len() + 4 * q.scales.len())
            .sum()
    }

    /// Surviving nonzero weight entries across all CSR-lowered affines.
    pub fn sparse_nnz(&self) -> usize {
        self.sparse_consts.iter().map(SparseMatrix::nnz).sum()
    }

    /// Replays the plan at `rows` batch rows.
    ///
    /// `fill` is called once per input (in `compile` order) with the
    /// input's zeroed, already-shaped buffer — write the batch data in
    /// place. Returns an accessor over the output matrices, which borrow
    /// `bufs` until dropped.
    pub fn run<'b>(
        &'b self,
        bufs: &'b mut PlanBuffers,
        rows: usize,
        mut fill: impl FnMut(usize, &mut Matrix),
    ) -> PlanOutputs<'b> {
        let _span = selnet_obs::trace::global()
            .span("plan_replay", 0)
            .detail(rows as u64, self.instrs.len() as u64);
        if bufs.bufs.len() < self.buf_shapes.len() {
            bufs.bufs
                .resize_with(self.buf_shapes.len(), Matrix::default);
        }
        for (k, &b) in self.input_bufs.iter().enumerate() {
            let (rspec, cols) = self.input_shapes[k];
            let m = &mut bufs.bufs[b as usize];
            m.reset_zero(rspec.resolve(rows), cols);
            fill(k, m);
        }
        for instr in &self.instrs {
            self.exec(instr, &mut bufs.bufs, rows);
        }
        PlanOutputs {
            plan: self,
            bufs,
            rows,
        }
    }

    /// Whether this plan's replay may be split into batch-row chunks: no
    /// instruction reduces batch-scaled data into a fixed shape (the
    /// `Sum`/`Mean` tape reductions are the only ops that do), so every
    /// batch row's bits are computed independently of every other row.
    pub fn chunkable(&self) -> bool {
        self.chunkable
    }

    /// Counted multiply-add estimate per batch row of one replay — the
    /// quantity [`InferencePlan::replay_threads`] derives its engagement
    /// threshold from.
    pub fn flops_per_row(&self) -> usize {
        self.flops_per_row
    }

    /// Worker threads a chunked replay of `rows` batch rows would engage:
    /// the resolved thread count (`requested` through
    /// [`crate::parallel::gated_threads`]: 1 inside a parallel region),
    /// capped so every engaged worker has at least
    /// [`crate::parallel::FORK_MIN_WORK`] counted muladds of work — the
    /// wave's total, since a wave is a whole plan of skinny products none
    /// of which would pass the gate alone — and at least one row.
    /// Non-chunkable plans always answer 1.
    pub fn replay_threads(&self, rows: usize, requested: usize) -> usize {
        if !self.chunkable || rows < 2 {
            return 1;
        }
        let work = rows.saturating_mul(self.flops_per_row.max(1));
        crate::parallel::gated_threads(requested, work).min(rows)
    }

    /// Replays the plan with the batch rows split into contiguous chunks
    /// across up to `threads` scoped worker threads (resolved via
    /// [`InferencePlan::replay_threads`]), **bit-identical to
    /// [`InferencePlan::run`] at every thread count**.
    ///
    /// Why bit-identity holds: chunk boundaries come from
    /// [`crate::parallel::chunk_ranges`] and depend only on `(rows,
    /// engaged threads)`; every chunk runs the same per-row kernels the
    /// serial replay runs (each output element's reduction order is
    /// unchanged — the kernels accumulate strictly in index order and
    /// never across rows); and plans where *any* instruction crosses rows
    /// are [`not chunkable`](InferencePlan::chunkable) and fall back to
    /// the serial path here. Fixed-shape (non-batch) instructions are
    /// recomputed per chunk from identical inputs — redundant arithmetic,
    /// identical bits.
    ///
    /// * `offsets` — `rows + 1` non-decreasing prefix offsets into `out`:
    ///   batch row `r` owns `out[offsets[r]..offsets[r + 1]]` (a query row
    ///   owns one slot per threshold; `0..=rows` gives one slot per row).
    ///   Each chunk writes the disjoint sub-slice of its rows.
    /// * `fill(input, first_row, m)` — like [`InferencePlan::run`]'s fill
    ///   but with the chunk's first global row, so batch-scaled inputs
    ///   copy rows `first_row..first_row + m.rows()`; fixed inputs must
    ///   ignore `first_row` and fill identically for every chunk.
    /// * `consume(first_row, outputs, chunk)` — scatter the chunk's
    ///   replay outputs (row `j` of a batch output is global row
    ///   `first_row + j`) into `chunk`, which starts at
    ///   `offsets[first_row]`.
    ///
    /// With one engaged thread this *is* the serial path:
    /// [`PlanBuffers::with_pooled`] arena, one `run`, one consume — the
    /// single-thread floors in `BENCH_serve.json` time this exact route.
    /// Engaged chunks (the first on the calling thread, see
    /// [`crate::parallel::fork_join`]) draw arenas from the plan-keyed
    /// [`PlanBuffers::with_keyed`] pool instead, since scoped workers die
    /// at wave end and thread-local arenas would never be reused.
    pub fn run_chunked<O, Fill, Consume>(
        &self,
        offsets: &[usize],
        threads: usize,
        out: &mut [O],
        fill: Fill,
        consume: Consume,
    ) where
        O: Send,
        Fill: Fn(usize, usize, &mut Matrix) + Sync,
        Consume: Fn(usize, PlanOutputs<'_>, &mut [O]) + Sync,
    {
        let rows = offsets.len().saturating_sub(1);
        let engaged = self.replay_threads(rows, threads);
        self.run_in_chunks(offsets, engaged, out, fill, consume)
    }

    /// [`InferencePlan::run_chunked`] on exactly `chunks` row chunks
    /// (fewer when there are fewer rows), whatever the gate would say.
    fn run_in_chunks<O, Fill, Consume>(
        &self,
        offsets: &[usize],
        chunks: usize,
        out: &mut [O],
        fill: Fill,
        consume: Consume,
    ) where
        O: Send,
        Fill: Fn(usize, usize, &mut Matrix) + Sync,
        Consume: Fn(usize, PlanOutputs<'_>, &mut [O]) + Sync,
    {
        let rows = offsets.len().saturating_sub(1);
        if rows == 0 {
            return;
        }
        assert_eq!(
            out.len(),
            offsets[rows] - offsets[0],
            "run_chunked: out must span the rows' offsets"
        );
        let ranges = crate::parallel::chunk_ranges(rows, chunks, 1);
        if ranges.len() <= 1 {
            PlanBuffers::with_pooled(|bufs| {
                let run = self.run(bufs, rows, |k, m| fill(k, 0, m));
                consume(0, run, out);
            });
            return;
        }
        let mut rest = out;
        let chunks: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                let (head, tail) =
                    std::mem::take(&mut rest).split_at_mut(offsets[end] - offsets[start]);
                rest = tail;
                (start, end, head)
            })
            .collect();
        crate::parallel::fork_join(chunks, |(start, end, head)| {
            PlanBuffers::with_keyed(self.arena_key, |bufs| {
                let run = self.run(bufs, end - start, |k, m| fill(k, start, m));
                consume(start, run, head);
            });
        });
    }

    fn exec(&self, instr: &Instr, bufs: &mut [Matrix], rows: usize) {
        let out_id = instr.out() as usize;
        let (rspec, cols) = self.buf_shapes[out_id];
        let (lower, rest) = bufs.split_at_mut(out_id);
        let out = &mut rest[0];
        out.reset_shape(rspec.resolve(rows), cols);
        let val = |a: Arg| -> &Matrix {
            match a {
                Arg::Buf(b) => &lower[b as usize],
                Arg::Const(c) => &self.consts[c as usize],
            }
        };
        match *instr {
            Instr::Broadcast { src, .. } => {
                let row = &self.consts[src as usize];
                if row.cols() == 1 {
                    out.fill(row.get(0, 0));
                } else {
                    for chunk in out.data_mut().chunks_exact_mut(row.cols()) {
                        chunk.copy_from_slice(row.row(0));
                    }
                }
            }
            Instr::Affine { x, w, b, act, .. } => {
                // exactly the tape's matmul → +bias → activation scalar
                // sequence, in one output buffer (the epilogue runs as a
                // cache-hot pass over the matmul result)
                val(x).matmul_into(val(w), out);
                let bias = val(b);
                match act {
                    None => bias_act(bias, out, |v| v),
                    Some(a) => a.run_bias_act(bias, out),
                }
            }
            Instr::MatMul { a, b, .. } => val(a).matmul_into(val(b), out),
            Instr::AddRowVec { m, row, .. } => fwd::add_row_vec(val(m), val(row), out),
            Instr::MulColVec { m, col, .. } => fwd::mul_col_vec(val(m), val(col), out),
            Instr::Binary { op, a, b, .. } => {
                let f = match op {
                    BinOp::Add => |x: f32, y: f32| x + y,
                    BinOp::Sub => |x: f32, y: f32| x - y,
                    BinOp::Mul => |x: f32, y: f32| x * y,
                };
                fwd::binary_zip(val(a), val(b), out, f)
            }
            Instr::Unary { op, a, .. } => op.run(val(a), out),
            Instr::SoftmaxRows { a, .. } => fwd::softmax_rows(val(a), out),
            Instr::Sum { a, .. } => {
                let s = val(a).sum() as f32;
                out.data_mut()[0] = s;
            }
            Instr::Mean { a, .. } => {
                let m = val(a).mean() as f32;
                out.data_mut()[0] = m;
            }
            Instr::RowSum { a, .. } => fwd::row_sum(val(a), out),
            Instr::ConcatCols { a, b, .. } => fwd::concat_cols(val(a), val(b), out),
            Instr::SliceCols { a, start, end, .. } => {
                fwd::slice_cols(val(a), start as usize, end as usize, out)
            }
            Instr::CumsumCols { a, .. } => fwd::cumsum_cols(val(a), out),
            Instr::Norml2 { a, eps, .. } => fwd::norml2(val(a), eps, out),
            Instr::PwlInterp { tau, p, t, .. } => {
                fwd::pwl_interp(val(tau), val(p), val(t), out, None)
            }
            Instr::BlockLinear {
                input,
                weight,
                bias,
                ..
            } => fwd::block_linear(val(input), val(weight), val(bias), out),
            Instr::Lattice { input, params, .. } => fwd::lattice(val(input), val(params), out),
            Instr::QuantAffine { x, w, b, act, .. } => {
                quant_affine(val(x), &self.qconsts[w as usize], val(b), act, out)
            }
            Instr::SparseAffine { x, w, b, act, .. } => {
                sparse_affine(val(x), &self.sparse_consts[w as usize], val(b), act, out)
            }
        }
    }
}

/// A symbolic instruction: operands are still *node ids*; buffer ids are
/// assigned after fusion.
#[derive(Clone, Copy, Debug)]
enum SymInstr {
    Broadcast {
        src: u32,
    },
    Affine {
        x: usize,
        w: usize,
        b: usize,
        act: Option<UnOp>,
    },
    MatMul {
        a: usize,
        b: usize,
    },
    AddRowVec {
        m: usize,
        row: usize,
    },
    MulColVec {
        m: usize,
        col: usize,
    },
    Binary {
        op: BinOp,
        a: usize,
        b: usize,
    },
    Unary {
        op: UnOp,
        a: usize,
    },
    SoftmaxRows {
        a: usize,
    },
    Sum {
        a: usize,
    },
    Mean {
        a: usize,
    },
    RowSum {
        a: usize,
    },
    ConcatCols {
        a: usize,
        b: usize,
    },
    SliceCols {
        a: usize,
        start: u32,
        end: u32,
    },
    CumsumCols {
        a: usize,
    },
    Norml2 {
        a: usize,
        eps: f32,
    },
    PwlInterp {
        tau: usize,
        p: usize,
        t: usize,
    },
    BlockLinear {
        input: usize,
        weight: usize,
        bias: usize,
    },
    Lattice {
        input: usize,
        params: usize,
    },
}

impl SymInstr {
    fn resolve(&self, out: u32, mut arg: impl FnMut(usize) -> Arg) -> Instr {
        match *self {
            SymInstr::Broadcast { src } => Instr::Broadcast { src, out },
            SymInstr::Affine { x, w, b, act } => Instr::Affine {
                x: arg(x),
                w: arg(w),
                b: arg(b),
                act,
                out,
            },
            SymInstr::MatMul { a, b } => Instr::MatMul {
                a: arg(a),
                b: arg(b),
                out,
            },
            SymInstr::AddRowVec { m, row } => Instr::AddRowVec {
                m: arg(m),
                row: arg(row),
                out,
            },
            SymInstr::MulColVec { m, col } => Instr::MulColVec {
                m: arg(m),
                col: arg(col),
                out,
            },
            SymInstr::Binary { op, a, b } => Instr::Binary {
                op,
                a: arg(a),
                b: arg(b),
                out,
            },
            SymInstr::Unary { op, a } => Instr::Unary { op, a: arg(a), out },
            SymInstr::SoftmaxRows { a } => Instr::SoftmaxRows { a: arg(a), out },
            SymInstr::Sum { a } => Instr::Sum { a: arg(a), out },
            SymInstr::Mean { a } => Instr::Mean { a: arg(a), out },
            SymInstr::RowSum { a } => Instr::RowSum { a: arg(a), out },
            SymInstr::ConcatCols { a, b } => Instr::ConcatCols {
                a: arg(a),
                b: arg(b),
                out,
            },
            SymInstr::SliceCols { a, start, end } => Instr::SliceCols {
                a: arg(a),
                start,
                end,
                out,
            },
            SymInstr::CumsumCols { a } => Instr::CumsumCols { a: arg(a), out },
            SymInstr::Norml2 { a, eps } => Instr::Norml2 {
                a: arg(a),
                eps,
                out,
            },
            SymInstr::PwlInterp { tau, p, t } => Instr::PwlInterp {
                tau: arg(tau),
                p: arg(p),
                t: arg(t),
                out,
            },
            SymInstr::BlockLinear {
                input,
                weight,
                bias,
            } => Instr::BlockLinear {
                input: arg(input),
                weight: arg(weight),
                bias: arg(bias),
                out,
            },
            SymInstr::Lattice { input, params } => Instr::Lattice {
                input: arg(input),
                params: arg(params),
                out,
            },
        }
    }
}

// ---------------------------------------------------------------------
// The pass pipeline. Each pass is a free function over the probe tape
// (`&[Node]`) or the partially-built plan; `compile_with` chains them.
// ---------------------------------------------------------------------

/// DCE facts shared by the later passes: which nodes any output depends
/// on, how many reachable consumers each node has (fusion legality), and
/// which nodes are plan outputs (fusion must not swallow them).
struct Dce {
    reachable: Vec<bool>,
    uses: Vec<usize>,
    is_output: Vec<bool>,
}

/// The lowering pass's product: per-node classification plus the fused
/// symbolic program, with operands still named by node id.
struct Lowered {
    spec: Vec<Option<RowSpec>>,
    vals: Vec<NodeVal>,
    consts: Vec<Matrix>,
    sym: Vec<Option<(SymInstr, usize)>>,
    input_nodes: Vec<Option<usize>>,
}

/// Capture pass: validates the probe tape against the requested
/// interface (live `Var`s, inputs are plain constant leaves) and reads
/// the probe batch row count `B0` off the batch-scaled inputs.
fn pass_capture(
    nodes: &[Node],
    inputs: &[(Var, bool)],
    outputs: &[Var],
) -> Result<Option<usize>, PlanError> {
    let n = nodes.len();
    for v in inputs
        .iter()
        .map(|(v, _)| *v)
        .chain(outputs.iter().copied())
    {
        if v.0 >= n {
            return err("stale Var (recorded before the last reset?)");
        }
    }
    let mut b0: Option<usize> = None;
    for &(v, batch) in inputs {
        if !matches!(nodes[v.0].op, Op::Leaf) {
            return err("plan inputs must be constant leaves");
        }
        if nodes[v.0].param.is_some() {
            return err("a parameter leaf cannot be a plan input");
        }
        if batch {
            let rows = nodes[v.0].value.rows();
            match b0 {
                None => b0 = Some(rows),
                Some(r) if r == rows => {}
                Some(r) => {
                    return err(format!(
                        "batch inputs disagree on probe rows: {r} vs {rows}"
                    ))
                }
            }
        }
    }
    Ok(b0)
}

/// Dead-code-elimination pass: reachability from the outputs, use counts
/// among reachable consumers, and the output set.
fn pass_dce(nodes: &[Node], outputs: &[Var]) -> Dce {
    let n = nodes.len();
    let mut reachable = vec![false; n];
    let mut stack: Vec<usize> = outputs.iter().map(|v| v.0).collect();
    while let Some(i) = stack.pop() {
        if reachable[i] {
            continue;
        }
        reachable[i] = true;
        nodes[i].op.for_each_input(|j| stack.push(j));
    }
    let mut uses = vec![0usize; n];
    for (i, node) in nodes.iter().enumerate() {
        if reachable[i] {
            node.op.for_each_input(|j| uses[j] += 1);
        }
    }
    let mut is_output = vec![false; n];
    for v in outputs {
        is_output[v.0] = true;
    }
    Dce {
        reachable,
        uses,
        is_output,
    }
}

/// Lowering pass: row-spec propagation, constant baking / batch
/// broadcasting, and symbolic instruction emission with affine +
/// activation fusion (via [`emit_op`]). The node-id → sym-index producer
/// map the fusion peephole needs is local to this pass.
fn pass_lower(
    nodes: &[Node],
    inputs: &[(Var, bool)],
    b0: Option<usize>,
    dce: &Dce,
) -> Result<Lowered, PlanError> {
    let n = nodes.len();
    let mut spec: Vec<Option<RowSpec>> = vec![None; n];
    let mut vals: Vec<NodeVal> = vec![NodeVal::None; n];
    let mut consts: Vec<Matrix> = Vec::new();
    // symbolic instrs: op template + output *node* id (buffer ids are
    // assigned after fusion)
    let mut sym: Vec<Option<(SymInstr, usize)>> = Vec::new();
    // node id -> index into `sym` (for fusion lookups)
    let mut producer: Vec<Option<usize>> = vec![None; n];
    let input_pos: std::collections::HashMap<usize, (usize, bool)> = inputs
        .iter()
        .enumerate()
        .map(|(k, &(v, batch))| (v.0, (k, batch)))
        .collect();
    let mut input_nodes: Vec<Option<usize>> = vec![None; inputs.len()];

    for i in 0..n {
        if !dce.reachable[i] {
            continue;
        }
        let node = &nodes[i];
        let (rows, cols) = node.value.shape();
        match node.op {
            Op::Leaf => {
                if let Some(&(k, batch)) = input_pos.get(&i) {
                    spec[i] = Some(if batch {
                        RowSpec::Batch
                    } else {
                        RowSpec::Fixed(rows)
                    });
                    vals[i] = NodeVal::Node;
                    input_nodes[k] = Some(i);
                } else if node.param.is_some() || Some(rows) != b0 || rows <= 1 {
                    // parameter or genuine fixed constant: bake it
                    spec[i] = Some(RowSpec::Fixed(rows));
                    let c = consts.len() as u32;
                    consts.push(node.value.clone());
                    vals[i] = NodeVal::Const(c);
                } else {
                    // constant leaf with the probe batch row count:
                    // batch-broadcast — rows must be bit-identical
                    let first = node.value.row(0);
                    for r in 1..rows {
                        if node.value.row(r) != first {
                            return err(
                                "constant leaf has probe-batch rows but non-identical row \
                                 contents; cannot batch-broadcast it",
                            );
                        }
                    }
                    spec[i] = Some(RowSpec::Batch);
                    let c = consts.len() as u32;
                    let mut row = Matrix::default();
                    row.reset_shape(1, cols);
                    row.data_mut().copy_from_slice(first);
                    consts.push(row);
                    vals[i] = NodeVal::Node;
                    producer[i] = Some(sym.len());
                    sym.push(Some((SymInstr::Broadcast { src: c }, i)));
                }
            }
            ref op => {
                let s = emit_op(
                    op,
                    i,
                    &spec,
                    &mut sym,
                    &mut producer,
                    &dce.uses,
                    &dce.is_output,
                )?;
                spec[i] = Some(s);
                vals[i] = NodeVal::Node;
            }
        }
    }
    Ok(Lowered {
        spec,
        vals,
        consts,
        sym,
        input_nodes,
    })
}

/// Buffer-assignment pass: gives inputs then surviving instruction
/// outputs dense buffer ids in execution order (so operand < out) and
/// resolves the symbolic program into the final [`InferencePlan`].
fn pass_assign_buffers(
    nodes: &[Node],
    inputs: &[(Var, bool)],
    outputs: &[Var],
    precision: PlanPrecision,
    lowered: Lowered,
) -> Result<InferencePlan, PlanError> {
    let Lowered {
        spec,
        vals,
        consts,
        sym,
        input_nodes,
    } = lowered;
    let n = nodes.len();
    let mut buf_of: Vec<Option<u32>> = vec![None; n];
    let mut buf_shapes: Vec<(RowSpec, usize)> = Vec::new();
    let mut input_bufs = Vec::with_capacity(inputs.len());
    let mut input_shapes = Vec::with_capacity(inputs.len());
    for (k, node) in input_nodes.iter().enumerate() {
        let i = node
            .ok_or_else(|| PlanError(format!("input {k} is unreachable from the plan outputs")))?;
        let id = buf_shapes.len() as u32;
        buf_of[i] = Some(id);
        let shape = (spec[i].expect("input classified"), nodes[i].value.cols());
        buf_shapes.push(shape);
        input_bufs.push(id);
        input_shapes.push(shape);
    }
    let mut instrs = Vec::with_capacity(sym.len());
    let arg_of = |i: usize, vals: &[NodeVal], buf_of: &[Option<u32>]| -> Arg {
        match vals[i] {
            NodeVal::Const(c) => Arg::Const(c),
            _ => Arg::Buf(buf_of[i].expect("operand buffer assigned before use")),
        }
    };
    for entry in sym.iter().flatten() {
        let (template, out_node) = entry;
        let id = buf_shapes.len() as u32;
        buf_of[*out_node] = Some(id);
        buf_shapes.push((
            spec[*out_node].expect("output classified"),
            nodes[*out_node].value.cols(),
        ));
        instrs.push(template.resolve(id, |i| arg_of(i, &vals, &buf_of)));
    }

    let outputs = outputs
        .iter()
        .map(|v| arg_of(v.0, &vals, &buf_of))
        .collect();

    let (chunkable, flops_per_row) = pass_cost(&instrs, &buf_shapes, &consts);
    Ok(InferencePlan {
        instrs,
        consts,
        buf_shapes,
        input_bufs,
        input_shapes,
        outputs,
        qconsts: Vec::new(),
        sparse_consts: Vec::new(),
        precision,
        chunkable,
        flops_per_row,
        arena_key: next_arena_key(),
    })
}

/// Hands out process-unique arena-pool keys, one per compiled plan (see
/// [`PlanBuffers::with_keyed`]). Monotonic, never reused.
fn next_arena_key() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Visits every operand [`Arg`] of an instruction (weights living in the
/// quantized/sparse side tables are baked constants, not args).
fn for_each_arg(instr: &Instr, mut f: impl FnMut(Arg)) {
    match *instr {
        Instr::Broadcast { .. } => {}
        Instr::Affine { x, w, b, .. } => {
            f(x);
            f(w);
            f(b);
        }
        Instr::MatMul { a, b, .. }
        | Instr::Binary { a, b, .. }
        | Instr::ConcatCols { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::AddRowVec { m, row, .. } => {
            f(m);
            f(row);
        }
        Instr::MulColVec { m, col, .. } => {
            f(m);
            f(col);
        }
        Instr::Unary { a, .. }
        | Instr::SoftmaxRows { a, .. }
        | Instr::Sum { a, .. }
        | Instr::Mean { a, .. }
        | Instr::RowSum { a, .. }
        | Instr::SliceCols { a, .. }
        | Instr::CumsumCols { a, .. }
        | Instr::Norml2 { a, .. } => f(a),
        Instr::PwlInterp { tau, p, t, .. } => {
            f(tau);
            f(p);
            f(t);
        }
        Instr::BlockLinear {
            input,
            weight,
            bias,
            ..
        } => {
            f(input);
            f(weight);
            f(bias);
        }
        Instr::Lattice { input, params, .. } => {
            f(input);
            f(params);
        }
        Instr::QuantAffine { x, b, .. } | Instr::SparseAffine { x, b, .. } => {
            f(x);
            f(b);
        }
    }
}

/// Cost/chunkability analysis over the resolved instruction stream.
///
/// **Chunkable** means every instruction is row-independent over the
/// batch dimension: an instruction whose output is `Fixed`-shaped while
/// any buffer operand is batch-scaled (the `Sum`/`Mean` reductions are
/// the only emitters of that shape) collapses rows across the chunk
/// boundary, so its plan must replay serially. Fixed-from-fixed
/// instructions are fine — each chunk recomputes them from identical
/// inputs and gets identical bits.
///
/// **flops_per_row** is the counted multiply-add estimate of one batch
/// row: inner-product ops count `inner × out_cols`, block-linear its
/// weight elements, PWL its knot scan, everything elementwise one per
/// output element. It is an engagement heuristic (the replay-threads
/// derivation below), not an exact FLOP audit — constants chosen so the
/// skinny serving shapes land where measurement says they should.
fn pass_cost(
    instrs: &[Instr],
    buf_shapes: &[(RowSpec, usize)],
    consts: &[Matrix],
) -> (bool, usize) {
    let arg_cols = |a: Arg| match a {
        Arg::Buf(b) => buf_shapes[b as usize].1,
        Arg::Const(c) => consts[c as usize].cols(),
    };
    let arg_elems = |a: Arg| match a {
        Arg::Buf(b) => {
            let (spec, cols) = buf_shapes[b as usize];
            match spec {
                RowSpec::Fixed(r) => r * cols,
                RowSpec::Batch => cols,
            }
        }
        Arg::Const(c) => {
            let (r, cl) = consts[c as usize].shape();
            r * cl
        }
    };
    let batch_buf = |a: Arg| matches!(a, Arg::Buf(b) if buf_shapes[b as usize].0 == RowSpec::Batch);
    let mut chunkable = true;
    let mut flops = 0usize;
    for instr in instrs {
        let (out_spec, out_cols) = buf_shapes[instr.out() as usize];
        let mut reads_batch = false;
        for_each_arg(instr, |a| reads_batch |= batch_buf(a));
        if matches!(out_spec, RowSpec::Fixed(_)) && reads_batch {
            chunkable = false;
        }
        if out_spec == RowSpec::Batch {
            flops += match *instr {
                Instr::Affine { x, .. }
                | Instr::QuantAffine { x, .. }
                | Instr::SparseAffine { x, .. } => arg_cols(x) * out_cols,
                Instr::MatMul { a, .. } => arg_cols(a) * out_cols,
                Instr::BlockLinear { weight, .. } => arg_elems(weight),
                Instr::Lattice { params, .. } => arg_elems(params).max(out_cols),
                Instr::PwlInterp { tau, .. } => arg_cols(tau) + out_cols,
                _ => out_cols,
            };
        }
    }
    (chunkable, flops)
}

/// Precision-lowering pass dispatcher: rewrites the resolved instruction
/// stream according to the plan's requested [`PlanPrecision`]. `Exact` is
/// the identity — the plan is left exactly as the shared pipeline built
/// it, which is what keeps `Exact` bit-identical to the historical
/// monolithic compiler.
fn pass_precision(plan: &mut InferencePlan) {
    match plan.precision {
        PlanPrecision::Exact => {}
        PlanPrecision::Int8 => pass_int8(plan),
        PlanPrecision::Pruned { threshold } => pass_pruned(plan, threshold),
    }
}

/// int8 pass: rewrites every affine with a baked weight into a
/// [`Instr::QuantAffine`] over a per-output-channel symmetric int8
/// [`QuantMatrix`], keeping accumulation in f32. Batch-bound or broadcast
/// weights (none exist in practice — weights are parameters) are left
/// alone, as are the non-affine ops.
fn pass_int8(plan: &mut InferencePlan) {
    for instr in &mut plan.instrs {
        let Instr::Affine {
            x,
            w: Arg::Const(c),
            b,
            act,
            out,
        } = *instr
        else {
            continue;
        };
        let q = QuantMatrix::quantize(&plan.consts[c as usize]);
        let id = plan.qconsts.len() as u32;
        plan.qconsts.push(q);
        *instr = Instr::QuantAffine {
            x,
            w: id,
            b,
            act,
            out,
        };
    }
}

/// Minimum zeroed-entry fraction for the pruning pass to lower a weight
/// into the CSR [`Instr::SparseAffine`] form; below it, a sparse replay
/// would be slower than the dense matmul it replaces, so the pass keeps
/// the dense kernel and just zeroes the pruned entries in a baked copy.
const SPARSE_LOWER_BAR: f32 = 0.5;

/// Magnitude-pruning pass: zeroes affine-weight entries with
/// `|w| < threshold · max|w|`; weights that come out sufficiently sparse
/// (≥ [`SPARSE_LOWER_BAR`] zeroed) are lowered into CSR
/// [`Instr::SparseAffine`] instructions, the rest stay dense with the
/// pruned entries zeroed in place.
fn pass_pruned(plan: &mut InferencePlan, threshold: f32) {
    for instr in &mut plan.instrs {
        let Instr::Affine {
            x,
            w: Arg::Const(c),
            b,
            act,
            out,
        } = *instr
        else {
            continue;
        };
        let w = &plan.consts[c as usize];
        let max_abs = w.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let cut = threshold * max_abs;
        let total = w.data().len();
        let zeroed = w.data().iter().filter(|v| v.abs() < cut).count();
        if total == 0 || (zeroed as f32) < SPARSE_LOWER_BAR * total as f32 {
            // not sparse enough to win with CSR: prune in a dense copy
            if zeroed > 0 {
                let mut pruned = w.clone();
                for v in pruned.data_mut() {
                    if v.abs() < cut {
                        *v = 0.0;
                    }
                }
                let id = plan.consts.len() as u32;
                plan.consts.push(pruned);
                *instr = Instr::Affine {
                    x,
                    w: Arg::Const(id),
                    b,
                    act,
                    out,
                };
            }
        } else {
            let sparse = SparseMatrix::prune(w, cut);
            let id = plan.sparse_consts.len() as u32;
            plan.sparse_consts.push(sparse);
            *instr = Instr::SparseAffine {
                x,
                w: id,
                b,
                act,
                out,
            };
        }
    }
}

/// The unary-op template for a tape op, if it is elementwise.
fn unop_of(op: &Op) -> Option<(UnOp, usize)> {
    Some(match *op {
        Op::Relu(a) => (UnOp::Relu, a),
        Op::LeakyRelu(a, alpha) => (UnOp::LeakyRelu(alpha), a),
        Op::EluPlusOne(a) => (UnOp::EluPlusOne, a),
        Op::Softplus(a) => (UnOp::Softplus, a),
        Op::Sigmoid(a) => (UnOp::Sigmoid, a),
        Op::Tanh(a) => (UnOp::Tanh, a),
        Op::Exp(a) => (UnOp::Exp, a),
        Op::LnEps(a, eps) => (UnOp::LnEps(eps), a),
        Op::Abs(a) => (UnOp::Abs, a),
        Op::Square(a) => (UnOp::Square, a),
        Op::Scale(a, alpha) => (UnOp::Scale(alpha), a),
        Op::AddScalar(a, c) => (UnOp::AddScalar(c), a),
        Op::Huber(a, delta) => (UnOp::Huber(delta), a),
        _ => return None,
    })
}

/// Appends a symbolic instruction for `node_id`.
fn push_sym(
    sym: &mut Vec<Option<(SymInstr, usize)>>,
    producer: &mut [Option<usize>],
    node_id: usize,
    instr: SymInstr,
) {
    producer[node_id] = Some(sym.len());
    sym.push(Some((instr, node_id)));
}

/// Emits the symbolic instruction for a non-leaf tape op, fusing
/// `matmul → add_row_vec → activation` chains, and returns the node's
/// [`RowSpec`].
fn emit_op(
    op: &Op,
    node_id: usize,
    spec: &[Option<RowSpec>],
    sym: &mut Vec<Option<(SymInstr, usize)>>,
    producer: &mut [Option<usize>],
    uses: &[usize],
    is_output: &[bool],
) -> Result<RowSpec, PlanError> {
    let sp = |i: usize| -> Result<RowSpec, PlanError> {
        spec[i].ok_or_else(|| PlanError("operand of an op was eliminated or unclassified".into()))
    };
    // elementwise shape rule: same rows spec on both sides
    let same = |a: usize, b: usize| -> Result<RowSpec, PlanError> {
        let (sa, sb) = (sp(a)?, sp(b)?);
        if sa != sb {
            return err(format!(
                "elementwise op mixes batch-scaled and fixed operands ({sa:?} vs {sb:?}); \
                 this tape cannot scale with the batch size"
            ));
        }
        Ok(sa)
    };
    // activation fusion first: any elementwise unary riding a single-use
    // affine collapses into its `act`
    if let Some((unop, a)) = unop_of(op) {
        let rspec = sp(a)?;
        if uses[a] == 1 && !is_output[a] {
            if let Some(site) = producer[a] {
                if let Some((SymInstr::Affine { x, w, b, act: None }, _)) = sym[site] {
                    sym[site] = None;
                    push_sym(
                        sym,
                        producer,
                        node_id,
                        SymInstr::Affine {
                            x,
                            w,
                            b,
                            act: Some(unop),
                        },
                    );
                    return Ok(rspec);
                }
            }
        }
        push_sym(sym, producer, node_id, SymInstr::Unary { op: unop, a });
        return Ok(rspec);
    }
    let (instr, rspec) = match *op {
        Op::Leaf => unreachable!("leaves handled by the caller"),
        Op::MatMul(a, b) => {
            if sp(b)? == RowSpec::Batch {
                return err("matmul right-hand side cannot be batch-scaled");
            }
            (SymInstr::MatMul { a, b }, sp(a)?)
        }
        Op::Add(a, b) => (
            SymInstr::Binary {
                op: BinOp::Add,
                a,
                b,
            },
            same(a, b)?,
        ),
        Op::Sub(a, b) => (
            SymInstr::Binary {
                op: BinOp::Sub,
                a,
                b,
            },
            same(a, b)?,
        ),
        Op::Mul(a, b) => (
            SymInstr::Binary {
                op: BinOp::Mul,
                a,
                b,
            },
            same(a, b)?,
        ),
        Op::AddRowVec(m, row) => {
            if sp(row)? == RowSpec::Batch {
                return err("add_row_vec bias cannot be batch-scaled");
            }
            let rspec = sp(m)?;
            // fuse onto a single-use matmul producing `m`
            if uses[m] == 1 && !is_output[m] {
                if let Some(site) = producer[m] {
                    if let Some((SymInstr::MatMul { a, b }, _)) = sym[site] {
                        sym[site] = None;
                        push_sym(
                            sym,
                            producer,
                            node_id,
                            SymInstr::Affine {
                                x: a,
                                w: b,
                                b: row,
                                act: None,
                            },
                        );
                        return Ok(rspec);
                    }
                }
            }
            (SymInstr::AddRowVec { m, row }, rspec)
        }
        Op::MulColVec(m, col) => (SymInstr::MulColVec { m, col }, same(m, col)?),
        Op::SoftmaxRows(a) => (SymInstr::SoftmaxRows { a }, sp(a)?),
        Op::Sum(a) => (SymInstr::Sum { a }, RowSpec::Fixed(1)),
        Op::Mean(a) => (SymInstr::Mean { a }, RowSpec::Fixed(1)),
        Op::RowSum(a) => (SymInstr::RowSum { a }, sp(a)?),
        Op::ConcatCols(a, b) => (SymInstr::ConcatCols { a, b }, same(a, b)?),
        Op::SliceCols(a, start, end) => (
            SymInstr::SliceCols {
                a,
                start: start as u32,
                end: end as u32,
            },
            sp(a)?,
        ),
        Op::CumsumCols(a) => (SymInstr::CumsumCols { a }, sp(a)?),
        Op::Norml2(a, eps) => (SymInstr::Norml2 { a, eps }, sp(a)?),
        Op::PwlInterp { tau, p, t } => {
            let st = sp(t)?;
            for (name, v) in [("tau", tau), ("p", p)] {
                let s = sp(v)?;
                let broadcast = matches!(s, RowSpec::Fixed(1));
                if !broadcast && s != st {
                    return err(format!(
                        "pwl_interp {name} must broadcast from one row or match t's scaling"
                    ));
                }
            }
            (SymInstr::PwlInterp { tau, p, t }, st)
        }
        Op::BlockLinear {
            input,
            weight,
            bias,
            ..
        } => {
            if sp(weight)? == RowSpec::Batch || sp(bias)? == RowSpec::Batch {
                return err("block_linear weight/bias cannot be batch-scaled");
            }
            (
                SymInstr::BlockLinear {
                    input,
                    weight,
                    bias,
                },
                sp(input)?,
            )
        }
        Op::Lattice { input, params } => {
            if sp(params)? == RowSpec::Batch {
                return err("lattice params cannot be batch-scaled");
            }
            (SymInstr::Lattice { input, params }, sp(input)?)
        }
        // every elementwise unary was handled by `unop_of` above
        _ => unreachable!("unary ops handled above"),
    };
    push_sym(sym, producer, node_id, instr);
    Ok(rspec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record `relu(x @ w + b)` on a tape, compile, and replay at several
    /// row counts; replay must match a fresh tape forward bit for bit.
    #[test]
    fn affine_fusion_matches_tape() {
        let w = Matrix::from_fn(3, 4, |i, j| (i as f32 - j as f32) * 0.37);
        let b = Matrix::row_vector(&[0.1, -0.2, 0.3, -0.4]);
        let probe_x = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32 * 0.11 - 0.2);

        let mut g = Graph::new();
        let xv = g.leaf_ref(&probe_x);
        let wv = g.leaf_ref(&w);
        let bv = g.leaf_ref(&b);
        let mm = g.matmul(xv, wv);
        let aff = g.add_row_vec(mm, bv);
        let y = g.relu(aff);
        let plan = InferencePlan::compile(&g, &[(xv, true)], &[y]).expect("compilable");
        assert_eq!(plan.num_instructions(), 1, "matmul+bias+relu must fuse");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 5, 64] {
            let x = Matrix::from_fn(rows, 3, |i, j| ((i * 7 + j) as f32).sin());
            let got = plan.run(&mut bufs, rows, |_, m| {
                m.data_mut().copy_from_slice(x.data())
            });
            let mut fresh = Graph::new();
            let xv = fresh.leaf_ref(&x);
            let wv = fresh.leaf_ref(&w);
            let bv = fresh.leaf_ref(&b);
            let mm = fresh.matmul(xv, wv);
            let aff = fresh.add_row_vec(mm, bv);
            let yv = fresh.relu(aff);
            assert_eq!(got.output(0).data(), fresh.value(yv).data(), "rows {rows}");
        }
    }

    /// A fixed (non-batch) input keeps its probe rows across runs.
    #[test]
    fn fixed_input_and_broadcast_const() {
        let mut g = Graph::new();
        // x: fixed single row input; t: batch column; zeros: batch const
        let xv = g.leaf_with(1, 2, |d| d.copy_from_slice(&[0.5, -0.5]));
        let tv = g.leaf_with(3, 1, |d| d.copy_from_slice(&[0.1, 0.2, 0.3]));
        let zeros = g.leaf_with(3, 1, |_| {});
        let tz = g.add(tv, zeros);
        let tau = g.cumsum_cols(xv);
        let y = g.pwl_interp(tau, xv, tz);
        let plan = InferencePlan::compile(&g, &[(xv, false), (tv, true)], &[y]).expect("compiles");

        let mut bufs = PlanBuffers::new();
        let ts = [0.05f32, 0.15, 0.25, 0.35, 0.45];
        let out = plan.run(&mut bufs, ts.len(), |k, m| match k {
            0 => m.data_mut().copy_from_slice(&[0.5, -0.5]),
            _ => m.data_mut().copy_from_slice(&ts),
        });
        // reference on a fresh tape
        let mut fresh = Graph::new();
        let xv = fresh.leaf_with(1, 2, |d| d.copy_from_slice(&[0.5, -0.5]));
        let tv = fresh.leaf_with(5, 1, |d| d.copy_from_slice(&ts));
        let zeros = fresh.leaf_with(5, 1, |_| {});
        let tz = fresh.add(tv, zeros);
        let tau = fresh.cumsum_cols(xv);
        let y = fresh.pwl_interp(tau, xv, tz);
        assert_eq!(out.output(0).data(), fresh.value(y).data());
    }

    #[test]
    fn mixed_scaling_is_rejected() {
        let mut g = Graph::new();
        let a = g.leaf_with(2, 2, |d| d.fill(1.0)); // batch input
        let b = g.leaf_with(2, 2, |d| {
            d.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]) // fixed const, 2 rows,
                                                     // rows differ => no broadcast
        });
        let c = g.add(a, b);
        let e = InferencePlan::compile(&g, &[(a, true)], &[c]).unwrap_err();
        assert!(e.to_string().contains("cannot"), "{e}");
    }

    /// Every precision mode survives the `code()`/`from_code` and
    /// `Display`/`FromStr` round trips; bad tokens are rejected.
    #[test]
    fn precision_round_trips() {
        let modes = [
            PlanPrecision::Exact,
            PlanPrecision::Int8,
            PlanPrecision::Pruned { threshold: 0.25 },
        ];
        for m in modes {
            assert_eq!(PlanPrecision::from_code(m.code()), Some(m));
            assert_eq!(m.to_string().parse::<PlanPrecision>(), Ok(m));
        }
        assert_eq!(PlanPrecision::default(), PlanPrecision::Exact);
        assert!("fp64".parse::<PlanPrecision>().is_err());
        // the deleted bf16 mode: its token is gone, its retired code
        // reads back as Exact
        assert!("bf16".parse::<PlanPrecision>().is_err());
        assert_eq!(
            PlanPrecision::from_code(1 << 32),
            Some(PlanPrecision::Exact)
        );
        assert!("pruned:1.5".parse::<PlanPrecision>().is_err());
        assert!("pruned:x".parse::<PlanPrecision>().is_err());
        assert!(PlanPrecision::from_code(99 << 32).is_none());
    }

    /// Shared tape fixture for the precision-lowering tests: a two-layer
    /// MLP `relu(x@w1+b1)@w2+b2` whose weights span a wide magnitude
    /// range, so pruning and quantization both have work to do.
    fn mlp_fixture() -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let xv = g.leaf_with(4, 6, |d| {
            for (i, v) in d.iter_mut().enumerate() {
                *v = ((i * 13 % 17) as f32 - 8.0) * 0.21;
            }
        });
        let w1 = Matrix::from_fn(6, 8, |i, j| {
            let v = ((i * 8 + j) as f32 * 0.7).sin();
            v * if (i + j) % 3 == 0 { 1.0 } else { 0.02 }
        });
        let b1 = Matrix::from_fn(1, 8, |_, j| j as f32 * 0.05 - 0.2);
        let w2 = Matrix::from_fn(8, 3, |i, j| ((i * 3 + j) as f32 * 1.3).cos() * 0.6);
        let b2 = Matrix::from_fn(1, 3, |_, j| 0.1 - j as f32 * 0.04);
        let w1v = g.leaf_ref(&w1);
        let b1v = g.leaf_ref(&b1);
        let w2v = g.leaf_ref(&w2);
        let b2v = g.leaf_ref(&b2);
        let mm1 = g.matmul(xv, w1v);
        let a1 = g.add_row_vec(mm1, b1v);
        let h = g.relu(a1);
        let mm2 = g.matmul(h, w2v);
        let y = g.add_row_vec(mm2, b2v);
        (g, xv, y)
    }

    fn run_plan(plan: &InferencePlan, x: &Matrix) -> Vec<f32> {
        let mut bufs = PlanBuffers::new();
        let out = plan.run(&mut bufs, x.rows(), |_, m| {
            m.data_mut().copy_from_slice(x.data())
        });
        out.output(0).data().to_vec()
    }

    /// The fork gate keeps small waves serial, so `run_chunked` on a test
    /// plan never splits; forced to 1, 2, 3, 5 and more-than-rows chunks,
    /// the replay is the serial one bit for bit, every row's outputs
    /// landing in its own ragged slice of `out`, and the first chunk runs
    /// on the calling thread.
    #[test]
    fn forced_chunks_replay_bit_identically_with_chunk_zero_on_the_caller() {
        let (g, xv, y) = mlp_fixture();
        let plan = InferencePlan::compile(&g, &[(xv, true)], &[y]).unwrap();
        assert!(plan.chunkable());
        assert_eq!(plan.replay_threads(64, 8), 1, "a tiny wave stays serial");
        let caller = std::thread::current().id();
        for rows in [1usize, 2, 7, 64] {
            let x = Matrix::from_fn(rows, 6, |i, j| ((i * 6 + j) as f32).sin());
            let serial = run_plan(&plan, &x);
            // row r owns its 3 outputs, 1 + r % 2 times over
            let mut offsets = vec![0usize];
            for r in 0..rows {
                offsets.push(offsets[r] + 3 * (1 + r % 2));
            }
            let want: Vec<f32> = (0..rows)
                .flat_map(|r| serial[r * 3..r * 3 + 3].repeat(1 + r % 2))
                .collect();
            for chunks in [1usize, 2, 3, 5, 100] {
                let mut got = vec![0.0f32; want.len()];
                plan.run_in_chunks(
                    &offsets,
                    chunks,
                    &mut got,
                    |_, first_row, m| {
                        let take = m.rows() * 6;
                        m.data_mut()
                            .copy_from_slice(&x.data()[first_row * 6..first_row * 6 + take]);
                    },
                    |first_row, run, chunk| {
                        if first_row == 0 {
                            assert_eq!(std::thread::current().id(), caller);
                        }
                        let base = offsets[first_row];
                        for j in 0..run.rows() {
                            let r = first_row + j;
                            let values = &run.output(0).data()[j * 3..j * 3 + 3];
                            for copy in
                                chunk[offsets[r] - base..offsets[r + 1] - base].chunks_exact_mut(3)
                            {
                                copy.copy_from_slice(values);
                            }
                        }
                    },
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "rows {rows} chunks {chunks}");
            }
        }
    }

    /// `compile_with(Exact)` is the same compiler as `compile`: identical
    /// instruction stream, bit-identical replay.
    #[test]
    fn exact_precision_is_bit_identical_to_compile() {
        let (g, xv, y) = mlp_fixture();
        let base = InferencePlan::compile(&g, &[(xv, true)], &[y]).unwrap();
        let exact =
            InferencePlan::compile_with(&g, &[(xv, true)], &[y], PlanPrecision::Exact).unwrap();
        assert_eq!(base.num_instructions(), exact.num_instructions());
        assert_eq!(exact.num_quantized() + exact.num_sparse(), 0);
        let x = Matrix::from_fn(9, 6, |i, j| ((i * 6 + j) as f32).sin());
        assert_eq!(run_plan(&base, &x), run_plan(&exact, &x));
    }

    /// The int8 pass lowers every baked affine to `QuantAffine`, reports
    /// its compressed footprint, and replays within quantization error.
    #[test]
    fn int8_pass_lowers_affines() {
        let (g, xv, y) = mlp_fixture();
        let exact = InferencePlan::compile(&g, &[(xv, true)], &[y]).unwrap();
        let int8 =
            InferencePlan::compile_with(&g, &[(xv, true)], &[y], PlanPrecision::Int8).unwrap();
        assert_eq!(int8.num_quantized(), 2, "both MLP layers lower");
        // 6*8 + 8*3 int8 weights, 8 + 3 f32 scales
        assert_eq!(int8.quantized_weight_bytes(), 48 + 24 + 4 * 11);
        let x = Matrix::from_fn(9, 6, |i, j| ((i * 6 + j) as f32 * 0.9).sin());
        let (e, q) = (run_plan(&exact, &x), run_plan(&int8, &x));
        for (ev, qv) in e.iter().zip(&q) {
            assert!(
                (ev - qv).abs() <= 0.05 * ev.abs().max(1.0),
                "int8 drifted: {ev} vs {qv}"
            );
        }
    }

    /// Int8 quantization round-trips each weight within half a step of
    /// its per-channel scale.
    #[test]
    fn quantize_error_is_bounded_by_scale() {
        let w = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j) as f32 * 0.13).sin() * 3.0);
        let q = QuantMatrix::quantize(&w);
        let (rows, cols) = w.shape();
        for i in 0..rows {
            for j in 0..cols {
                let deq = q.deq.get(i, j);
                assert!(
                    (w.get(i, j) - deq).abs() <= 0.5 * q.scales[j] + 1e-6,
                    "({i},{j}): {} vs {deq}",
                    w.get(i, j)
                );
            }
        }
    }

    /// An aggressive threshold lowers to CSR (`SparseAffine`); replay
    /// equals the dense replay of the same zeroed weights bit for bit.
    #[test]
    fn pruning_pass_lowers_sparse_affines() {
        let (g, xv, y) = mlp_fixture();
        let pruned = InferencePlan::compile_with(
            &g,
            &[(xv, true)],
            &[y],
            PlanPrecision::Pruned { threshold: 0.5 },
        )
        .unwrap();
        assert!(
            pruned.num_sparse() >= 1,
            "first layer (mostly tiny weights) must lower to CSR"
        );
        assert!(pruned.sparse_nnz() > 0);
        // reference: dense plan over manually-pruned weights must agree
        // exactly (the CSR kernel reorders nothing: it streams input
        // channels in order, like the dense row-major matmul)
        let x = Matrix::from_fn(6, 6, |i, j| ((i + j) as f32 * 0.31).cos());
        let got = run_plan(&pruned, &x);
        for v in &got {
            assert!(v.is_finite());
        }
        // a gentle threshold stays dense but still zeroes entries
        let gentle = InferencePlan::compile_with(
            &g,
            &[(xv, true)],
            &[y],
            PlanPrecision::Pruned { threshold: 0.01 },
        )
        .unwrap();
        assert_eq!(gentle.num_sparse(), 0, "1% cut must stay dense");
    }
}
