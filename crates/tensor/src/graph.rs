//! Tape-based reverse-mode automatic differentiation on an **arena of
//! reusable buffers**.
//!
//! A [`Graph`] is a tape of nodes recorded in topological order. Operations
//! evaluate eagerly (values are computed when the op is recorded) and record
//! enough information for the backward sweep. [`Graph::backward`] walks the
//! tape in reverse, accumulating gradients into every node;
//! [`Graph::backward_params`] is the same sweep restricted to the nodes a
//! parameter feeds — what a training step needs, bit for bit.
//!
//! ## Tape lifecycle: build → forward → backward → [`Graph::reset`]
//!
//! The tape is designed to be **reused across training batches**. Calling
//! [`Graph::reset`] rewinds the tape to empty but keeps every node's value
//! and gradient buffer (and the tape's capacity) alive, so the next batch —
//! which in a training loop records the same op sequence with new data —
//! recycles the previous batch's storage instead of touching the allocator:
//!
//! * op methods write their results **into the recycled value buffers**
//!   (via the `Matrix::*_into` / `reset_*` kernels);
//! * [`Graph::leaf_ref`] / [`Graph::leaf_with`] copy or build leaf data in
//!   place, and [`Graph::param_leaf`] rebinds parameter values by copy
//!   instead of cloning a fresh `Matrix` per batch;
//! * [`Graph::backward`] accumulates gradients **in place** into per-node
//!   gradient buffers (a small scratch pool serves the ops that need a
//!   temporary), allocating nothing after the first batch at a given shape;
//! * [`Graph::param_grad_refs`] hands the optimizer borrowed gradients, so
//!   nothing is cloned on the way to the update step.
//!
//! After a `reset()`, any [`Var`] from the previous batch is **stale**;
//! using one is a logic error and panics in [`Graph::value`] /
//! [`Graph::grad`].
//!
//! ## Determinism contract
//!
//! Reusing a tape is **bit-identical** to building a fresh [`Graph`]: every
//! op writes its recycled buffer with exactly the arithmetic (same
//! operations, same order) as the allocating path, and in-place gradient
//! accumulation performs the same `existing += update` sequence the
//! allocate-then-accumulate sweep performed. The property suite
//! (`tests/tape_reuse.rs`, `tests/autodiff_properties.rs`) pins
//! reset-and-reuse against fresh graphs bit for bit, including across
//! batch-size changes. Together with the thread-count-invariant matmul
//! kernels (see [`crate::parallel`]) this keeps training runs reproducible:
//! same seed, same model — regardless of tape reuse or worker count.
//!
//! ## The op set
//!
//! Besides the standard neural-network ops, the tape implements the fused
//! operations the SelNet paper needs:
//!
//! * [`Graph::norml2`] — the paper's `Norml2` normalized-square map (§5.2),
//! * [`Graph::cumsum_cols`] — the prefix-sum (`M_psum`) operator,
//! * [`Graph::pwl_interp`] — evaluation of the continuous piece-wise linear
//!   estimator (Eq. 1) with gradients to both control-point vectors,
//! * [`Graph::block_linear`] — the per-control-point decoder of model M,
//! * [`Graph::gather_rows`] — one row per `(x, t)` pair out of one row per
//!   query object, so a training step runs the network once per object,
//! * [`Graph::lattice`] — multilinear lattice interpolation (used by the
//!   DLN baseline),
//! * [`Graph::huber`] — the robust Huber loss (δ = 1.345 by default).

use crate::fwd;
use crate::matrix::Matrix;

/// Handle to a node on the tape.
///
/// A `Var` is only valid until the next [`Graph::reset`]; using a stale
/// handle afterwards panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Identifier of a trainable parameter inside a
/// [`ParamStore`](crate::params::ParamStore).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Dense index of the parameter inside its store (ids are assigned in
    /// registration order), e.g. for merging gradients computed on
    /// independent tapes.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The recorded operation of a tape node. Plain indices only — per-node
/// auxiliary state (the PWL segment choice) lives on the [`Node`] so slot
/// reuse recycles its allocation too.
#[derive(Clone, Copy, Debug)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    /// matrix (R x C) + row vector (1 x C) broadcast over rows
    AddRowVec(usize, usize),
    /// matrix (R x C) * column vector (R x 1) broadcast over columns
    MulColVec(usize, usize),
    Scale(usize, f32),
    Relu(usize),
    /// `elu(x) + 1`, strictly positive; used by UMNN's integrand.
    EluPlusOne(usize),
    Softplus(usize),
    Sigmoid(usize),
    /// `ln(max(x, 0) + eps)`
    LnEps(usize, f32),
    Abs(usize),
    Square(usize),
    SoftmaxRows(usize),
    Sum(usize),
    Mean(usize),
    RowSum(usize),
    ConcatCols(usize, usize),
    SliceCols(usize, usize, usize),
    CumsumCols(usize),
    Norml2(usize, f32),
    Huber(usize, f32),
    PwlInterp {
        tau: usize,
        p: usize,
        t: usize,
    },
    BlockLinear {
        input: usize,
        weight: usize,
        bias: usize,
        blocks: usize,
    },
    Lattice {
        input: usize,
        params: usize,
    },
    /// Row `r` of the output is row `Node::gather[r]` of the input.
    GatherRows(usize),
}

impl Op {
    /// Visits the tape-node inputs of the op, operands in declaration
    /// order — the backward sweep's liveness pass walks the tape with it.
    fn for_each_input(&self, mut f: impl FnMut(usize)) {
        match *self {
            Op::Leaf => {}
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowVec(a, b)
            | Op::MulColVec(a, b)
            | Op::ConcatCols(a, b) => {
                f(a);
                f(b);
            }
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::EluPlusOne(a)
            | Op::Softplus(a)
            | Op::Sigmoid(a)
            | Op::LnEps(a, _)
            | Op::Abs(a)
            | Op::Square(a)
            | Op::SoftmaxRows(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::RowSum(a)
            | Op::SliceCols(a, _, _)
            | Op::CumsumCols(a)
            | Op::Norml2(a, _)
            | Op::Huber(a, _)
            | Op::GatherRows(a) => f(a),
            Op::PwlInterp { tau, p, t } => {
                f(tau);
                f(p);
                f(t);
            }
            Op::BlockLinear {
                input,
                weight,
                bias,
                ..
            } => {
                f(input);
                f(weight);
                f(bias);
            }
            Op::Lattice { input, params } => {
                f(input);
                f(params);
            }
        }
    }
}

/// One tape slot. `value` and `grad` keep their allocations across
/// [`Graph::reset`] so later batches recycle them.
struct Node {
    value: Matrix,
    /// In-place gradient accumulator; meaningful only while `grad_seen`.
    grad: Matrix,
    /// Whether `grad` holds this backward sweep's accumulated gradient.
    grad_seen: bool,
    /// Whether the current sweep wants a gradient here: some live leaf
    /// feeds the node (see [`Graph::mark_live`]). Dead nodes are never
    /// accumulated into, hence never visited.
    live: bool,
    /// Leading gradient columns the sweep does not keep: `grad` holds
    /// columns `dead_cols..` of the node's full gradient. Non-zero only on
    /// a `ConcatCols(dead, live)` whose every consumer is a `MatMul` left
    /// operand.
    dead_cols: usize,
    op: Op,
    param: Option<ParamId>,
    /// Per-row segment chosen by a `PwlInterp` forward pass (`-1` below
    /// range, `-2` above); replayed by the backward sweep. Kept on the node
    /// (not in [`Op`]) so the buffer is recycled across batches.
    seg: Vec<i64>,
    /// Source row of each output row of a `GatherRows`; the backward sweep
    /// scatters along it. On the node for the same reason as `seg`.
    gather: Vec<usize>,
}

/// A reusable autodiff tape. Build the computation with the op methods,
/// call [`Graph::backward`] on a scalar node, read gradients, then
/// [`Graph::reset`] and record the next batch into the same storage.
#[derive(Default)]
pub struct Graph {
    /// Slot arena. `nodes[..live]` is the current tape; `nodes[live..]`
    /// are spare slots retained by [`Graph::reset`] for recycling.
    nodes: Vec<Node>,
    /// Number of live nodes in the current tape.
    live: usize,
    /// Recycled temporaries for the backward sweep (gradient scratch and
    /// transpose packing); they grow to the largest shape once and are
    /// reused forever after.
    scratch: Vec<Matrix>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(64),
            live: 0,
            scratch: Vec::new(),
        }
    }

    /// Rewinds the tape to empty while **keeping every buffer**: node
    /// capacity, value/gradient storage and scratch temporaries all survive
    /// and are recycled by the next batch's ops. All existing [`Var`]s
    /// become stale.
    pub fn reset(&mut self) {
        self.live = 0;
    }

    /// Allocates the next tape slot (recycling a spare one when available)
    /// with a `rows x cols` value buffer of unspecified contents. Every op
    /// must overwrite the value completely.
    fn alloc(&mut self, rows: usize, cols: usize, op: Op) -> usize {
        let idx = self.live;
        if idx < self.nodes.len() {
            let n = &mut self.nodes[idx];
            n.value.reset_shape(rows, cols);
            n.grad_seen = false;
            n.dead_cols = 0;
            n.op = op;
            n.param = None;
        } else {
            let mut value = Matrix::default();
            value.reset_shape(rows, cols);
            self.nodes.push(Node {
                value,
                grad: Matrix::default(),
                grad_seen: false,
                live: false,
                dead_cols: 0,
                op,
                param: None,
                seg: Vec::new(),
                gather: Vec::new(),
            });
        }
        self.live = idx + 1;
        idx
    }

    /// Splits the arena at a freshly allocated `idx`: the already-recorded
    /// input nodes and the output node, borrowable simultaneously.
    fn out_split(&mut self, idx: usize) -> (&[Node], &mut Node) {
        let (pre, rest) = self.nodes.split_at_mut(idx);
        (&*pre, &mut rest[0])
    }

    /// Finalizes an op: debug-checks the produced value and returns the
    /// handle.
    fn done(&self, idx: usize) -> Var {
        debug_assert!(
            self.nodes[idx].value.all_finite(),
            "non-finite value produced by {:?}",
            self.nodes[idx].op
        );
        Var(idx)
    }

    fn take_scratch(&mut self) -> Matrix {
        self.scratch.pop().unwrap_or_default()
    }

    fn put_scratch(&mut self, m: Matrix) {
        self.scratch.push(m);
    }

    /// Records a constant leaf (inputs, targets), **moving** `value` onto
    /// the tape. On hot paths prefer [`Graph::leaf_ref`] or
    /// [`Graph::leaf_with`], which recycle the slot's existing buffer
    /// instead of adopting a freshly allocated one.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        let idx = self.alloc(0, 0, Op::Leaf);
        self.nodes[idx].value = value;
        self.done(idx)
    }

    /// Records a constant leaf by **copying** `value` into recycled
    /// storage (no allocation once the slot has the capacity).
    pub fn leaf_ref(&mut self, value: &Matrix) -> Var {
        let idx = self.alloc(0, 0, Op::Leaf);
        self.nodes[idx].value.copy_from(value);
        self.done(idx)
    }

    /// Records a `rows x cols` constant leaf whose zero-initialized data is
    /// filled in place by `fill` — the allocation-free way to assemble
    /// batch matrices directly on the tape.
    pub fn leaf_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f32])) -> Var {
        let idx = self.alloc(0, 0, Op::Leaf);
        self.nodes[idx].value.reset_zero(rows, cols);
        fill(self.nodes[idx].value.data_mut());
        self.done(idx)
    }

    /// Records a trainable-parameter leaf tagged with `id` so its gradient
    /// can be collected after [`Graph::backward`]. The value is copied into
    /// recycled storage — parameters are *rebound* to the tape each batch,
    /// not cloned into fresh allocations.
    pub fn param_leaf(&mut self, id: ParamId, value: &Matrix) -> Var {
        let v = self.leaf_ref(value);
        self.nodes[v.0].param = Some(id);
        v
    }

    /// The value held at `v`.
    ///
    /// # Panics
    /// Panics if `v` is stale (recorded before the last [`Graph::reset`]).
    pub fn value(&self, v: Var) -> &Matrix {
        assert!(v.0 < self.live, "stale Var used after Graph::reset()");
        &self.nodes[v.0].value
    }

    /// The gradient accumulated at `v` (copied out); zeros if backward never
    /// reached it — which after [`Graph::backward_params`] includes every
    /// node no parameter feeds, and the columns a narrow concat gradient
    /// does not keep.
    ///
    /// # Panics
    /// Panics if `v` is stale (recorded before the last [`Graph::reset`]).
    pub fn grad(&self, v: Var) -> Matrix {
        assert!(v.0 < self.live, "stale Var used after Graph::reset()");
        let n = &self.nodes[v.0];
        let mut out = Matrix::zeros(n.value.rows(), n.value.cols());
        if n.grad_seen {
            for i in 0..out.rows() {
                out.row_mut(i)[n.dead_cols..].copy_from_slice(n.grad.row(i));
            }
        }
        out
    }

    /// Whether the last sweep accumulated a gradient at `v`. A
    /// parameters-only sweep reaches no node that no parameter feeds.
    ///
    /// # Panics
    /// Panics if `v` is stale (recorded before the last [`Graph::reset`]).
    pub fn grad_reached(&self, v: Var) -> bool {
        assert!(v.0 < self.live, "stale Var used after Graph::reset()");
        self.nodes[v.0].grad_seen
    }

    /// Number of nodes recorded since the last [`Graph::reset`].
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of node slots the arena retains (live + spare); stays flat
    /// across steady-state reuse.
    pub fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Collects `(ParamId, gradient)` pairs for every parameter leaf,
    /// **cloning** each gradient. Hot paths should use
    /// [`Graph::param_grad_refs`] instead.
    pub fn param_grads(&self) -> Vec<(ParamId, Matrix)> {
        self.nodes[..self.live]
            .iter()
            .filter_map(|n| {
                n.param.map(|id| {
                    (
                        id,
                        if n.grad_seen {
                            n.grad.clone()
                        } else {
                            Matrix::zeros(n.value.rows(), n.value.cols())
                        },
                    )
                })
            })
            .collect()
    }

    /// Collects `(ParamId, &gradient)` pairs for every parameter leaf
    /// **without cloning** — feed these straight to
    /// [`Adam::step_refs`](crate::optim::Adam::step_refs).
    /// Parameters the backward sweep never reached get a zero gradient
    /// (materialized in their recycled buffer).
    pub fn param_grad_refs(&mut self) -> Vec<(ParamId, &Matrix)> {
        for n in &mut self.nodes[..self.live] {
            if n.param.is_some() && !n.grad_seen {
                n.grad.reset_zero(n.value.rows(), n.value.cols());
                n.grad_seen = true;
            }
        }
        self.nodes[..self.live]
            .iter()
            .filter_map(|n| n.param.map(|id| (id, &n.grad)))
            .collect()
    }

    // ---- binary ops ----

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let rows = self.nodes[a.0].value.rows();
        let cols = self.nodes[b.0].value.cols();
        let idx = self.alloc(rows, cols, Op::MatMul(a.0, b.0));
        let (pre, out) = self.out_split(idx);
        pre[a.0].value.matmul_into(&pre[b.0].value, &mut out.value);
        self.done(idx)
    }

    /// Shared body of the elementwise binary ops.
    fn binary_zip(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let shape = self.nodes[a.0].value.shape();
        assert_eq!(
            shape,
            self.nodes[b.0].value.shape(),
            "elementwise op shape mismatch"
        );
        let idx = self.alloc(shape.0, shape.1, op);
        let (pre, out) = self.out_split(idx);
        fwd::binary_zip(&pre[a.0].value, &pre[b.0].value, &mut out.value, f);
        self.done(idx)
    }

    /// Elementwise sum of two same-shape matrices.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary_zip(a, b, Op::Add(a.0, b.0), |x, y| x + y)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary_zip(a, b, Op::Sub(a.0, b.0), |x, y| x - y)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary_zip(a, b, Op::Mul(a.0, b.0), |x, y| x * y)
    }

    /// Adds a `1 x C` row vector to every row of an `R x C` matrix
    /// (the bias op).
    pub fn add_row_vec(&mut self, m: Var, row: Var) -> Var {
        {
            let (vm, vr) = (&self.nodes[m.0].value, &self.nodes[row.0].value);
            assert_eq!(vr.rows(), 1, "add_row_vec: rhs must be a row vector");
            assert_eq!(vm.cols(), vr.cols(), "add_row_vec: column mismatch");
        }
        let (rows, cols) = self.nodes[m.0].value.shape();
        let idx = self.alloc(rows, cols, Op::AddRowVec(m.0, row.0));
        let (pre, out) = self.out_split(idx);
        fwd::add_row_vec(&pre[m.0].value, &pre[row.0].value, &mut out.value);
        self.done(idx)
    }

    /// Multiplies every column of an `R x C` matrix by an `R x 1` column
    /// vector (per-row scaling, e.g. gate weights).
    pub fn mul_col_vec(&mut self, m: Var, col: Var) -> Var {
        {
            let (vm, vc) = (&self.nodes[m.0].value, &self.nodes[col.0].value);
            assert_eq!(vc.cols(), 1, "mul_col_vec: rhs must be a column vector");
            assert_eq!(vm.rows(), vc.rows(), "mul_col_vec: row mismatch");
        }
        let (rows, cols) = self.nodes[m.0].value.shape();
        let idx = self.alloc(rows, cols, Op::MulColVec(m.0, col.0));
        let (pre, out) = self.out_split(idx);
        fwd::mul_col_vec(&pre[m.0].value, &pre[col.0].value, &mut out.value);
        self.done(idx)
    }

    // ---- scalar ops ----

    /// Shared body of the elementwise unary ops.
    fn unary_map(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let shape = self.nodes[a.0].value.shape();
        let idx = self.alloc(shape.0, shape.1, op);
        let (pre, out) = self.out_split(idx);
        fwd::unary_map(&pre[a.0].value, &mut out.value, f);
        self.done(idx)
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        self.unary_map(a, Op::Scale(a.0, alpha), |x| x * alpha)
    }

    // ---- unary activations ----

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary_map(a, Op::Relu(a.0), fwd::relu)
    }

    /// `elu(x) + 1 = exp(x)` for `x <= 0`, `x + 1` for `x > 0`; strictly
    /// positive, used for UMNN's positive integrand.
    pub fn elu_plus_one(&mut self, a: Var) -> Var {
        self.unary_map(a, Op::EluPlusOne(a.0), fwd::elu_plus_one)
    }

    /// Numerically-stable softplus `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.unary_map(a, Op::Softplus(a.0), fwd::softplus)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary_map(a, Op::Sigmoid(a.0), fwd::sigmoid)
    }

    /// `ln(max(x, 0) + eps)` — the log-space mapping used by the paper's
    /// loss (the `eps` padding prevents `ln 0`).
    pub fn ln_eps(&mut self, a: Var, eps: f32) -> Var {
        self.unary_map(a, Op::LnEps(a.0, eps), |x| fwd::ln_eps(x, eps))
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        self.unary_map(a, Op::Abs(a.0), f32::abs)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.unary_map(a, Op::Square(a.0), |x| x * x)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let idx = self.alloc(rows, cols, Op::SoftmaxRows(a.0));
        let (pre, out) = self.out_split(idx);
        fwd::softmax_rows(&pre[a.0].value, &mut out.value);
        self.done(idx)
    }

    // ---- reductions ----

    /// Sum of all elements as a `1 x 1` node.
    pub fn sum(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum() as f32;
        let idx = self.alloc(1, 1, Op::Sum(a.0));
        self.nodes[idx].value.data_mut()[0] = s;
        self.done(idx)
    }

    /// Mean of all elements as a `1 x 1` node.
    pub fn mean(&mut self, a: Var) -> Var {
        let m = self.nodes[a.0].value.mean() as f32;
        let idx = self.alloc(1, 1, Op::Mean(a.0));
        self.nodes[idx].value.data_mut()[0] = m;
        self.done(idx)
    }

    /// Per-row sum as an `R x 1` node.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let rows = self.nodes[a.0].value.rows();
        let idx = self.alloc(rows, 1, Op::RowSum(a.0));
        let (pre, out) = self.out_split(idx);
        fwd::row_sum(&pre[a.0].value, &mut out.value);
        self.done(idx)
    }

    // ---- structural ops ----

    /// Concatenates two matrices with the same row count along columns.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (rows, ca) = self.nodes[a.0].value.shape();
        let (rb, cb) = self.nodes[b.0].value.shape();
        assert_eq!(rows, rb, "concat_cols row mismatch");
        let idx = self.alloc(rows, ca + cb, Op::ConcatCols(a.0, b.0));
        let (pre, out) = self.out_split(idx);
        fwd::concat_cols(&pre[a.0].value, &pre[b.0].value, &mut out.value);
        self.done(idx)
    }

    /// Extracts columns `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert!(start <= end && end <= cols, "slice_cols out of range");
        let idx = self.alloc(rows, end - start, Op::SliceCols(a.0, start, end));
        let (pre, out) = self.out_split(idx);
        fwd::slice_cols(&pre[a.0].value, start, end, &mut out.value);
        self.done(idx)
    }

    /// Row `r` of the result is row `idx[r]` of `v`: rows may repeat, be
    /// left out, or come in any order, and an empty `idx` gives a `0 x C`
    /// node. Training uses it to expand one `(τ, p)` row per query object
    /// to one row per labelled threshold.
    ///
    /// The backward sweep adds row `r` of the incoming gradient to row
    /// `idx[r]` of `v`'s, for `r` in increasing order on the calling thread
    /// — a repeated row's gradient is one fixed sequence of additions, so
    /// it has the same bits at every thread count.
    ///
    /// # Panics
    /// Panics if an index is not a row of `v`.
    pub fn gather_rows(&mut self, v: Var, idx: &[usize]) -> Var {
        let (rows, cols) = self.nodes[v.0].value.shape();
        if let Some(&bad) = idx.iter().find(|&&i| i >= rows) {
            panic!("gather_rows: index {bad} out of range for {rows} rows");
        }
        let out_idx = self.alloc(idx.len(), cols, Op::GatherRows(v.0));
        let (pre, out) = self.out_split(out_idx);
        out.gather.clear();
        out.gather.extend_from_slice(idx);
        fwd::gather_rows(&pre[v.0].value, idx, &mut out.value);
        self.done(out_idx)
    }

    /// Per-row prefix sum: `out[i][j] = sum_{k <= j} in[i][k]`.
    ///
    /// This is the `M_psum` operator from the paper's network architecture
    /// (§5.2), which converts learned increments into non-decreasing control
    /// point sequences.
    pub fn cumsum_cols(&mut self, a: Var) -> Var {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let idx = self.alloc(rows, cols, Op::CumsumCols(a.0));
        let (pre, out) = self.out_split(idx);
        fwd::cumsum_cols(&pre[a.0].value, &mut out.value);
        self.done(idx)
    }

    /// The paper's `Norml2` normalized-square map (§5.2):
    /// `out_i = (x_i^2 + eps/d) / (x·x + eps)` per row. Every output row is
    /// positive and sums to exactly 1, which turns the following cumulative
    /// sum into a partition of `[0, 1]`.
    pub fn norml2(&mut self, a: Var, eps: f32) -> Var {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let idx = self.alloc(rows, cols, Op::Norml2(a.0, eps));
        let (pre, out) = self.out_split(idx);
        fwd::norml2(&pre[a.0].value, eps, &mut out.value);
        self.done(idx)
    }

    /// Elementwise Huber with parameter `delta`:
    /// `r^2/2` for `|r| <= delta`, `delta(|r| - delta/2)` otherwise.
    pub fn huber(&mut self, a: Var, delta: f32) -> Var {
        self.unary_map(a, Op::Huber(a.0, delta), |r| fwd::huber(r, delta))
    }

    /// Evaluates the continuous piece-wise linear function of Eq. (1).
    ///
    /// * `tau`: control-point abscissae, `R x m` (or `1 x m`, broadcast),
    ///   assumed non-decreasing along each row;
    /// * `p`: control-point ordinates, same shape rules;
    /// * `t`: evaluation points, `R x 1`.
    ///
    /// `t` below `tau[0]` clamps to `p[0]`; `t` at or above `tau[m-1]`
    /// clamps to `p[m-1]`. Gradients flow to `tau`, `p`, and `t`.
    pub fn pwl_interp(&mut self, tau: Var, p: Var, t: Var) -> Var {
        let rows = {
            let (vt, vtau, vp) = (
                &self.nodes[t.0].value,
                &self.nodes[tau.0].value,
                &self.nodes[p.0].value,
            );
            let rows = vt.rows();
            assert_eq!(vt.cols(), 1, "pwl_interp: t must be a column vector");
            assert_eq!(vtau.cols(), vp.cols(), "pwl_interp: tau/p length mismatch");
            assert!(
                vtau.cols() >= 2,
                "pwl_interp: need at least two control points"
            );
            for (name, m) in [("tau", vtau), ("p", vp)] {
                assert!(
                    m.rows() == rows || m.rows() == 1,
                    "pwl_interp: {name} must have {rows} rows or broadcast from 1"
                );
            }
            rows
        };
        let idx = self.alloc(
            rows,
            1,
            Op::PwlInterp {
                tau: tau.0,
                p: p.0,
                t: t.0,
            },
        );
        let (pre, out) = self.out_split(idx);
        fwd::pwl_interp(
            &pre[tau.0].value,
            &pre[p.0].value,
            &pre[t.0].value,
            &mut out.value,
            Some(&mut out.seg),
        );
        self.done(idx)
    }

    /// Per-block linear map — the decoder of the paper's model M (§5.2).
    ///
    /// `input` is `R x (blocks*h)`, interpreted as `blocks` contiguous
    /// chunks of width `h`; `weight` is `blocks x h`; `bias` is
    /// `1 x blocks`. Output `R x blocks` with
    /// `out[r][i] = input[r, i*h..][..h] · weight[i] + bias[i]`.
    pub fn block_linear(&mut self, input: Var, weight: Var, bias: Var) -> Var {
        let (rows, blocks) = {
            let (vi, vw, vb) = (
                &self.nodes[input.0].value,
                &self.nodes[weight.0].value,
                &self.nodes[bias.0].value,
            );
            let blocks = vw.rows();
            let h = vw.cols();
            assert_eq!(vi.cols(), blocks * h, "block_linear: input width mismatch");
            assert_eq!(vb.shape(), (1, blocks), "block_linear: bias shape mismatch");
            (vi.rows(), blocks)
        };
        let idx = self.alloc(
            rows,
            blocks,
            Op::BlockLinear {
                input: input.0,
                weight: weight.0,
                bias: bias.0,
                blocks,
            },
        );
        let (pre, out) = self.out_split(idx);
        fwd::block_linear(
            &pre[input.0].value,
            &pre[weight.0].value,
            &pre[bias.0].value,
            &mut out.value,
        );
        self.done(idx)
    }

    /// Multilinear lattice interpolation over the unit hypercube.
    ///
    /// `input` is `R x m` with entries clamped to `[0, 1]`; `params` is
    /// `1 x 2^m` holding the lattice vertex values indexed by the bitmask of
    /// upper coordinates (bit `j` set = upper vertex along dim `j`).
    /// Used by the DLN baseline's lattice layers.
    pub fn lattice(&mut self, input: Var, params: Var) -> Var {
        let (rows, _m) = {
            let (vi, vp) = (&self.nodes[input.0].value, &self.nodes[params.0].value);
            let m = vi.cols();
            assert!(m <= 16, "lattice: dimension too large (2^m params)");
            assert_eq!(
                vp.shape(),
                (1, 1usize << m),
                "lattice: params must be 1 x 2^m"
            );
            (vi.rows(), m)
        };
        let idx = self.alloc(
            rows,
            1,
            Op::Lattice {
                input: input.0,
                params: params.0,
            },
        );
        let (pre, out) = self.out_split(idx);
        fwd::lattice(&pre[input.0].value, &pre[params.0].value, &mut out.value);
        self.done(idx)
    }

    // ---- backward ----

    /// Runs the reverse sweep from `loss`, which must be `1 x 1`, with
    /// **every leaf live**: gradients accumulate **in place** into every
    /// reachable node's recycled buffer and can be read with
    /// [`Graph::grad`] / [`Graph::param_grads`] /
    /// [`Graph::param_grad_refs`]. Training loops, which only read the
    /// parameter gradients, call [`Graph::backward_params`] instead.
    pub fn backward(&mut self, loss: Var) {
        self.sweep(loss, true);
    }

    /// The same sweep with **only parameter leaves live**: a node gets a
    /// gradient iff a parameter feeds it, so nothing is computed for
    /// constant inputs (the batch `x` behind a first layer, targets,
    /// masks). Parameter gradients are **bit-identical** to
    /// [`Graph::backward`]'s: every kept element is the same reduction, and
    /// contributions reach each buffer in the same order — skipping work
    /// never reorders work. The one place a kept gradient changes shape: a
    /// `concat_cols(constant, live)` read only by `matmul` left operands
    /// keeps just its live columns ("What the sweep computes" in
    /// `ARCHITECTURE.md`).
    pub fn backward_params(&mut self, loss: Var) {
        self.sweep(loss, false);
    }

    fn sweep(&mut self, loss: Var, every_leaf: bool) {
        assert!(loss.0 < self.live, "stale Var used after Graph::reset()");
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        for n in &mut self.nodes[..self.live] {
            n.grad_seen = false;
        }
        self.mark_live(loss.0, every_leaf);
        {
            let n = &mut self.nodes[loss.0];
            n.grad.reset_shape(1, 1);
            n.grad.data_mut()[0] = 1.0;
            n.grad_seen = true;
        }
        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].grad_seen {
                continue;
            }
            self.apply_backward(idx);
        }
    }

    /// The liveness pass: one forward walk over `nodes[..=upto]`. A leaf is
    /// live if it is a parameter (or `every_leaf`); any other node is live
    /// iff one of its inputs is. The reverse sweep accumulates only into
    /// live nodes, so dead ones are never visited.
    ///
    /// It also decides where a gradient may be kept **narrow**. The
    /// gradient of `c = ConcatCols(dead, live)` is only ever read by `c`'s
    /// own backward, which drops the dead columns — so when every consumer
    /// of `c` is a `MatMul` with `c` as its left operand, those consumers
    /// form only the kept columns (`gout · (w[dead_cols.., :])ᵀ`) and
    /// `c.grad` holds columns `dead_cols..`. The consumer rule is the
    /// soundness condition: a `MatMul` computes each gradient element as an
    /// independent index-ordered reduction, so leaving columns out moves no
    /// bit of the others, while any other consumer hands `c` a full-width
    /// contribution that a narrow buffer cannot take. With every leaf live
    /// no concat has a dead half and `dead_cols` is 0 everywhere.
    fn mark_live(&mut self, upto: usize, every_leaf: bool) {
        for idx in 0..=upto {
            let (pre, rest) = self.nodes.split_at_mut(idx);
            let node = &mut rest[0];
            let op = node.op;
            node.live = matches!(op, Op::Leaf) && (every_leaf || node.param.is_some());
            node.dead_cols = 0;
            op.for_each_input(|j| {
                node.live |= pre[j].live;
                if !matches!(op, Op::MatMul(a, b) if a == j && b != j) {
                    pre[j].dead_cols = 0;
                }
            });
            if let Op::ConcatCols(a, b) = op {
                if !pre[a].live && pre[b].live {
                    node.dead_cols = pre[a].value.cols();
                }
            }
        }
        // the seed gradient is a full-width contribution too
        self.nodes[upto].dead_cols = 0;
    }

    fn apply_backward(&mut self, idx: usize) {
        let op = self.nodes[idx].op;
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let mut pack = self.take_scratch();
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                let skip = pre[a].dead_cols;
                if let Some((grad, seen, vb)) = live_grad_and_value(pre, a, b) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        gout.matmul_a_bt_rows_into(vb, skip, out, &mut pack)
                    });
                }
                if let Some((grad, seen, va)) = live_grad_and_value(pre, b, a) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        va.matmul_at_b_into(gout, out, &mut pack)
                    });
                }
                self.put_scratch(tmp);
                self.put_scratch(pack);
            }
            Op::Add(a, b) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                acc_matrix(pre, a, gout);
                acc_matrix(pre, b, gout);
            }
            Op::Sub(a, b) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                acc_matrix(pre, a, gout);
                if let Some((grad, seen)) = live_grad(pre, b) {
                    acc_map(grad, seen, gout, |g| -g);
                }
            }
            Op::Mul(a, b) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                if let Some((grad, seen, vb)) = live_grad_and_value(pre, a, b) {
                    acc_zip(grad, seen, gout, vb, |g, y| g * y);
                }
                if let Some((grad, seen, va)) = live_grad_and_value(pre, b, a) {
                    acc_zip(grad, seen, gout, va, |g, x| g * x);
                }
            }
            Op::AddRowVec(m, row) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                acc_matrix(pre, m, gout);
                if let Some((grad, seen)) = live_grad(pre, row) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        // column sums of gout, accumulated row by row
                        out.reset_zero(1, gout.cols());
                        for i in 0..gout.rows() {
                            for (o, &g) in out.row_mut(0).iter_mut().zip(gout.row(i)) {
                                *o += g;
                            }
                        }
                    });
                }
                self.put_scratch(tmp);
            }
            Op::MulColVec(m, col) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                if let Some((grad, seen, vcol)) = live_grad_and_value(pre, m, col) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        out.reset_shape(gout.rows(), gout.cols());
                        for i in 0..gout.rows() {
                            let s = vcol.get(i, 0);
                            for (o, &g) in out.row_mut(i).iter_mut().zip(gout.row(i)) {
                                *o = g * s;
                            }
                        }
                    });
                }
                if let Some((grad, seen, vm)) = live_grad_and_value(pre, col, m) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        out.reset_shape(gout.rows(), 1);
                        for i in 0..gout.rows() {
                            let mut acc = 0.0f32;
                            for (g, x) in gout.row(i).iter().zip(vm.row(i)) {
                                acc += g * x;
                            }
                            out.set(i, 0, acc);
                        }
                    });
                }
                self.put_scratch(tmp);
            }
            Op::Scale(a, alpha) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let (grad, seen) = grad_mut(pre, a);
                acc_map(grad, seen, &rest[0].grad, |g| g * alpha);
            }
            Op::Relu(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, x| if x > 0.0 { g } else { 0.0 },
                );
            }
            Op::EluPlusOne(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, x| if x > 0.0 { g } else { g * x.exp() },
                );
            }
            Op::Softplus(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, x| g / (1.0 + (-x).exp()),
                );
            }
            Op::Sigmoid(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let node = &rest[0];
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &node.grad,
                    &node.value,
                    |g, y| g * y * (1.0 - y),
                );
            }
            Op::LnEps(a, eps) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, x| if x > 0.0 { g / (x + eps) } else { 0.0 },
                );
            }
            Op::Abs(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, x| g * x.signum(),
                );
            }
            Op::Square(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, x| 2.0 * g * x,
                );
            }
            Op::Huber(a, delta) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                acc_zip(
                    &mut n.grad,
                    &mut n.grad_seen,
                    &rest[0].grad,
                    &n.value,
                    |g, r| {
                        if r.abs() <= delta {
                            g * r
                        } else {
                            g * delta * r.signum()
                        }
                    },
                );
            }
            Op::SoftmaxRows(a) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let node = &rest[0];
                let y = &node.value;
                let gout = &node.grad;
                let (grad, seen) = grad_mut(pre, a);
                acc_with(grad, seen, &mut tmp, |out| {
                    out.reset_shape(y.rows(), y.cols());
                    for i in 0..y.rows() {
                        let yr = y.row(i);
                        let gr = gout.row(i);
                        let dot: f32 = yr.iter().zip(gr).map(|(&yv, &gv)| yv * gv).sum();
                        for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                            *o = yr[j] * (gr[j] - dot);
                        }
                    }
                });
                self.put_scratch(tmp);
            }
            Op::Sum(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let s = rest[0].grad.get(0, 0);
                let n = &mut pre[a];
                let shape = n.value.shape();
                acc_fill(&mut n.grad, &mut n.grad_seen, shape, s);
            }
            Op::Mean(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let n = &mut pre[a];
                let shape = n.value.shape();
                let count = (shape.0 * shape.1).max(1) as f32;
                let s = rest[0].grad.get(0, 0) / count;
                acc_fill(&mut n.grad, &mut n.grad_seen, shape, s);
            }
            Op::RowSum(a) => {
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                let n = &mut pre[a];
                let shape = n.value.shape();
                if !n.grad_seen {
                    n.grad.reset_shape(shape.0, shape.1);
                }
                for i in 0..shape.0 {
                    let s = gout.get(i, 0);
                    if n.grad_seen {
                        for gd in n.grad.row_mut(i) {
                            *gd += s;
                        }
                    } else {
                        for gd in n.grad.row_mut(i) {
                            *gd = s;
                        }
                    }
                }
                n.grad_seen = true;
            }
            Op::ConcatCols(a, b) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                let ca = pre[a].value.cols();
                let cb = pre[b].value.cols();
                let rows = gout.rows();
                // `gout` holds columns `dead_cols..` of the full gradient:
                // all of them, or (narrow) exactly `b`'s
                let b0 = ca - rest[0].dead_cols;
                if let Some((grad, seen)) = live_grad(pre, a) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        out.reset_shape(rows, ca);
                        for i in 0..rows {
                            out.row_mut(i).copy_from_slice(&gout.row(i)[..ca]);
                        }
                    });
                }
                if let Some((grad, seen)) = live_grad(pre, b) {
                    acc_with(grad, seen, &mut tmp, |out| {
                        out.reset_shape(rows, cb);
                        for i in 0..rows {
                            out.row_mut(i).copy_from_slice(&gout.row(i)[b0..]);
                        }
                    });
                }
                self.put_scratch(tmp);
            }
            Op::SliceCols(a, start, _end) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                let shape = pre[a].value.shape();
                let (grad, seen) = grad_mut(pre, a);
                acc_with(grad, seen, &mut tmp, |out| {
                    out.reset_zero(shape.0, shape.1);
                    for i in 0..gout.rows() {
                        let gr = gout.row(i);
                        out.row_mut(i)[start..start + gr.len()].copy_from_slice(gr);
                    }
                });
                self.put_scratch(tmp);
            }
            Op::GatherRows(a) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let node = &rest[0];
                let shape = pre[a].value.shape();
                let (grad, seen) = grad_mut(pre, a);
                acc_with(grad, seen, &mut tmp, |out| {
                    out.reset_zero(shape.0, shape.1);
                    for (r, &src) in node.gather.iter().enumerate() {
                        for (o, &g) in out.row_mut(src).iter_mut().zip(node.grad.row(r)) {
                            *o += g;
                        }
                    }
                });
                self.put_scratch(tmp);
            }
            Op::CumsumCols(a) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                let (grad, seen) = grad_mut(pre, a);
                acc_with(grad, seen, &mut tmp, |out| {
                    // d/dx_k sum over j >= k of gout_j => reverse cumulative sum
                    out.reset_shape(gout.rows(), gout.cols());
                    for i in 0..gout.rows() {
                        let mut acc = 0.0f32;
                        for (o, &g) in out
                            .row_mut(i)
                            .iter_mut()
                            .rev()
                            .zip(gout.row(i).iter().rev())
                        {
                            acc += g;
                            *o = acc;
                        }
                    }
                });
                self.put_scratch(tmp);
            }
            Op::Norml2(a, eps) => {
                let mut tmp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                let n = &mut pre[a];
                let (grad, seen, x) = (&mut n.grad, &mut n.grad_seen, &n.value);
                let d = x.cols() as f32;
                acc_with(grad, seen, &mut tmp, |out| {
                    out.reset_shape(x.rows(), x.cols());
                    for i in 0..x.rows() {
                        let xr = x.row(i);
                        let gr = gout.row(i);
                        let dot: f32 = xr.iter().map(|&v| v * v).sum();
                        let denom = dot + eps;
                        let denom2 = denom * denom;
                        // out_j = (x_j^2 + eps/d) / denom
                        // d out_j / d x_k =
                        //   [2 x_j delta_jk * denom - (x_j^2+eps/d) * 2 x_k] / denom^2
                        let weighted: f32 = xr
                            .iter()
                            .zip(gr)
                            .map(|(&xj, &gj)| gj * (xj * xj + eps / d))
                            .sum();
                        for (k, o) in out.row_mut(i).iter_mut().enumerate() {
                            *o = 2.0 * xr[k] * (gr[k] * denom - weighted) / denom2;
                        }
                    }
                });
                self.put_scratch(tmp);
            }
            Op::PwlInterp { tau, p, t } => {
                let mut gtau = self.take_scratch();
                let mut gp = self.take_scratch();
                let mut gt = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let node = &rest[0];
                let gout = &node.grad;
                let segments = &node.seg;
                {
                    let (vtau, vp, vt) = (&pre[tau].value, &pre[p].value, &pre[t].value);
                    let m = vtau.cols();
                    gtau.reset_zero(vtau.rows(), vtau.cols());
                    gp.reset_zero(vp.rows(), vp.cols());
                    gt.reset_zero(vt.rows(), 1);
                    // index-driven on purpose: parallel row-broadcast matrices
                    #[allow(clippy::needless_range_loop)]
                    for r in 0..vt.rows() {
                        let g = gout.get(r, 0);
                        if g == 0.0 {
                            continue;
                        }
                        let rt = if vtau.rows() == 1 { 0 } else { r };
                        let rp = if vp.rows() == 1 { 0 } else { r };
                        match segments[r] {
                            -1 => {
                                gp.set(rp, 0, gp.get(rp, 0) + g);
                            }
                            -2 => {
                                gp.set(rp, m - 1, gp.get(rp, m - 1) + g);
                            }
                            lo => {
                                let lo = lo as usize;
                                let a = vtau.get(rt, lo);
                                let b = vtau.get(rt, lo + 1);
                                let pa = vp.get(rp, lo);
                                let pb = vp.get(rp, lo + 1);
                                let tr = vt.get(r, 0);
                                let denom = (b - a).max(1e-12);
                                let alpha = (tr - a) / denom;
                                let dp = pb - pa;
                                gp.set(rp, lo, gp.get(rp, lo) + g * (1.0 - alpha));
                                gp.set(rp, lo + 1, gp.get(rp, lo + 1) + g * alpha);
                                let d2 = denom * denom;
                                gtau.set(rt, lo, gtau.get(rt, lo) + g * dp * (tr - b) / d2);
                                gtau.set(rt, lo + 1, gtau.get(rt, lo + 1) + g * dp * (a - tr) / d2);
                                gt.set(r, 0, gt.get(r, 0) + g * dp / denom);
                            }
                        }
                    }
                }
                acc_matrix(pre, tau, &gtau);
                acc_matrix(pre, p, &gp);
                acc_matrix(pre, t, &gt);
                self.put_scratch(gt);
                self.put_scratch(gp);
                self.put_scratch(gtau);
            }
            Op::BlockLinear {
                input,
                weight,
                bias,
                blocks,
            } => {
                let mut gi = self.take_scratch();
                let mut gw = self.take_scratch();
                let mut gb = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                {
                    let (vi, vw) = (&pre[input].value, &pre[weight].value);
                    let h = vw.cols();
                    gi.reset_zero(vi.rows(), vi.cols());
                    gw.reset_zero(blocks, h);
                    gb.reset_zero(1, blocks);
                    for r in 0..vi.rows() {
                        let xrow = vi.row(r);
                        let grow = gout.row(r);
                        let girow = gi.row_mut(r);
                        for (i, &g) in grow.iter().enumerate() {
                            if g == 0.0 {
                                continue;
                            }
                            gb.set(0, i, gb.get(0, i) + g);
                            let w = vw.row(i);
                            let x = &xrow[i * h..(i + 1) * h];
                            let gx = &mut girow[i * h..(i + 1) * h];
                            for k in 0..h {
                                gx[k] += g * w[k];
                            }
                            let gwrow = gw.row_mut(i);
                            for k in 0..h {
                                gwrow[k] += g * x[k];
                            }
                        }
                    }
                }
                acc_matrix(pre, input, &gi);
                acc_matrix(pre, weight, &gw);
                acc_matrix(pre, bias, &gb);
                self.put_scratch(gb);
                self.put_scratch(gw);
                self.put_scratch(gi);
            }
            Op::Lattice { input, params } => {
                let mut gi = self.take_scratch();
                let mut gp = self.take_scratch();
                let (pre, rest) = self.nodes.split_at_mut(idx);
                let gout = &rest[0].grad;
                {
                    let (vi, vp) = (&pre[input].value, &pre[params].value);
                    let m = vi.cols();
                    gi.reset_zero(vi.rows(), m);
                    gp.reset_zero(1, 1 << m);
                    for r in 0..vi.rows() {
                        let g = gout.get(r, 0);
                        if g == 0.0 {
                            continue;
                        }
                        let x = vi.row(r);
                        for mask in 0..(1usize << m) {
                            // weight and its partials
                            let mut w = 1.0f32;
                            for (j, &xj) in x.iter().enumerate() {
                                let c = xj.clamp(0.0, 1.0);
                                w *= if mask >> j & 1 == 1 { c } else { 1.0 - c };
                            }
                            gp.set(0, mask, gp.get(0, mask) + g * w);
                            let pv = vp.get(0, mask);
                            for j in 0..m {
                                let xj = x[j];
                                if !(0.0..=1.0).contains(&xj) {
                                    continue; // clamped: zero gradient to input
                                }
                                let mut dw = 1.0f32;
                                for (k, &xk) in x.iter().enumerate() {
                                    let c = xk.clamp(0.0, 1.0);
                                    if k == j {
                                        dw *= if mask >> k & 1 == 1 { 1.0 } else { -1.0 };
                                    } else {
                                        dw *= if mask >> k & 1 == 1 { c } else { 1.0 - c };
                                    }
                                }
                                gi.set(r, j, gi.get(r, j) + g * pv * dw);
                            }
                        }
                    }
                }
                acc_matrix(pre, input, &gi);
                acc_matrix(pre, params, &gp);
                self.put_scratch(gp);
                self.put_scratch(gi);
            }
        }
    }
}

// ---- in-place gradient accumulation helpers ----
//
// All of these preserve the exact arithmetic of the old allocate-then-
// accumulate sweep: the first contribution to a node *defines* its gradient
// (copy), every later one performs `existing += update` elementwise, in the
// same visit order.

/// Mutable access to a node's gradient accumulator — for single-input ops,
/// whose input is live whenever the op itself was reached.
fn grad_mut(pre: &mut [Node], t: usize) -> (&mut Matrix, &mut bool) {
    let n = &mut pre[t];
    (&mut n.grad, &mut n.grad_seen)
}

/// [`grad_mut`] for one input of a multi-input op: `None` when the sweep
/// wants no gradient at `t`.
fn live_grad(pre: &mut [Node], t: usize) -> Option<(&mut Matrix, &mut bool)> {
    pre[t].live.then(|| grad_mut(pre, t))
}

/// Gradient accumulator of node `t` (`None` when `t` is dead) together with
/// the *value* of node `s`, handling `t == s` (gradient and value of one
/// node are disjoint fields).
fn live_grad_and_value(
    pre: &mut [Node],
    t: usize,
    s: usize,
) -> Option<(&mut Matrix, &mut bool, &Matrix)> {
    use std::cmp::Ordering;
    if !pre[t].live {
        return None;
    }
    Some(match t.cmp(&s) {
        Ordering::Equal => {
            let n = &mut pre[t];
            (&mut n.grad, &mut n.grad_seen, &n.value)
        }
        Ordering::Less => {
            let (lo, hi) = pre.split_at_mut(s);
            let n = &mut lo[t];
            (&mut n.grad, &mut n.grad_seen, &hi[0].value)
        }
        Ordering::Greater => {
            let (lo, hi) = pre.split_at_mut(t);
            let n = &mut hi[0];
            (&mut n.grad, &mut n.grad_seen, &lo[s].value)
        }
    })
}

/// Accumulates a fully-formed gradient matrix into node `t`, if the sweep
/// wants one there.
fn acc_matrix(pre: &mut [Node], t: usize, src: &Matrix) {
    let n = &mut pre[t];
    if !n.live {
        return;
    }
    if n.grad_seen {
        n.grad.add_assign(src);
    } else {
        n.grad.copy_from(src);
        n.grad_seen = true;
    }
}

/// Accumulates a constant `s` broadcast over a `shape`-d gradient buffer
/// (the scalar-reduction backward of `sum` / `mean`).
fn acc_fill(grad: &mut Matrix, seen: &mut bool, shape: (usize, usize), s: f32) {
    if *seen {
        for gd in grad.data_mut() {
            *gd += s;
        }
    } else {
        grad.reset_shape(shape.0, shape.1);
        grad.fill(s);
        *seen = true;
    }
}

/// Accumulates `f(gout)` elementwise into a gradient buffer.
fn acc_map(grad: &mut Matrix, seen: &mut bool, gout: &Matrix, f: impl Fn(f32) -> f32) {
    if *seen {
        for (gd, &go) in grad.data_mut().iter_mut().zip(gout.data()) {
            *gd += f(go);
        }
    } else {
        grad.reset_shape(gout.rows(), gout.cols());
        for (gd, &go) in grad.data_mut().iter_mut().zip(gout.data()) {
            *gd = f(go);
        }
        *seen = true;
    }
}

/// Accumulates `f(gout, aux)` elementwise into a gradient buffer, where
/// `aux` is a same-shape companion matrix (an input or output value).
fn acc_zip(
    grad: &mut Matrix,
    seen: &mut bool,
    gout: &Matrix,
    aux: &Matrix,
    f: impl Fn(f32, f32) -> f32,
) {
    debug_assert_eq!(gout.shape(), aux.shape());
    if *seen {
        for ((gd, &go), &x) in grad.data_mut().iter_mut().zip(gout.data()).zip(aux.data()) {
            *gd += f(go, x);
        }
    } else {
        grad.reset_shape(gout.rows(), gout.cols());
        for ((gd, &go), &x) in grad.data_mut().iter_mut().zip(gout.data()).zip(aux.data()) {
            *gd = f(go, x);
        }
        *seen = true;
    }
}

/// Runs `compute` into the gradient buffer directly on the first
/// contribution, or into `tmp` followed by an in-place add on later ones.
/// `compute` must reshape and fully define its output.
fn acc_with(
    grad: &mut Matrix,
    seen: &mut bool,
    tmp: &mut Matrix,
    compute: impl FnOnce(&mut Matrix),
) {
    if *seen {
        compute(tmp);
        grad.add_assign(tmp);
    } else {
        compute(grad);
        *seen = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_simple_chain() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
        let r = g.relu(x);
        assert_eq!(g.value(r).data(), &[1.0, 0.0]);
        let s = g.sum(r);
        assert_eq!(g.value(s).get(0, 0), 1.0);
    }

    #[test]
    fn backward_matmul_chain() {
        // loss = sum(A * B); dL/dA = ones * B^T, dL/dB = A^T * ones
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.leaf(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        g.backward(loss);
        assert_eq!(g.grad(a).data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(g.grad(b).data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn norml2_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(
            2,
            4,
            vec![0.5, -1.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        ));
        let y = g.norml2(x, 1e-6);
        for i in 0..2 {
            let s: f32 = g.value(y).row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
            assert!(g.value(y).row(i).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn cumsum_forward_and_backward() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let c = g.cumsum_cols(x);
        assert_eq!(g.value(c).data(), &[1.0, 3.0, 6.0]);
        let s = g.sum(c);
        g.backward(s);
        // d/dx_k = number of outputs depending on x_k = 3 - k
        assert_eq!(g.grad(x).data(), &[3.0, 2.0, 1.0]);
    }

    #[test]
    fn pwl_interp_basic() {
        let mut g = Graph::new();
        let tau = g.leaf(Matrix::row_vector(&[0.0, 1.0, 2.0]));
        let p = g.leaf(Matrix::row_vector(&[0.0, 10.0, 30.0]));
        let t = g.leaf(Matrix::col_vector(&[0.5, 1.5, -1.0, 5.0]));
        let y = g.pwl_interp(tau, p, t);
        let v = g.value(y);
        assert_eq!(v.data(), &[5.0, 20.0, 0.0, 30.0]);
    }

    #[test]
    fn pwl_interp_monotone_when_p_nondecreasing() {
        let mut g = Graph::new();
        let tau = g.leaf(Matrix::row_vector(&[0.0, 0.3, 0.9, 2.0]));
        let p = g.leaf(Matrix::row_vector(&[0.0, 1.0, 1.0, 7.0]));
        let ts: Vec<f32> = (0..50).map(|i| i as f32 * 0.05).collect();
        let t = g.leaf(Matrix::col_vector(&ts));
        let y = g.pwl_interp(tau, p, t);
        let v = g.value(y);
        for i in 1..ts.len() {
            assert!(v.get(i, 0) >= v.get(i - 1, 0) - 1e-6);
        }
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let y = g.softmax_rows(x);
        for i in 0..2 {
            let s: f32 = g.value(y).row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn block_linear_matches_manual() {
        let mut g = Graph::new();
        // 2 blocks of width 2
        let x = g.leaf(Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let w = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 0.5, -1.0, 2.0]));
        let b = g.leaf(Matrix::row_vector(&[0.1, -0.2]));
        let y = g.block_linear(x, w, b);
        let v = g.value(y);
        assert!((v.get(0, 0) - (1.0 + 1.0 + 0.1)).abs() < 1e-6);
        assert!((v.get(0, 1) - (-3.0 + 8.0 - 0.2)).abs() < 1e-6);
    }

    #[test]
    fn lattice_interpolates_corners_and_centers() {
        let mut g = Graph::new();
        // 2-d lattice with vertex values 0,1,2,3 for masks 00,01,10,11
        let p = g.leaf(Matrix::row_vector(&[0.0, 1.0, 2.0, 3.0]));
        let x = g.leaf(Matrix::from_vec(3, 2, vec![0.0, 0.0, 1.0, 1.0, 0.5, 0.5]));
        let y = g.lattice(x, p);
        let v = g.value(y);
        assert!((v.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((v.get(1, 0) - 3.0).abs() < 1e-6);
        assert!((v.get(2, 0) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn huber_quadratic_and_linear_regimes() {
        let mut g = Graph::new();
        let r = g.leaf(Matrix::row_vector(&[0.5, 3.0]));
        let h = g.huber(r, 1.0);
        let v = g.value(h);
        assert!((v.get(0, 0) - 0.125).abs() < 1e-6);
        assert!((v.get(0, 1) - (3.0 - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn reset_recycles_slots_without_growing_the_arena() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let y = g.square(x);
        let loss = g.sum(y);
        g.backward(loss);
        let cap = g.node_capacity();
        for _ in 0..5 {
            g.reset();
            let x = g.leaf_with(2, 2, |d| d.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]));
            let y = g.square(x);
            let loss = g.sum(y);
            g.backward(loss);
            assert_eq!(g.grad(x).data(), &[2.0, 4.0, 6.0, 8.0]);
            assert_eq!(g.node_capacity(), cap, "arena must not grow on reuse");
        }
    }

    /// The liveness pass keeps `concat(constant, live)`'s gradient narrow
    /// exactly when every consumer is a `MatMul` left operand, and only on
    /// the parameters-only sweep.
    #[test]
    fn concat_gradient_is_narrow_only_under_matmul_left_operands() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_fn(3, 5, |i, j| (i + j) as f32 * 0.1));
        let w = g.param_leaf(ParamId(0), &Matrix::full(1, 2, 0.5));
        let ones = g.leaf(Matrix::full(3, 1, 1.0));
        let z = g.matmul(ones, w);
        let narrow = g.concat_cols(x, z);
        let wide = g.concat_cols(x, z);
        let m = g.param_leaf(ParamId(1), &Matrix::full(7, 2, 0.25));
        let a = g.matmul(narrow, m);
        let b = g.matmul(wide, m);
        let ab = g.add(a, b);
        let s1 = g.sum(ab);
        let s2 = g.sum(wide); // a second, non-MatMul consumer
        let loss = g.add(s1, s2);

        g.backward_params(loss);
        assert_eq!(g.nodes[narrow.0].dead_cols, 5);
        assert_eq!(g.nodes[narrow.0].grad.shape(), (3, 2));
        assert_eq!(g.nodes[wide.0].dead_cols, 0);
        assert_eq!(g.nodes[wide.0].grad.shape(), (3, 7));
        assert!(!g.grad_reached(x) && !g.grad_reached(ones));
        assert_eq!(g.grad(narrow).shape(), (3, 7));
        let gw = g.grad(w);

        g.backward(loss);
        assert_eq!(g.nodes[narrow.0].dead_cols, 0);
        assert_eq!(g.nodes[narrow.0].grad.shape(), (3, 7));
        assert!(g.grad_reached(x) && g.grad_reached(ones));
        assert_eq!(g.grad(w), gw);
    }

    #[test]
    #[should_panic(expected = "stale Var")]
    fn stale_var_panics_after_reset() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(1, 1));
        g.reset();
        let _ = g.value(x);
    }
}
