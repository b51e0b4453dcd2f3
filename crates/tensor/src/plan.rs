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
//! Compilation is four passes over one lowering state (see
//! [`InferencePlan::compile`]): **capture** validates the declared inputs
//! against the probe tape; **DCE** computes reachability and use counts
//! from the outputs; **lower/fuse** emits one symbolic instruction per
//! surviving node, baking parameters and fusing
//! `matmul → add_row_vec → activation` chains; **buffer assignment**
//! resolves node ids to dense arena slots and counts the per-row work the
//! replay-thread gate reads.
//!
//! Every instruction is **row-independent** over the batch dimension, which
//! is what lets [`InferencePlan::run_chunked`] split a wave anywhere. The
//! tape ops that are not — the `sum` / `mean` batch reductions and
//! `gather_rows`, whose output row reads another row of its input (it
//! exists for training batches) — have no instruction, and neither do
//! `pwl_interp` (the served program stops at the control points;
//! interpolation runs outside the plan on [`crate::pwl_interp_row`]) and
//! `lattice` (no served model has one): compiling a tape that reaches one
//! of them is a [`PlanError`] naming the op.
//!
//! ## Row scaling
//!
//! A plan is compiled from a probe tape recorded at some **probe batch
//! size** `B0` and replayed at any row count: every slot is classified as
//! *batch-scaled* (rows follow the run's row count) or *fixed* (rows are
//! whatever the probe recorded). Every declared input is batch-scaled;
//! classification propagates from there through the op semantics, baked
//! parameters and constants are fixed, and a constant leaf whose row
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
    /// tail, monomorphized per variant like [`UnOp::run`]: a separate
    /// cache-hot pass after `matmul_into`.
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
    BlockLinear {
        input: Arg,
        weight: Arg,
        bias: Arg,
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
            | Instr::RowSum { out, .. }
            | Instr::ConcatCols { out, .. }
            | Instr::SliceCols { out, .. }
            | Instr::CumsumCols { out, .. }
            | Instr::Norml2 { out, .. }
            | Instr::BlockLinear { out, .. } => out,
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

    /// Runs `f` with an arena drawn from the **process-global free list**
    /// behind [`InferencePlan::run_chunked`].
    ///
    /// Chunked replay workers are `std::thread::scope` threads that die at
    /// the end of every wave, so [`PlanBuffers::with_pooled`]'s
    /// thread-local arenas can never survive from one wave to the next.
    /// This pool survives instead: an arena is popped under a brief lock
    /// (or freshly created when the list is empty), used lock-free for the
    /// whole replay, and pushed back afterwards. Any arena serves any plan
    /// ([`InferencePlan::run`] reshapes the buffers and keeps their
    /// capacity), so the list is one `Vec` for the whole process: a plan
    /// retired by a hot swap leaves nothing behind, and steady-state chunk
    /// replays stay allocation-free like the thread-local path. If `f`
    /// panics the arena is simply dropped, never returned poisoned.
    fn with_shared<R>(f: impl FnOnce(&mut PlanBuffers) -> R) -> R {
        let mut arena = SHARED_ARENAS
            .lock()
            .expect("arena pool poisoned")
            .pop()
            .unwrap_or_default();
        let r = f(&mut arena);
        let mut pool = SHARED_ARENAS.lock().expect("arena pool poisoned");
        if pool.len() < SHARED_ARENA_CAP {
            pool.push(arena);
        }
        r
    }
}

/// Arenas [`PlanBuffers::with_shared`] retains; beyond this, returns are
/// dropped so a one-off wide fan-out can't pin memory forever.
const SHARED_ARENA_CAP: usize = 64;
static SHARED_ARENAS: std::sync::Mutex<Vec<PlanBuffers>> = std::sync::Mutex::new(Vec::new());

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
    /// Buffer ids of the run-time inputs (all batch-scaled), in
    /// `compile`'s `inputs` order.
    input_bufs: Vec<u32>,
    outputs: Vec<Arg>,
    /// Counted multiply-add estimate **per batch row** of one replay
    /// (matmul/affine inner products dominate; elementwise ops count one
    /// per output element). Drives the chunked-replay engagement
    /// threshold — see [`InferencePlan::replay_threads`].
    flops_per_row: usize,
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
    /// Compiles the live tape of `g` into a plan: capture → DCE →
    /// lower/fuse → buffer assignment.
    ///
    /// * `inputs` — leaves to re-bind on every run. Every input is
    ///   batch-scaled (rows follow the run's row count); all must share
    ///   the probe row count `B0`.
    /// * `outputs` — the nodes whose values [`PlanOutputs::output`]
    ///   exposes. Nodes no output depends on are eliminated.
    ///
    /// Errors when a referenced `Var` is stale, an input is not a plain
    /// constant leaf, inputs disagree on the probe row count, a reachable
    /// op has no instruction (`pwl_interp`, `lattice`, `sum`, `mean`,
    /// `gather_rows`), or
    /// row scaling cannot be propagated consistently (e.g. an elementwise
    /// op mixing a batch-scaled and a fixed operand).
    pub fn compile(g: &Graph, inputs: &[Var], outputs: &[Var]) -> Result<InferencePlan, PlanError> {
        // flight-recorder hook: inert unless the process-global recorder
        // was armed (e.g. selnet-serve --trace-buffer)
        let mut span = selnet_obs::trace::global().span("plan_compile", 0);
        let nodes = g.live_nodes();
        let b0 = pass_capture(nodes, inputs, outputs)?;
        let dce = pass_dce(nodes, outputs);
        let lowered = pass_lower(nodes, inputs, b0, &dce)?;
        let plan = pass_assign_buffers(nodes, inputs, outputs, lowered)?;
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
            let m = &mut bufs.bufs[b as usize];
            m.reset_zero(rows, self.buf_shapes[b as usize].1);
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
    pub fn replay_threads(&self, rows: usize, requested: usize) -> usize {
        if rows < 2 {
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
    /// never across rows); and no instruction crosses rows (the tape's
    /// batch reductions do not compile). Fixed-shape (non-batch)
    /// instructions are recomputed per chunk from identical inputs —
    /// redundant arithmetic, identical bits.
    ///
    /// * `offsets` — `rows + 1` non-decreasing prefix offsets into `out`:
    ///   batch row `r` owns `out[offsets[r]..offsets[r + 1]]` (a query row
    ///   owns one slot per threshold; `0..=rows` gives one slot per row).
    ///   Each chunk writes the disjoint sub-slice of its rows.
    /// * `fill(input, first_row, m)` — like [`InferencePlan::run`]'s fill
    ///   but with the chunk's first global row: copy rows
    ///   `first_row..first_row + m.rows()`.
    /// * `consume(first_row, outputs, chunk)` — scatter the chunk's
    ///   replay outputs (row `j` of a batch output is global row
    ///   `first_row + j`) into `chunk`, which starts at
    ///   `offsets[first_row]`.
    ///
    /// With one engaged thread this *is* the serial path:
    /// [`PlanBuffers::with_pooled`] arena, one `run`, one consume — the
    /// single-thread floors in `BENCH_serve.json` time this exact route.
    /// Engaged chunks (the first on the calling thread, see
    /// [`crate::parallel::fork_join`]) draw arenas from the process-wide
    /// free list instead, since scoped workers die at wave end and
    /// thread-local arenas would never be reused.
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
            PlanBuffers::with_shared(|bufs| {
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
            Instr::RowSum { a, .. } => fwd::row_sum(val(a), out),
            Instr::ConcatCols { a, b, .. } => fwd::concat_cols(val(a), val(b), out),
            Instr::SliceCols { a, start, end, .. } => {
                fwd::slice_cols(val(a), start as usize, end as usize, out)
            }
            Instr::CumsumCols { a, .. } => fwd::cumsum_cols(val(a), out),
            Instr::Norml2 { a, eps, .. } => fwd::norml2(val(a), eps, out),
            Instr::BlockLinear {
                input,
                weight,
                bias,
                ..
            } => fwd::block_linear(val(input), val(weight), val(bias), out),
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
    BlockLinear {
        input: usize,
        weight: usize,
        bias: usize,
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
        }
    }
}

// ---------------------------------------------------------------------
// The pass pipeline. Each pass is a free function over the probe tape
// (`&[Node]`) or the partially-built plan; `compile` chains them.
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
}

/// Capture pass: validates the probe tape against the requested
/// interface (live `Var`s, inputs are plain constant leaves) and reads
/// the probe batch row count `B0` off the inputs.
fn pass_capture(
    nodes: &[Node],
    inputs: &[Var],
    outputs: &[Var],
) -> Result<Option<usize>, PlanError> {
    let n = nodes.len();
    for v in inputs.iter().chain(outputs) {
        if v.0 >= n {
            return err("stale Var (recorded before the last reset?)");
        }
    }
    let mut b0: Option<usize> = None;
    for v in inputs {
        if !matches!(nodes[v.0].op, Op::Leaf) {
            return err("plan inputs must be constant leaves");
        }
        if nodes[v.0].param.is_some() {
            return err("a parameter leaf cannot be a plan input");
        }
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
    inputs: &[Var],
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
    let mut is_input = vec![false; n];
    for v in inputs {
        is_input[v.0] = true;
    }

    for i in 0..n {
        if !dce.reachable[i] {
            continue;
        }
        let node = &nodes[i];
        let (rows, cols) = node.value.shape();
        match node.op {
            Op::Leaf => {
                if is_input[i] {
                    spec[i] = Some(RowSpec::Batch);
                    vals[i] = NodeVal::Node;
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
    })
}

/// Buffer-assignment pass: gives inputs then surviving instruction
/// outputs dense buffer ids in execution order (so operand < out) and
/// resolves the symbolic program into the final [`InferencePlan`].
fn pass_assign_buffers(
    nodes: &[Node],
    inputs: &[Var],
    outputs: &[Var],
    lowered: Lowered,
) -> Result<InferencePlan, PlanError> {
    let Lowered {
        spec,
        vals,
        consts,
        sym,
    } = lowered;
    let n = nodes.len();
    let mut buf_of: Vec<Option<u32>> = vec![None; n];
    let mut buf_shapes: Vec<(RowSpec, usize)> = Vec::new();
    let mut input_bufs = Vec::with_capacity(inputs.len());
    for (k, v) in inputs.iter().enumerate() {
        if matches!(vals[v.0], NodeVal::None) {
            return err(format!("input {k} is unreachable from the plan outputs"));
        }
        let id = buf_shapes.len() as u32;
        buf_of[v.0] = Some(id);
        buf_shapes.push((RowSpec::Batch, nodes[v.0].value.cols()));
        input_bufs.push(id);
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

    let flops_per_row = pass_cost(&instrs, &buf_shapes, &consts);
    Ok(InferencePlan {
        instrs,
        consts,
        buf_shapes,
        input_bufs,
        outputs,
        flops_per_row,
    })
}

/// Cost analysis over the resolved instruction stream: the counted
/// multiply-add estimate of one batch row. Inner-product ops count
/// `inner × out_cols`, block-linear its weight elements, everything
/// elementwise one per output element. It is an engagement heuristic (the
/// replay-threads derivation above), not an exact FLOP audit — constants
/// chosen so the skinny serving shapes land where measurement says they
/// should.
fn pass_cost(instrs: &[Instr], buf_shapes: &[(RowSpec, usize)], consts: &[Matrix]) -> usize {
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
    let mut flops = 0usize;
    for instr in instrs {
        let (out_spec, out_cols) = buf_shapes[instr.out() as usize];
        if out_spec == RowSpec::Batch {
            flops += match *instr {
                Instr::Affine { x, .. } => arg_cols(x) * out_cols,
                Instr::MatMul { a, .. } => arg_cols(a) * out_cols,
                Instr::BlockLinear { weight, .. } => arg_elems(weight),
                _ => out_cols,
            };
        }
    }
    flops
}

fn no_instruction<T>(op: &str) -> Result<T, PlanError> {
    err(format!("tape op `{op}` has no plan instruction"))
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
        // No instruction: the served program stops at the control points
        // (interpolation runs outside the plan), no served model has a
        // lattice, and a batch reduction would tie together rows that
        // `run_chunked` splits.
        Op::PwlInterp { .. } => return no_instruction("pwl_interp"),
        Op::Lattice { .. } => return no_instruction("lattice"),
        Op::Sum(_) => return no_instruction("sum"),
        Op::Mean(_) => return no_instruction("mean"),
        Op::GatherRows(_) => return no_instruction("gather_rows"),
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
        let plan = InferencePlan::compile(&g, &[xv], &[y]).expect("compilable");
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

    /// The two constant shapes of the curve plan: a one-row constant stays
    /// one row at every batch size (the shared τ of
    /// `query_dependent_tau = false`), a constant with the probe's row
    /// count follows the batch (the zeros column of the query-dependent τ).
    #[test]
    fn fixed_const_and_broadcast_const() {
        let record = |g: &mut Graph, x: &Matrix| {
            let xv = g.leaf_ref(x);
            let ones = g.leaf_with(1, 3, |d| d.fill(1.0));
            let shared_tau = g.cumsum_cols(ones);
            let zeros = g.leaf_with(x.rows(), 1, |_| {});
            let tau = g.concat_cols(zeros, xv);
            (xv, shared_tau, tau)
        };
        let mut g = Graph::new();
        let probe = Matrix::from_fn(2, 2, |i, j| (i + 2 * j) as f32);
        let (xv, shared_tau, tau) = record(&mut g, &probe);
        let plan = InferencePlan::compile(&g, &[xv], &[shared_tau, tau]).expect("compiles");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 5] {
            let x = Matrix::from_fn(rows, 2, |i, j| ((i * 2 + j) as f32).cos());
            let out = plan.run(&mut bufs, rows, |_, m| {
                m.data_mut().copy_from_slice(x.data())
            });
            let mut fresh = Graph::new();
            let (_, fshared, ftau) = record(&mut fresh, &x);
            assert_eq!(out.output(0).shape(), (1, 3), "rows {rows}");
            assert_eq!(out.output(0).data(), fresh.value(fshared).data());
            assert_eq!(out.output(1).shape(), (rows, 3));
            assert_eq!(out.output(1).data(), fresh.value(ftau).data());
        }
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
        let e = InferencePlan::compile(&g, &[a], &[c]).unwrap_err();
        assert!(e.to_string().contains("cannot"), "{e}");
    }

    /// Compiling `op(x)` must be refused with an error naming `name`.
    fn assert_refused(name: &str, op: impl FnOnce(&mut Graph, Var) -> Var) {
        let mut g = Graph::new();
        let xv = g.leaf_with(2, 3, |d| d.fill(0.25));
        let y = op(&mut g, xv);
        let e = InferencePlan::compile(&g, &[xv], &[y]).unwrap_err();
        assert!(e.to_string().contains(&format!("`{name}`")), "{e}");
    }

    #[test]
    fn pwl_interp_is_refused_by_name() {
        assert_refused("pwl_interp", |g, x| {
            let tau = g.cumsum_cols(x);
            let t = g.leaf_with(2, 1, |d| d.fill(0.3));
            g.pwl_interp(tau, x, t)
        });
    }

    #[test]
    fn lattice_is_refused_by_name() {
        assert_refused("lattice", |g, x| {
            let params = g.leaf_with(1, 8, |d| d.fill(0.5));
            g.lattice(x, params)
        });
    }

    #[test]
    fn sum_is_refused_by_name() {
        assert_refused("sum", |g, x| g.sum(x));
    }

    #[test]
    fn mean_is_refused_by_name() {
        assert_refused("mean", |g, x| g.mean(x));
    }

    #[test]
    fn gather_rows_is_refused_by_name() {
        assert_refused("gather_rows", |g, x| g.gather_rows(x, &[1, 0, 1]));
    }

    /// Shared tape fixture for the chunked-replay tests: a two-layer MLP
    /// `relu(x@w1+b1)@w2+b2`.
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
        let plan = InferencePlan::compile(&g, &[xv], &[y]).unwrap();
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

    /// Replays `x` through `plan` in `chunks` forced row chunks, one output
    /// row (3 values) per batch row; `held` runs in every chunk while it
    /// still holds its arena.
    fn run_forced(
        plan: &InferencePlan,
        x: &Matrix,
        chunks: usize,
        held: impl Fn() + Sync,
    ) -> Vec<f32> {
        let offsets: Vec<usize> = (0..=x.rows()).map(|r| 3 * r).collect();
        let mut got = vec![0.0f32; 3 * x.rows()];
        plan.run_in_chunks(
            &offsets,
            chunks,
            &mut got,
            |_, first_row, m| {
                let take = m.rows() * 6;
                m.data_mut()
                    .copy_from_slice(&x.data()[first_row * 6..first_row * 6 + take]);
            },
            |_, run, chunk| {
                held();
                chunk.copy_from_slice(run.output(0).data());
            },
        );
        got
    }

    /// A hot swap compiles a new plan; the arenas the retired one used must
    /// not pile up behind it. 200 plans chunk-replayed in turn share one
    /// free list that never outgrows its cap — not even after a wave that
    /// holds more arenas at once than the cap — and every chunked answer
    /// is the serial one bit for bit.
    #[test]
    fn arena_pool_stays_bounded_across_many_plans() {
        let pooled = || SHARED_ARENAS.lock().expect("arena pool poisoned").len();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let compile = || {
            let (g, xv, y) = mlp_fixture();
            InferencePlan::compile(&g, &[xv], &[y]).unwrap()
        };
        let x = Matrix::from_fn(7, 6, |i, j| ((i * 6 + j) as f32).sin());
        for _ in 0..200 {
            let plan = compile();
            assert_eq!(
                bits(&run_forced(&plan, &x, 3, || {})),
                bits(&run_plan(&plan, &x))
            );
            assert!(pooled() <= SHARED_ARENA_CAP);
        }
        // every chunk waits for all the others with its arena in hand
        let wide = SHARED_ARENA_CAP + 8;
        let plan = compile();
        let x = Matrix::from_fn(wide, 6, |i, j| ((i * 6 + j) as f32).cos());
        let all_out = std::sync::Barrier::new(wide);
        let got = run_forced(&plan, &x, wide, || {
            all_out.wait();
        });
        assert_eq!(bits(&got), bits(&run_plan(&plan, &x)));
        assert!(pooled() <= SHARED_ARENA_CAP);
    }
}
