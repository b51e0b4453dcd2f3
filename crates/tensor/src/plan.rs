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
//!   (no per-call injection), and fuses each `matmul → add_row_vec`
//!   pair, with the `relu` that follows it, into one affine instruction;
//! * **replay allocation-free** — [`InferencePlan::run`] executes the
//!   instruction list into a caller-provided [`PlanBuffers`] arena whose
//!   matrices keep their capacity across calls, for any batch row count;
//! * **bit-identical by construction** — every instruction calls the same
//!   `fwd` kernels the tape ops call (and the fused affine performs exactly
//!   the tape's `matmul`, `+bias`, `relu` scalar sequence), so a plan
//!   replay produces the same bits as the tape forward pass. The property
//!   suite (`tests/plan_properties.rs`) pins this over random networks,
//!   shapes, and batch sizes.
//!
//! ## The instruction set
//!
//! The compiled program is the one a SelNet model serves: the networks
//! map the query object `x` alone to control points `(τ, p)`, and the
//! threshold enters only outside the plan (the interpolation of Eq. (1)
//! runs on [`crate::pwl_interp_row`]). So a plan has **one input**, the
//! batch of `x` rows, and eight instructions: `Affine` (with or without a
//! fused ReLU), `Unary` (ReLU or `Scale`), `Norml2`, `SoftmaxRows`,
//! `CumsumCols`, `ConcatCols`, `Broadcast` and `BlockLinear`. Compiling a
//! tape that reaches any other op — the `sum` / `mean` batch reductions
//! and `gather_rows` (whose output row reads another row of its input),
//! `pwl_interp`, `lattice`, the other elementwise ops, or a `matmul` that
//! does not fuse into an affine — is a [`PlanError`] naming the op. Every
//! instruction is **row-independent** over the batch dimension: a row's
//! outputs read that row of the input and nothing else.
//!
//! ## The pass pipeline
//!
//! Compilation is four passes over one lowering state (see
//! [`InferencePlan::compile`]): **capture** validates the input and
//! outputs against the probe tape; **DCE** computes reachability, use
//! counts and the matmuls that fuse; **lower** emits one instruction per
//! surviving node, named by node ids, baking parameters and fusing
//! affines; **buffer assignment** resolves node ids to dense arena slots.
//!
//! ## Row scaling
//!
//! A plan is compiled from a probe tape recorded at some **probe batch
//! size** `B0` and replayed at any row count: every slot is classified as
//! *batch-scaled* (rows follow the run's row count) or *fixed* (rows are
//! whatever the probe recorded). The input is batch-scaled;
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

/// A resolved instruction operand: either a run-time buffer slot or a
/// baked constant (parameter / constant leaf).
#[derive(Clone, Copy, Debug)]
enum Arg {
    Buf(u32),
    Const(u32),
}

/// The elementwise ops the served program applies outside an affine.
#[derive(Clone, Copy, Debug)]
enum UnOp {
    Relu,
    Scale(f32),
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

/// One compiled forward instruction, generic over its operand `A`: tape
/// node ids while the tape is lowered, [`Arg`]s once buffers are assigned.
/// Instruction `i` writes buffer `i + 1` (buffer 0 is the input), so every
/// operand names an earlier buffer.
#[derive(Clone, Copy, Debug)]
enum Instr<A> {
    /// Replicates a baked single-row constant to the run's row count
    /// (batch-broadcast constant leaves, e.g. an all-zeros column).
    Broadcast {
        src: u32,
    },
    /// Fused `x @ w + b`, followed by ReLU when `relu` is set.
    Affine {
        x: A,
        w: A,
        b: A,
        relu: bool,
    },
    Unary {
        op: UnOp,
        a: A,
    },
    SoftmaxRows {
        a: A,
    },
    ConcatCols {
        a: A,
        b: A,
    },
    CumsumCols {
        a: A,
    },
    Norml2 {
        a: A,
        eps: f32,
    },
    BlockLinear {
        input: A,
        weight: A,
        bias: A,
    },
}

impl<A> Instr<A> {
    /// The same instruction with every operand mapped through `f`.
    fn map<B>(self, mut f: impl FnMut(A) -> B) -> Instr<B> {
        match self {
            Instr::Broadcast { src } => Instr::Broadcast { src },
            Instr::Affine { x, w, b, relu } => Instr::Affine {
                x: f(x),
                w: f(w),
                b: f(b),
                relu,
            },
            Instr::Unary { op, a } => Instr::Unary { op, a: f(a) },
            Instr::SoftmaxRows { a } => Instr::SoftmaxRows { a: f(a) },
            Instr::ConcatCols { a, b } => Instr::ConcatCols { a: f(a), b: f(b) },
            Instr::CumsumCols { a } => Instr::CumsumCols { a: f(a) },
            Instr::Norml2 { a, eps } => Instr::Norml2 { a: f(a), eps },
            Instr::BlockLinear {
                input,
                weight,
                bias,
            } => Instr::BlockLinear {
                input: f(input),
                weight: f(weight),
                bias: f(bias),
            },
        }
    }

    /// The instruction's name in [`InferencePlan::instructions`].
    fn name(&self) -> &'static str {
        match self {
            Instr::Broadcast { .. } => "broadcast",
            Instr::Affine { relu: false, .. } => "affine",
            Instr::Affine { relu: true, .. } => "affine_relu",
            Instr::Unary { op: UnOp::Relu, .. } => "relu",
            Instr::Unary {
                op: UnOp::Scale(_), ..
            } => "scale",
            Instr::SoftmaxRows { .. } => "softmax_rows",
            Instr::ConcatCols { .. } => "concat_cols",
            Instr::CumsumCols { .. } => "cumsum_cols",
            Instr::Norml2 { .. } => "norml2",
            Instr::BlockLinear { .. } => "block_linear",
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
}

/// Read-only view of a finished replay's outputs, borrowing the arena.
pub struct PlanOutputs<'a> {
    plan: &'a InferencePlan,
    bufs: &'a PlanBuffers,
}

impl PlanOutputs<'_> {
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
    instrs: Vec<Instr<Arg>>,
    /// Baked parameter/constant values (and single rows of batch-broadcast
    /// constants).
    consts: Vec<Matrix>,
    /// `(RowSpec, cols)` per buffer slot: the input at 0, instruction
    /// `i`'s output at `i + 1`.
    buf_shapes: Vec<(RowSpec, usize)>,
    outputs: Vec<Arg>,
}

impl InferencePlan {
    /// Compiles the live tape of `g` into a plan: capture → DCE → lower →
    /// buffer assignment.
    ///
    /// * `input` — the leaf re-bound on every run. It is batch-scaled
    ///   (rows follow the run's row count); its probe row count is `B0`.
    /// * `outputs` — the nodes whose values [`PlanOutputs::output`]
    ///   exposes. Nodes no output depends on are eliminated.
    ///
    /// Errors when a referenced `Var` is stale, the input is not a plain
    /// constant leaf or no output reads it, a reachable op has no
    /// instruction (see the module docs), or row scaling cannot be
    /// propagated consistently (e.g. `concat_cols` of a batch-scaled and a
    /// fixed operand).
    pub fn compile(g: &Graph, input: Var, outputs: &[Var]) -> Result<InferencePlan, PlanError> {
        // flight-recorder hook: inert unless the process-global recorder
        // was armed (e.g. selnet-serve --trace-buffer)
        let mut span = selnet_obs::trace::global().span("plan_compile", 0);
        let nodes = g.live_nodes();
        pass_capture(nodes, input, outputs)?;
        let dce = pass_dce(nodes, outputs);
        if !dce.reachable[input.0] {
            return err("the input is unreachable from the plan outputs");
        }
        let lowered = pass_lower(nodes, input.0, &dce)?;
        let plan = pass_assign_buffers(nodes, input.0, outputs, lowered);
        span.set_detail(plan.instrs.len() as u64, plan.outputs.len() as u64);
        Ok(plan)
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The compiled instruction stream by name, in execution order (after
    /// dead-code elimination and affine fusion) — diagnostics for tests
    /// and benches: `affine`, `affine_relu`, `relu`, `scale`, `norml2`,
    /// `softmax_rows`, `cumsum_cols`, `concat_cols`, `broadcast`,
    /// `block_linear`.
    pub fn instructions(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.instrs.iter().map(Instr::name)
    }

    /// Replays the plan at `rows` batch rows.
    ///
    /// `fill` is called once with the input's zeroed, already-shaped
    /// buffer — write the batch data in place. Returns an accessor over
    /// the output matrices, which borrow `bufs` until dropped.
    pub fn run<'b>(
        &'b self,
        bufs: &'b mut PlanBuffers,
        rows: usize,
        fill: impl FnOnce(&mut Matrix),
    ) -> PlanOutputs<'b> {
        let _span = selnet_obs::trace::global()
            .span("plan_run", 0)
            .detail(rows as u64, self.instrs.len() as u64);
        if bufs.bufs.len() < self.buf_shapes.len() {
            bufs.bufs
                .resize_with(self.buf_shapes.len(), Matrix::default);
        }
        let input = &mut bufs.bufs[0];
        input.reset_zero(rows, self.buf_shapes[0].1);
        fill(input);
        for (i, instr) in self.instrs.iter().enumerate() {
            self.exec(instr, i + 1, &mut bufs.bufs, rows);
        }
        PlanOutputs { plan: self, bufs }
    }

    /// Runs `instr` into buffer `out_id`.
    fn exec(&self, instr: &Instr<Arg>, out_id: usize, bufs: &mut [Matrix], rows: usize) {
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
            Instr::Broadcast { src } => {
                let row = &self.consts[src as usize];
                if row.cols() == 1 {
                    out.fill(row.get(0, 0));
                } else {
                    for chunk in out.data_mut().chunks_exact_mut(row.cols()) {
                        chunk.copy_from_slice(row.row(0));
                    }
                }
            }
            Instr::Affine { x, w, b, relu } => {
                // exactly the tape's matmul → +bias → relu scalar
                // sequence, in one output buffer (the epilogue runs as a
                // cache-hot pass over the matmul result)
                val(x).matmul_into(val(w), out);
                if relu {
                    bias_act(val(b), out, fwd::relu)
                } else {
                    bias_act(val(b), out, |v| v)
                }
            }
            Instr::Unary { op: UnOp::Relu, a } => fwd::unary_map(val(a), out, fwd::relu),
            Instr::Unary {
                op: UnOp::Scale(alpha),
                a,
            } => fwd::unary_map(val(a), out, |x| x * alpha),
            Instr::SoftmaxRows { a } => fwd::softmax_rows(val(a), out),
            Instr::ConcatCols { a, b } => fwd::concat_cols(val(a), val(b), out),
            Instr::CumsumCols { a } => fwd::cumsum_cols(val(a), out),
            Instr::Norml2 { a, eps } => fwd::norml2(val(a), eps, out),
            Instr::BlockLinear {
                input,
                weight,
                bias,
            } => fwd::block_linear(val(input), val(weight), val(bias), out),
        }
    }
}

// ---------------------------------------------------------------------
// The pass pipeline. Each pass is a free function over the probe tape
// (`&[Node]`) or the partially-built plan; `compile` chains them.
// ---------------------------------------------------------------------

/// DCE facts shared by the later passes: which nodes any output depends
/// on, which nodes are plan outputs, and which matmuls fuse — those whose
/// one consumer is an `add_row_vec` of them.
struct Dce {
    reachable: Vec<bool>,
    uses: Vec<usize>,
    is_output: Vec<bool>,
    fused_matmul: Vec<bool>,
}

/// The lowering pass's product: per-node classification plus the fused
/// program, operands still named by node id, each instruction beside the
/// node whose value it computes.
struct Lowered {
    spec: Vec<Option<RowSpec>>,
    /// The baked constant a node resolves to, if it is one.
    konst: Vec<Option<u32>>,
    consts: Vec<Matrix>,
    instrs: Vec<(Instr<usize>, usize)>,
}

/// Capture pass: validates the probe tape against the requested
/// interface (live `Var`s, the input is a plain constant leaf).
fn pass_capture(nodes: &[Node], input: Var, outputs: &[Var]) -> Result<(), PlanError> {
    if std::iter::once(&input)
        .chain(outputs)
        .any(|v| v.0 >= nodes.len())
    {
        return err("stale Var (recorded before the last reset?)");
    }
    if !matches!(nodes[input.0].op, Op::Leaf) {
        return err("the plan input must be a constant leaf");
    }
    if nodes[input.0].param.is_some() {
        return err("a parameter leaf cannot be the plan input");
    }
    Ok(())
}

/// Dead-code-elimination pass: reachability from the outputs, use counts
/// among reachable consumers, the output set and the fusing matmuls.
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
    let mut fused_matmul = vec![false; n];
    for (i, node) in nodes.iter().enumerate() {
        if let (true, Op::AddRowVec(m, _)) = (reachable[i], node.op) {
            fused_matmul[m] =
                matches!(nodes[m].op, Op::MatMul(..)) && uses[m] == 1 && !is_output[m];
        }
    }
    Dce {
        reachable,
        uses,
        is_output,
        fused_matmul,
    }
}

/// Lowering pass: row-spec propagation, constant baking / batch
/// broadcasting, and instruction emission with affine fusion (via
/// [`emit_op`]).
fn pass_lower(nodes: &[Node], input: usize, dce: &Dce) -> Result<Lowered, PlanError> {
    let n = nodes.len();
    let b0 = nodes[input].value.rows();
    let mut lowered = Lowered {
        spec: vec![None; n],
        konst: vec![None; n],
        consts: Vec::new(),
        instrs: Vec::new(),
    };
    for (i, node) in nodes.iter().enumerate() {
        if !dce.reachable[i] {
            continue;
        }
        let (rows, cols) = node.value.shape();
        let spec = match node.op {
            Op::Leaf if i == input => RowSpec::Batch,
            Op::Leaf if node.param.is_some() || rows != b0 || rows <= 1 => {
                // parameter or genuine fixed constant: bake it
                lowered.konst[i] = Some(lowered.consts.len() as u32);
                lowered.consts.push(node.value.clone());
                RowSpec::Fixed(rows)
            }
            Op::Leaf => {
                // constant leaf with the probe batch row count:
                // batch-broadcast — rows must be bit-identical
                let first = node.value.row(0);
                if (1..rows).any(|r| node.value.row(r) != first) {
                    return err("constant leaf has probe-batch rows but non-identical row \
                         contents; cannot batch-broadcast it");
                }
                let src = lowered.consts.len() as u32;
                lowered
                    .consts
                    .push(Matrix::from_vec(1, cols, first.to_vec()));
                lowered.instrs.push((Instr::Broadcast { src }, i));
                RowSpec::Batch
            }
            ref op => emit_op(op, i, nodes, dce, &mut lowered)?,
        };
        lowered.spec[i] = Some(spec);
    }
    Ok(lowered)
}

/// Buffer-assignment pass: gives the input buffer 0 and instruction `i`'s
/// output buffer `i + 1` (so operand < out), and resolves the node-id
/// program into the final [`InferencePlan`].
fn pass_assign_buffers(
    nodes: &[Node],
    input: usize,
    outputs: &[Var],
    lowered: Lowered,
) -> InferencePlan {
    let Lowered {
        spec,
        konst,
        consts,
        instrs,
    } = lowered;
    let mut buf_of: Vec<Option<u32>> = vec![None; nodes.len()];
    buf_of[input] = Some(0);
    let mut buf_shapes = vec![(RowSpec::Batch, nodes[input].value.cols())];
    let arg_of = |i: usize, buf_of: &[Option<u32>]| match konst[i] {
        Some(c) => Arg::Const(c),
        None => Arg::Buf(buf_of[i].expect("operand buffer assigned before use")),
    };
    let mut resolved = Vec::with_capacity(instrs.len());
    for (instr, out_node) in instrs {
        resolved.push(instr.map(|i| arg_of(i, &buf_of)));
        buf_of[out_node] = Some(buf_shapes.len() as u32);
        buf_shapes.push((
            spec[out_node].expect("output classified"),
            nodes[out_node].value.cols(),
        ));
    }
    let outputs = outputs.iter().map(|v| arg_of(v.0, &buf_of)).collect();
    InferencePlan {
        instrs: resolved,
        consts,
        buf_shapes,
        outputs,
    }
}

/// The refusal of a tape op without an instruction, naming the graph
/// method that records it (`Op::GatherRows` → `gather_rows`).
fn no_instruction<T>(op: &Op) -> Result<T, PlanError> {
    let debug = format!("{op:?}");
    let variant = debug.split(['(', ' ']).next().unwrap_or_default();
    let mut name = String::new();
    for c in variant.chars() {
        if c.is_uppercase() && !name.is_empty() {
            name.push('_');
        }
        name.push(c.to_ascii_lowercase());
    }
    err(format!("tape op `{name}` has no plan instruction"))
}

/// Emits the instruction for a non-leaf tape op, fusing `matmul →
/// add_row_vec → relu` chains, and returns the node's [`RowSpec`].
fn emit_op(
    op: &Op,
    node_id: usize,
    nodes: &[Node],
    dce: &Dce,
    lowered: &mut Lowered,
) -> Result<RowSpec, PlanError> {
    let spec = &lowered.spec;
    let sp = |i: usize| -> Result<RowSpec, PlanError> {
        spec[i].ok_or_else(|| PlanError("operand of an op was eliminated or unclassified".into()))
    };
    let (instr, rspec) = match *op {
        Op::MatMul(x, w) => {
            // no instruction of its own: the add_row_vec that consumes it
            // emits the affine
            if !dce.fused_matmul[node_id] {
                return err(
                    "tape op `matmul` has no plan instruction unless an add_row_vec fuses it \
                     into an affine",
                );
            }
            if sp(w)? == RowSpec::Batch {
                return err("matmul right-hand side cannot be batch-scaled");
            }
            return sp(x);
        }
        Op::AddRowVec(m, b) => {
            let (Op::MatMul(x, w), true) = (nodes[m].op, dce.fused_matmul[m]) else {
                return no_instruction(op);
            };
            if sp(b)? == RowSpec::Batch {
                return err("add_row_vec bias cannot be batch-scaled");
            }
            let relu = false;
            (Instr::Affine { x, w, b, relu }, sp(m)?)
        }
        Op::Relu(a) => {
            // a single-use affine just emitted takes the relu as its tail
            if let Some((Instr::Affine { relu, .. }, out)) = lowered.instrs.last_mut() {
                if *out == a && !*relu && dce.uses[a] == 1 && !dce.is_output[a] {
                    *relu = true;
                    *out = node_id;
                    return sp(a);
                }
            }
            (Instr::Unary { op: UnOp::Relu, a }, sp(a)?)
        }
        Op::Scale(a, alpha) => (
            Instr::Unary {
                op: UnOp::Scale(alpha),
                a,
            },
            sp(a)?,
        ),
        Op::SoftmaxRows(a) => (Instr::SoftmaxRows { a }, sp(a)?),
        Op::ConcatCols(a, b) => {
            let (sa, sb) = (sp(a)?, sp(b)?);
            if sa != sb {
                return err(format!(
                    "concat_cols mixes batch-scaled and fixed operands ({sa:?} vs {sb:?}); \
                     this tape cannot scale with the batch size"
                ));
            }
            (Instr::ConcatCols { a, b }, sa)
        }
        Op::CumsumCols(a) => (Instr::CumsumCols { a }, sp(a)?),
        Op::Norml2(a, eps) => (Instr::Norml2 { a, eps }, sp(a)?),
        Op::BlockLinear {
            input,
            weight,
            bias,
            ..
        } => {
            if sp(weight)? == RowSpec::Batch || sp(bias)? == RowSpec::Batch {
                return err("block_linear weight/bias cannot be batch-scaled");
            }
            let instr = Instr::BlockLinear {
                input,
                weight,
                bias,
            };
            (instr, sp(input)?)
        }
        _ => return no_instruction(op),
    };
    lowered.instrs.push((instr, node_id));
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
        let plan = InferencePlan::compile(&g, xv, &[y]).expect("compilable");
        assert_eq!(
            plan.instructions().collect::<Vec<_>>(),
            ["affine_relu"],
            "matmul+bias+relu must fuse"
        );

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 5, 64] {
            let x = Matrix::from_fn(rows, 3, |i, j| ((i * 7 + j) as f32).sin());
            let got = plan.run(&mut bufs, rows, |m| m.data_mut().copy_from_slice(x.data()));
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
        let plan = InferencePlan::compile(&g, xv, &[shared_tau, tau]).expect("compiles");

        let mut bufs = PlanBuffers::new();
        for rows in [1usize, 2, 5] {
            let x = Matrix::from_fn(rows, 2, |i, j| ((i * 2 + j) as f32).cos());
            let out = plan.run(&mut bufs, rows, |m| m.data_mut().copy_from_slice(x.data()));
            let mut fresh = Graph::new();
            let (_, fshared, ftau) = record(&mut fresh, &x);
            assert_eq!(out.output(0).shape(), (1, 3), "rows {rows}");
            assert_eq!(out.output(0).data(), fresh.value(fshared).data());
            assert_eq!(out.output(1).shape(), (rows, 3));
            assert_eq!(out.output(1).data(), fresh.value(ftau).data());
        }
    }

    /// `concat_cols` of the batch and a constant is refused when the
    /// constant cannot follow the batch: probe rows that differ, or a
    /// one-row probe, where a one-row constant is fixed.
    #[test]
    fn mixed_scaling_is_rejected() {
        for (rows, constant) in [(2, [1.0, 2.0, 3.0, 4.0].as_slice()), (1, &[1.0, 2.0])] {
            let mut g = Graph::new();
            let a = g.leaf_with(rows, 2, |d| d.fill(1.0)); // batch input
            let b = g.leaf_with(rows, 2, |d| d.copy_from_slice(constant));
            let c = g.concat_cols(a, b);
            let e = InferencePlan::compile(&g, a, &[c]).unwrap_err();
            assert!(e.to_string().contains("cannot"), "{e}");
        }
    }

    /// Compiling `op(x)` must be refused with an error naming `name`.
    fn assert_refused(name: &str, op: impl FnOnce(&mut Graph, Var) -> Var) {
        let mut g = Graph::new();
        let xv = g.leaf_with(2, 3, |d| d.fill(0.25));
        let y = op(&mut g, xv);
        let e = InferencePlan::compile(&g, xv, &[y]).unwrap_err();
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

    /// The training ops the served program never records are refused by
    /// name, and so is a matmul no `add_row_vec` fuses into an affine.
    #[test]
    fn unserved_ops_are_refused_by_name() {
        assert_refused("add", |g, x| g.add(x, x));
        assert_refused("mul_col_vec", |g, x| {
            let col = g.leaf_with(2, 1, |d| d.fill(0.5));
            g.mul_col_vec(x, col)
        });
        assert_refused("row_sum", |g, x| g.row_sum(x));
        assert_refused("slice_cols", |g, x| g.slice_cols(x, 0, 2));
        assert_refused("sigmoid", |g, x| g.sigmoid(x));
        assert_refused("matmul", |g, x| {
            let w = g.leaf_with(3, 2, |d| d.fill(0.5));
            let y = g.matmul(x, w);
            g.relu(y)
        });
    }
}
