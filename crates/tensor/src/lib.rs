//! # selnet-tensor
//!
//! A small, self-contained tensor + reverse-mode autodiff engine: the
//! training substrate for the SelNet reproduction. The paper's models are
//! compositions of feed-forward networks and a handful of custom operators
//! (`Norml2`, prefix sums, piece-wise linear interpolation, lattice
//! interpolation, Huber-on-log losses); all of them are first-class tape
//! ops here with hand-derived backward passes that are verified against
//! finite differences in `gradcheck`.
//!
//! ## The arena tape
//!
//! [`Graph`] is an **arena of reusable buffers**: a training loop builds
//! one tape, then [`Graph::reset`]s it each batch instead of rebuilding
//! it. Forward ops write into recycled value buffers,
//! [`ParamStore::inject`] rebinds parameter values by copy instead of
//! cloning, the backward sweep accumulates gradients in place — and, as
//! [`Graph::backward_params`], only into nodes a parameter feeds — and
//! [`Graph::param_grad_refs`] + [`Adam::step_refs`] carry borrowed
//! gradients to the optimizer — after the first batch a training step
//! performs **no per-op matrix allocations** (only a few small
//! bookkeeping `Vec`s, e.g. the gradient-ref list, remain per step).
//! Reuse is bit-identical to a fresh graph
//! (property-tested); see the [`graph`](Graph) module docs for the full
//! lifecycle and determinism contract. Inference paths without a handy
//! `&mut Graph` can use the thread-local pool, [`Graph::with_pooled`].
//!
//! ## Compiled inference plans
//!
//! Serving doesn't need the tape at all: [`InferencePlan::compile`] turns a
//! recorded forward pass into a flat, grad-free instruction list with baked
//! parameters and fused affine+activation steps, and
//! [`InferencePlan::run`] replays it allocation-free into a reusable
//! [`PlanBuffers`] arena for any batch size — bit-identical to the tape
//! forward pass (both execute the same shared kernels). See the
//! [`InferencePlan`] docs for the compile/replay lifecycle. A plan has one
//! batch-scaled input and eight row-independent instructions — the
//! program a SelNet model serves; every other tape op (`pwl_interp`,
//! `sum`, `gather_rows`, `sigmoid`, …) is refused at compile time with a
//! [`PlanError`].
//!
//! ## Kernels and threading
//!
//! The matmul kernels are cache-blocked/register-tiled and split output
//! rows across scoped threads above a size threshold. No call takes a
//! worker count: every fork reads [`parallel::fork_threads`], which
//! resolves, in order, from: 1 inside a parallel region, the calling
//! thread's [`parallel::set_threads`] pin, the `SELNET_THREADS`
//! environment variable, then `std::thread::available_parallelism`.
//! Results are **bit-identical for every thread count** — each output
//! element is computed by one thread in the serial arithmetic order; see
//! [`parallel`].
//!
//! ## Quick tour
//!
//! ```
//! use selnet_tensor::{Graph, Matrix, ParamStore, Adam, Mlp, Activation};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let net = Mlp::new(&mut store, "net", &[2, 8, 1], Activation::Relu,
//!                    Activation::Linear, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
//! let y = Matrix::col_vector(&[1.0, -1.0]);
//! let mut g = Graph::new(); // one arena tape, reused across batches
//! for _ in 0..10 {
//!     g.reset(); // rewind; keep every buffer for recycling
//!     let xv = g.leaf_ref(&x);
//!     let yv = g.leaf_ref(&y);
//!     let pred = net.forward(&mut g, &store, xv);
//!     let d = g.sub(pred, yv);
//!     let sq = g.square(d);
//!     let loss = g.mean(sq);
//!     g.backward_params(loss); // gradients only where a parameter needs one
//!     let grads = g.param_grad_refs(); // borrowed, nothing cloned
//!     opt.step_refs(&mut store, &grads);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fwd;
mod graph;
mod matrix;
mod params;
mod plan;

pub mod bytes;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod optim;
pub mod parallel;

pub use fwd::pwl_interp_row;
pub use graph::{Graph, ParamId, Var};
pub use layers::{Activation, Linear, Mlp};
pub use matrix::Matrix;
pub use optim::Adam;
pub use params::ParamStore;
pub use plan::{InferencePlan, PlanBuffers, PlanError, PlanOutputs};
