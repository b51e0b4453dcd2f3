//! Reusable network building blocks: dense layers and multi-layer
//! perceptrons. A layer owns [`ParamId`]s into a shared [`ParamStore`] and
//! records its forward pass onto a caller-provided [`Graph`], or runs it
//! without a tape ([`Mlp::infer`]).

use crate::fwd;
use crate::graph::{Graph, ParamId, Var};
use crate::init;
use crate::matrix::Matrix;
use crate::params::ParamStore;
use rand::Rng;

/// Activation functions available to [`Mlp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no activation).
    Linear,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Records this activation on the tape.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Linear => x,
            Activation::Relu => g.relu(x),
        }
    }
}

/// A dense layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new dense layer in `store` with He initialization.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init::he(in_dim, out_dim, rng));
        let b = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Records the forward pass.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let w = store.inject(g, self.w);
        let b = store.inject(g, self.b);
        let xw = g.matmul(x, w);
        g.add_row_vec(xw, b)
    }
}

/// A feed-forward network: a stack of [`Linear`] layers with a shared hidden
/// activation and a configurable output activation.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, 512, 512, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two widths are supplied.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        widths: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The stacked layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Records the forward pass.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, store, h);
            h = if i == last {
                self.output_activation.apply(g, h)
            } else {
                self.hidden_activation.apply(g, h)
            };
        }
        h
    }

    /// The forward pass without a tape, bit for bit [`Mlp::forward`]'s
    /// value: per layer `x W` into a buffer of `bufs`, then the bias and
    /// the activation in place, in one pass. The weights are read
    /// where `store` keeps them. `bufs` holds one buffer per layer and
    /// keeps its allocations from call to call; the result is the last.
    pub fn infer<'b>(
        &self,
        store: &ParamStore,
        x: &Matrix,
        bufs: &'b mut Vec<Matrix>,
    ) -> &'b Matrix {
        let last = self.layers.len() - 1;
        if bufs.len() <= last {
            bufs.resize_with(last + 1, Matrix::default);
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = bufs.split_at_mut(i);
            let out = &mut rest[0];
            done.last()
                .unwrap_or(x)
                .matmul_into(store.value(layer.w), out);
            let act = if i == last {
                self.output_activation
            } else {
                self.hidden_activation
            };
            fwd::bias_act(store.value(layer.b), out, act == Activation::Relu);
        }
        &bufs[last]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(5, 4));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_learns_xor_like_function() {
        // Train a small MLP to fit y = x0 * x1 on {0,1}^2 (XOR-ish when
        // combined with complements); checks end-to-end training works.
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "net",
            &[2, 16, 16, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        let xs = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let ys = Matrix::col_vector(&[0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.01);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut g = Graph::new();
            let x = g.leaf(xs.clone());
            let target = g.leaf(ys.clone());
            let pred = mlp.forward(&mut g, &store, x);
            let diff = g.sub(pred, target);
            let sq = g.square(diff);
            let loss = g.mean(sq);
            g.backward(loss);
            let grads = g.param_grad_refs();
            opt.step_refs(&mut store, &grads);
            final_loss = g.value(loss).get(0, 0);
        }
        assert!(final_loss < 0.01, "final loss {final_loss}");
    }
}
