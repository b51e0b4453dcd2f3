//! First-order optimizers operating on a [`ParamStore`].

use crate::graph::ParamId;
use crate::matrix::Matrix;
use crate::params::ParamStore;

/// Interface shared by all optimizers: consume `(id, gradient)` pairs and
/// update the store in place.
pub trait Optimizer {
    /// Applies one update step from **borrowed** gradients — the zero-copy
    /// path fed by
    /// [`Graph::param_grad_refs`](crate::graph::Graph::param_grad_refs).
    fn step_refs(&mut self, store: &mut ParamStore, grads: &[(ParamId, &Matrix)]);
    /// Applies one update step from owned gradients (convenience wrapper
    /// around [`Optimizer::step_refs`]).
    fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        let refs: Vec<(ParamId, &Matrix)> = grads.iter().map(|(id, g)| (*id, g)).collect();
        self.step_refs(store, &refs);
    }
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional gradient clipping.
pub struct Sgd {
    lr: f32,
    clip: Option<f32>,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, clip: None }
    }

    /// Enables elementwise gradient clipping to `[-c, c]`.
    pub fn with_clip(mut self, c: f32) -> Self {
        self.clip = Some(c);
        self
    }
}

impl Optimizer for Sgd {
    fn step_refs(&mut self, store: &mut ParamStore, grads: &[(ParamId, &Matrix)]) {
        for &(id, g) in grads {
            let p = store.value_mut(id).data_mut();
            match self.clip {
                Some(c) => sgd_update(p, g.data(), self.lr, |gv| gv.clamp(-c, c)),
                None => sgd_update(p, g.data(), self.lr, |gv| gv),
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The SGD update of one parameter. See [`adam_update`] for the loop's
/// shape.
fn sgd_update(p: &mut [f32], g: &[f32], lr: f32, clip: impl Fn(f32) -> f32) {
    let n = p.len();
    let g = &g[..n];
    for i in 0..n {
        p[i] -= lr * clip(g[i]);
    }
}

/// Adam (Kingma & Ba) with bias correction and optional gradient clipping.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: Option<f32>,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Creates Adam with the usual defaults (β1 = 0.9, β2 = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables elementwise gradient clipping to `[-c, c]`.
    pub fn with_clip(mut self, c: f32) -> Self {
        self.clip = Some(c);
        self
    }

    fn ensure_state(&mut self, id: ParamId, shape: (usize, usize)) {
        if self.m.len() <= id.0 {
            self.m.resize_with(id.0 + 1, || None);
            self.v.resize_with(id.0 + 1, || None);
        }
        if self.m[id.0].is_none() {
            self.m[id.0] = Some(Matrix::zeros(shape.0, shape.1));
            self.v[id.0] = Some(Matrix::zeros(shape.0, shape.1));
        }
    }
}

impl Optimizer for Adam {
    fn step_refs(&mut self, store: &mut ParamStore, grads: &[(ParamId, &Matrix)]) {
        self.t += 1;
        let k = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for &(id, g) in grads {
            self.ensure_state(id, g.shape());
            let m = self.m[id.0].as_mut().expect("state ensured").data_mut();
            let v = self.v[id.0].as_mut().expect("state ensured").data_mut();
            let p = store.value_mut(id).data_mut();
            match self.clip {
                Some(c) => adam_update(p, m, v, g.data(), &k, |gv| gv.clamp(-c, c)),
                None => adam_update(p, m, v, g.data(), &k, |gv| gv),
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The per-step constants of one Adam update.
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Bias corrections `1 - βᵗ`.
    bc1: f32,
    bc2: f32,
}

/// The Adam update of one parameter: an indexed loop over four slices cut
/// to one length, the clip decision taken by the caller (`clip` is the
/// identity or a clamp — one loop body, monomorphised per choice), so the
/// compiler vectorises it. Per element it performs the textbook operations
/// in the textbook order; the bias corrections and the final quotient stay
/// *divisions* (IEEE division and square root are correctly rounded, so a
/// vector lane produces the scalar bits — multiplying by a reciprocal
/// would not).
fn adam_update(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    k: &AdamStep,
    clip: impl Fn(f32) -> f32,
) {
    let n = p.len();
    let (m, v, g) = (&mut m[..n], &mut v[..n], &g[..n]);
    for i in 0..n {
        let gv = clip(g[i]);
        m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * gv;
        v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * gv * gv;
        let mhat = m[i] / k.bc1;
        let vhat = v[i] / k.bc2;
        p[i] -= k.lr * mhat / (vhat.sqrt() + k.eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes (w - 3)^2 and checks convergence.
    fn converges(opt: &mut dyn Optimizer) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 1, 0.0));
        for _ in 0..500 {
            let mut g = Graph::new();
            let wv = store.inject(&mut g, w);
            let shifted = g.add_scalar(wv, -3.0);
            let sq = g.square(shifted);
            let loss = g.sum(sq);
            g.backward(loss);
            let grads = g.param_grads();
            opt.step(&mut store, &grads);
        }
        store.value(w).get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = converges(&mut opt);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = converges(&mut opt);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn clipping_limits_step_size() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 1, 0.0));
        let mut opt = Sgd::new(1.0).with_clip(0.5);
        let grads = vec![(w, Matrix::full(1, 1, 100.0))];
        opt.step(&mut store, &grads);
        assert!((store.value(w).get(0, 0) + 0.5).abs() < 1e-6);
    }
}
