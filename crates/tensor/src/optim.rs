//! The Adam optimizer, operating on a [`ParamStore`].

use crate::graph::ParamId;
use crate::matrix::Matrix;
use crate::params::ParamStore;

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

    /// Moves the moment estimates of `ids` into an optimizer with the same
    /// constants and step count, for a worker that updates just those
    /// parameters; [`Adam::take_back`] returns them. Both keep stepping
    /// once per training step, so they share every step's constants.
    pub fn lend(&mut self, ids: &[ParamId]) -> Adam {
        let mut lent = Adam {
            m: Vec::new(),
            v: Vec::new(),
            ..*self
        };
        lent.m.resize_with(self.m.len(), || None);
        lent.v.resize_with(self.v.len(), || None);
        let held = self.m.len();
        for id in ids.iter().filter(|id| id.0 < held) {
            std::mem::swap(&mut self.m[id.0], &mut lent.m[id.0]);
            std::mem::swap(&mut self.v[id.0], &mut lent.v[id.0]);
        }
        lent
    }

    /// Takes back every moment estimate `lent` holds.
    ///
    /// # Panics
    /// Panics if the two did not take the same number of steps.
    pub fn take_back(&mut self, lent: Adam) {
        assert_eq!(self.t, lent.t, "a lent optimizer stepped out of line");
        for (i, (m, v)) in lent.m.into_iter().zip(lent.v).enumerate() {
            if let (Some(m), Some(v)) = (m, v) {
                if self.m.len() <= i {
                    self.m.resize_with(i + 1, || None);
                    self.v.resize_with(i + 1, || None);
                }
                self.m[i] = Some(m);
                self.v[i] = Some(v);
            }
        }
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

    /// Applies one update step from **borrowed** gradients — the zero-copy
    /// path fed by
    /// [`Graph::param_grad_refs`](crate::graph::Graph::param_grad_refs).
    pub fn step_refs(&mut self, store: &mut ParamStore, grads: &[(ParamId, &Matrix)]) {
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
    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::full(1, 1, 0.0));
        for _ in 0..500 {
            let mut g = Graph::new();
            let wv = store.inject(&mut g, w);
            let three = g.leaf(Matrix::full(1, 1, 3.0));
            let shifted = g.sub(wv, three);
            let sq = g.square(shifted);
            let loss = g.sum(sq);
            g.backward(loss);
            let grads = g.param_grad_refs();
            opt.step_refs(&mut store, &grads);
        }
        let w = store.value(w).get(0, 0);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }
}
