//! Adam's vectorisable update loop against a scalar reference kept here:
//! the pre-PR-16 per-element code, operation for operation.
//! Run in release by CI (`cargo test --release -p selnet-tensor`), where
//! the loops are actually vectorised.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_tensor::{Adam, Matrix, ParamStore};

const CLIP: f32 = 0.75;

/// Scalar Adam with the defaults `Adam::new` uses.
struct ScalarAdam {
    lr: f32,
    clip: Option<f32>,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl ScalarAdam {
    fn step(&mut self, p: &mut [f32], g: &[f32]) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        self.t += 1;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        for (((pv, mv), vv), &graw) in p.iter_mut().zip(&mut self.m).zip(&mut self.v).zip(g) {
            let gv = match self.clip {
                Some(c) => graw.clamp(-c, c),
                None => graw,
            };
            *mv = beta1 * *mv + (1.0 - beta1) * gv;
            *vv = beta2 * *vv + (1.0 - beta2) * gv * gv;
            let mhat = *mv / bc1;
            let vhat = *vv / bc2;
            *pv -= self.lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Every fifth element walks through values on and next to the clip
/// boundary, signed zeros, ±∞ and NaN, one per step (once it has seen a
/// non-finite one it may stay NaN); the others draw ordinary values and
/// must stay finite, so most of the comparison is on real numbers.
fn gradient(rng: &mut StdRng, len: usize, step: usize) -> Vec<f32> {
    let specials = [
        CLIP,
        -CLIP,
        f32::from_bits(CLIP.to_bits() + 1),
        -f32::from_bits(CLIP.to_bits() - 1),
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    (0..len)
        .map(|i| {
            if is_special(i) {
                specials[(i / 5 + step) % specials.len()]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn is_special(i: usize) -> bool {
    i.is_multiple_of(5)
}

/// Equal bits; any NaN equals any NaN (which operand's payload survives
/// `NaN + NaN` is the instruction selector's choice, not arithmetic).
fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i}: {g:e} ({:#x}) != {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn adam_equals_its_scalar_reference_bit_for_bit() {
    for clip in [None, Some(CLIP)] {
        for len in 1..=67usize {
            let mut rng = StdRng::seed_from_u64(len as u64);
            let init: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            // a row vector and, when it divides, a two-row matrix
            let rows = if len.is_multiple_of(2) { 2 } else { 1 };

            let mut store = ParamStore::new();
            let id = store.add("p", Matrix::from_vec(rows, len / rows, init.clone()));
            let mut adam = Adam::new(3e-3);
            if let Some(c) = clip {
                adam = adam.with_clip(c);
            }
            let mut adam_ref = ScalarAdam {
                lr: 3e-3,
                clip,
                t: 0,
                m: vec![0.0; len],
                v: vec![0.0; len],
            };
            let mut p_adam = init;

            for step in 0..50 {
                let g = gradient(&mut rng, len, step);
                let gm = Matrix::from_vec(rows, len / rows, g.clone());
                adam.step_refs(&mut store, &[(id, &gm)]);
                adam_ref.step(&mut p_adam, &g);
                let what = format!("clip {clip:?} len {len} step {step}");
                assert_same(store.value(id).data(), &p_adam, &what);
            }
            // the comparison did not pass on NaN-equals-NaN alone
            assert!((0..len).all(|i| is_special(i) || p_adam[i].is_finite()));
        }
    }
}
