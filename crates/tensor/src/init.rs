//! Weight initializers and small RNG helpers (Box–Muller normal sampling,
//! so we do not need the `rand_distr` crate).

use crate::matrix::Matrix;
use rand::Rng;

/// The two uniforms of one Box–Muller normal, drawn in order: `u1` in
/// `[f32::MIN_POSITIVE, 1)`, `u2` in `[0, 1)`.
pub fn uniform_pair(rng: &mut impl Rng) -> [f32; 2] {
    [
        rng.gen_range(f32::MIN_POSITIVE..1.0),
        rng.gen_range(0.0..1.0),
    ]
}

/// The Box–Muller transform of a [`uniform_pair`]. Always finite: `u1 >=
/// f32::MIN_POSITIVE` keeps `-2 ln u1` finite and non-negative.
pub fn box_muller([u1, u2]: [f32; 2]) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Standard-normal sample via Box–Muller: the workspace's one `f32`
/// normal draw, two uniforms from `rng` in order.
pub fn randn(rng: &mut impl Rng) -> f32 {
    box_muller(uniform_pair(rng))
}

/// Matrix with i.i.d. `N(0, std^2)` entries.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| randn(rng) * std)
}

/// Matrix with i.i.d. `U(lo, hi)` entries.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Xavier/Glorot-uniform initialization for a `fan_in x fan_out` weight.
pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, -limit, limit, rng)
}

/// He-normal initialization (for ReLU networks).
pub fn he(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let std = (2.0 / fan_in as f32).sqrt();
    normal(fan_in, fan_out, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| randn(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier(100, 50, &mut rng);
        let limit = (6.0 / 150.0f32).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn he_std_is_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = he(256, 256, &mut rng);
        let std_expected = (2.0 / 256.0f32).sqrt() as f64;
        let var: f64 = w.data().iter().map(|&x| (x as f64).powi(2)).sum::<f64>() / w.len() as f64;
        assert!((var.sqrt() - std_expected).abs() / std_expected < 0.1);
    }
}
