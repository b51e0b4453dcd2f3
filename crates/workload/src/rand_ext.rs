//! Distribution sampling helpers (normal, gamma, beta) implemented on top
//! of `rand` so no extra dependency is needed.

use rand::Rng;

/// Standard-normal sample via Box–Muller. Always finite: `u1` is at least
/// `f64::MIN_POSITIVE`, so `-2 ln u1` is at most ≈ 1 416.
pub fn sample_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gamma(shape, 1) sample via Marsaglia–Tsang; shapes < 1 use the boost
/// `Gamma(a) = Gamma(a+1) * U^{1/a}`.
pub fn sample_gamma(shape: f64, rng: &mut impl Rng) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Beta(alpha, beta) sample in `[0, 1]` via two gammas.
pub fn sample_beta(alpha: f64, beta: f64, rng: &mut impl Rng) -> f64 {
    let a = sample_gamma(alpha, rng);
    let b = sample_gamma(beta, rng);
    if a + b == 0.0 {
        0.5
    } else {
        a / (a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beta_moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(13);
        let (alpha, beta) = (3.0, 2.5);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_beta(alpha, beta, &mut rng)).collect();
        assert!(samples.iter().all(|&s| (0.0..=1.0).contains(&s)));
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let expected_mean = alpha / (alpha + beta);
        assert!(
            (mean - expected_mean).abs() < 0.01,
            "mean {mean} vs {expected_mean}"
        );
        let var: f64 = samples
            .iter()
            .map(|&s| (s - mean) * (s - mean))
            .sum::<f64>()
            / n as f64;
        let expected_var = alpha * beta / ((alpha + beta) * (alpha + beta) * (alpha + beta + 1.0));
        assert!(
            (var - expected_var).abs() < 0.005,
            "var {var} vs {expected_var}"
        );
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        for shape in [0.5, 1.0, 4.0] {
            let n = 30_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() / shape < 0.05,
                "shape {shape}: mean {mean}"
            );
        }
    }
}
