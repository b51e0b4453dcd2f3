//! Distance functions used by the estimators and workloads.

use crate::vectors::{dot, norm, squared_euclidean};

/// The distance families evaluated in the paper (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DistanceKind {
    /// Euclidean (`l2`) distance.
    Euclidean,
    /// Cosine distance `1 - cos(u, v)`.
    Cosine,
}

impl DistanceKind {
    /// Short label used in table output (`l2` / `cos`).
    pub fn label(self) -> &'static str {
        match self {
            DistanceKind::Euclidean => "l2",
            DistanceKind::Cosine => "cos",
        }
    }

    /// Computes the distance between two vectors.
    #[inline]
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            DistanceKind::Euclidean => squared_euclidean(a, b).sqrt(),
            DistanceKind::Cosine => cosine_distance(a, b),
        }
    }

    /// For unit vectors, converts a threshold in this distance into the
    /// equivalent Euclidean threshold: `‖u−v‖ = sqrt(2·t_cos)`.
    ///
    /// Euclidean thresholds pass through unchanged. This underlies the
    /// paper's claim that the cover tree still works for cosine distance
    /// over normalized vectors (§5.3).
    pub fn to_euclidean_threshold(self, t: f32) -> f32 {
        match self {
            DistanceKind::Euclidean => t,
            DistanceKind::Cosine => (2.0 * t.max(0.0)).sqrt(),
        }
    }
}

/// Cosine distance `1 - cos(u, v)`, safe for zero vectors (distance 1).
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    // clamp for numeric safety: cos in [-1, 1]
    let cos = (dot(a, b) / (na * nb)).clamp(-1.0, 1.0);
    1.0 - cos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::normalize;

    #[test]
    fn euclidean_basic() {
        assert!((DistanceKind::Euclidean.eval(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_identical_vectors_zero() {
        let v = [0.3, -0.7, 0.2];
        assert!(DistanceKind::Cosine.eval(&v, &v).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        assert!((DistanceKind::Cosine.eval(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_is_two() {
        assert!((DistanceKind::Cosine.eval(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_one() {
        assert!((DistanceKind::Cosine.eval(&[0.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn threshold_conversion_roundtrip() {
        for t in [0.0f32, 0.1, 0.5, 1.0, 1.7] {
            let d = DistanceKind::Cosine.to_euclidean_threshold(t);
            assert!((0.5 * d * d - t).abs() < 1e-6);
        }
        assert_eq!(DistanceKind::Euclidean.to_euclidean_threshold(0.7), 0.7);
    }

    #[test]
    fn unit_vector_equivalence_cos_vs_l2() {
        // For unit vectors: ||u-v||^2 = 2 * (1 - cos) exactly.
        let mut u = vec![0.2, -0.5, 0.8, 0.1];
        let mut v = vec![-0.3, 0.4, 0.5, 0.7];
        normalize(&mut u);
        normalize(&mut v);
        let cos_d = DistanceKind::Cosine.eval(&u, &v);
        let l2 = DistanceKind::Euclidean.eval(&u, &v);
        assert!((l2 - DistanceKind::Cosine.to_euclidean_threshold(cos_d)).abs() < 1e-4);
    }
}
