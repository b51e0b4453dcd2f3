//! Per-dimension summary statistics of a dataset.

use crate::dataset::Dataset;

/// Per-dimension mean and standard deviation.
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Per-dimension means.
    pub mean: Vec<f32>,
    /// Per-dimension standard deviations.
    pub std: Vec<f32>,
}

/// Computes per-dimension mean/std (population) of a dataset.
pub fn column_stats(ds: &Dataset) -> ColumnStats {
    let d = ds.dim();
    let n = ds.len().max(1) as f64;
    let mut mean = vec![0.0f64; d];
    for row in ds.iter() {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x as f64;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0f64; d];
    for row in ds.iter() {
        for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(row) {
            let diff = x as f64 - m;
            *v += diff * diff;
        }
    }
    ColumnStats {
        mean: mean.iter().map(|&m| m as f32).collect(),
        std: var.iter().map(|&v| ((v / n).sqrt()) as f32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_stats_on_known_data() {
        let ds = Dataset::from_rows(2, &[vec![0.0, 2.0], vec![2.0, 4.0]]);
        let s = column_stats(&ds);
        assert_eq!(s.mean, vec![1.0, 3.0]);
        assert_eq!(s.std, vec![1.0, 1.0]);
    }
}
