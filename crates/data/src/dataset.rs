//! Row-major dataset of fixed-dimension f32 vectors.

/// A database `D` of `n` multi-dimensional vectors (Definition 1).
///
/// Rows are stored contiguously; `row(i)` is the `i`-th object. The
/// container supports the insert/delete operations required by the update
/// experiments (§5.4, §7.6).
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
    name: String,
}

impl Dataset {
    /// Creates an empty dataset of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Dataset {
            dim,
            data: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates a dataset from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer not a multiple of dim");
        Dataset {
            dim,
            data,
            name: String::new(),
        }
    }

    /// Creates a dataset from individual rows.
    pub fn from_rows(dim: usize, rows: &[Vec<f32>]) -> Self {
        let mut ds = Dataset::new(dim);
        for r in rows {
            ds.push(r);
        }
        ds
    }

    /// Attaches a human-readable name (used by table output).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i`-th vector.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable access to the `i`-th vector.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over all vectors.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Flat row-major view of all data.
    pub fn flat(&self) -> &[f32] {
        &self.data
    }

    /// Appends a vector.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "dimension mismatch on push");
        self.data.extend_from_slice(v);
    }

    /// Removes row `i` by swapping in the last row (O(dim)).
    ///
    /// Returns the removed vector. Row order is not preserved, matching
    /// the multiset semantics of a selectivity database.
    pub fn swap_remove(&mut self, i: usize) -> Vec<f32> {
        let n = self.len();
        assert!(i < n, "swap_remove out of range");
        let removed = self.row(i).to_vec();
        if i != n - 1 {
            let (head, tail) = self.data.split_at_mut((n - 1) * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(tail);
        }
        self.data.truncate((n - 1) * self.dim);
        removed
    }

    /// Normalizes every row to unit length in place.
    pub fn normalize_rows(&mut self) {
        selnet_metric::vectors::normalize_all(&mut self.data, self.dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0, 3.0]);
        ds.push(&[4.0, 5.0, 6.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn swap_remove_keeps_multiset() {
        let mut ds = Dataset::from_rows(2, &[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let removed = ds.swap_remove(0);
        assert_eq!(removed, vec![1.0, 1.0]);
        assert_eq!(ds.len(), 2);
        let mut rows: Vec<Vec<f32>> = ds.iter().map(|r| r.to_vec()).collect();
        rows.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("finite"));
        assert_eq!(rows, vec![vec![2.0, 2.0], vec![3.0, 3.0]]);
    }

    #[test]
    fn swap_remove_last_row() {
        let mut ds = Dataset::from_rows(1, &[vec![1.0], vec![2.0]]);
        assert_eq!(ds.swap_remove(1), vec![2.0]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.row(0), &[1.0]);
    }

    #[test]
    fn normalize_rows_unit_length() {
        let mut ds = Dataset::from_rows(2, &[vec![3.0, 4.0], vec![0.0, 2.0]]);
        ds.normalize_rows();
        for r in ds.iter() {
            let n = selnet_metric::vectors::norm(r);
            assert!((n - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_wrong_dim_panics() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0]);
    }
}
