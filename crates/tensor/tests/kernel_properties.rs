//! Property-based verification of the blocked/parallel matmul kernels
//! against the naive reference, across random rectangular shapes. Every
//! kernel accumulates its reduction strictly in index order (the
//! transposed variants pack the transpose and reuse the row-major
//! kernel), so all of them must be **bit-identical** to the naive `ikj`
//! loop on equivalent operands and to themselves under any thread count.

use proptest::prelude::*;
use selnet_tensor::Matrix;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked `matmul` == naive reference, bit for bit, on shapes that
    /// exercise the full tiles and both row/column tail paths.
    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = Matrix::from_fn(m, k, |i, j| {
            ((i * 31 + j * 17 + seed as usize) % 101) as f32 * 0.02 - 1.0
        });
        let b = Matrix::from_fn(k, n, |i, j| {
            ((i * 13 + j * 29 + seed as usize) % 97) as f32 * 0.02 - 0.9
        });
        prop_assert_eq!(a.matmul(&b), a.matmul_naive(&b));
    }

    /// `matmul_at_b` == transpose-then-multiply, bit for bit (both walk
    /// the reduction in the same order).
    #[test]
    fn blocked_at_b_matches_reference(
        a in matrix_strategy(23, 9),
        b in matrix_strategy(23, 14),
    ) {
        prop_assert_eq!(a.matmul_at_b(&b), a.transpose().matmul_naive(&b));
    }

    /// `matmul_a_bt` == multiply-by-explicit-transpose, bit for bit.
    #[test]
    fn blocked_a_bt_matches_reference(
        a in matrix_strategy(17, 21),
        b in matrix_strategy(11, 21),
    ) {
        prop_assert_eq!(a.matmul_a_bt(&b), a.matmul_naive(&b.transpose()));
    }

    /// Serial and parallel dispatch agree bit for bit on every kernel for
    /// every thread count.
    #[test]
    fn parallel_kernels_bit_identical_to_serial(
        m in 1usize..64,
        k in 1usize..48,
        n in 1usize..64,
        threads in 2usize..8,
    ) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 13) % 37) as f32 * 0.05 - 0.8);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 11 + j * 5) % 41) as f32 * 0.04 - 0.7);
        prop_assert_eq!(a.matmul_threaded(&b, 1), a.matmul_threaded(&b, threads));
        let c = Matrix::from_fn(m, n, |i, j| ((i + 3 * j) % 29) as f32 * 0.06 - 0.6);
        prop_assert_eq!(
            a.matmul_at_b_threaded(&c, 1),
            a.matmul_at_b_threaded(&c, threads)
        );
        let d = Matrix::from_fn(n, k, |i, j| ((5 * i + j) % 31) as f32 * 0.03 - 0.4);
        prop_assert_eq!(
            a.matmul_a_bt_threaded(&d, 1),
            a.matmul_a_bt_threaded(&d, threads)
        );
    }
}

/// The parallel path must also engage for matrices above the fork gate
/// (the proptest shapes above all stay on the serial path, so force a
/// large product once).
#[test]
fn large_parallel_matmul_bit_identical_to_serial() {
    let a = Matrix::from_fn(288, 400, |i, j| {
        ((i * 31 + j * 17) % 97) as f32 * 0.01 - 0.5
    });
    let b = Matrix::from_fn(400, 296, |i, j| {
        ((i * 13 + j * 29) % 89) as f32 * 0.01 - 0.4
    });
    // 288*400*296 ≈ 34.1M mul-adds: two workers' worth under the gate, so
    // the 4-thread run splits its rows in two
    const { assert!(288 * 400 * 296 >= 2 * selnet_tensor::parallel::FORK_MIN_WORK) };
    let serial = a.matmul_threaded(&b, 1);
    assert_eq!(serial, a.matmul_threaded(&b, 4));
    assert_eq!(serial, a.matmul_naive(&b));
    let c = Matrix::from_fn(288, 296, |i, j| ((i * 7 + j * 3) % 83) as f32 * 0.01 - 0.3);
    let atb = a.matmul_at_b_threaded(&c, 1); // 400 x 296 over 288 steps
    assert_eq!(atb, a.matmul_at_b_threaded(&c, 4));
    let abt = a.matmul_a_bt_threaded(&b.transpose(), 1);
    assert_eq!(abt, a.matmul_a_bt_threaded(&b.transpose(), 4));
}
