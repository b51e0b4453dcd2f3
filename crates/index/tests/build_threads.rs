//! `parallel::set_threads` reaches the cover-tree build. A test binary of
//! its own: the worker count is process-wide, and the unit tests read it.

use selnet_data::Dataset;
use selnet_index::CoverTree;
use selnet_tensor::parallel;

/// Above the size gate (2^21 coordinates) `CoverTree::build` takes as
/// many workers as the process is set to, whatever the machine has.
#[test]
fn set_threads_sets_the_build_workers() {
    // two rows in each of four far-apart places, 2^21 coordinates: the
    // root gets a child in each place, three of them with a subtree
    let dim = 1 << 18;
    let rows: Vec<Vec<f32>> = (0..8)
        .map(|i| vec![(i % 4) as f32 * 8.0 + i as f32 * 0.01; dim])
        .collect();
    let ds = Dataset::from_rows(dim, &rows);
    let serial = CoverTree::build_with_workers(&ds, 1);
    assert_eq!(serial.build_stats().subtree_jobs, 3);
    for threads in [1, 2] {
        parallel::set_threads(threads);
        let tree = CoverTree::build(&ds);
        assert_eq!(tree.build_stats().workers, threads);
        assert_eq!(
            tree.build_stats().subtree_jobs,
            serial.build_stats().subtree_jobs
        );
        assert_eq!(tree.regions(1), serial.regions(1));
    }
    parallel::set_threads(0);
}
