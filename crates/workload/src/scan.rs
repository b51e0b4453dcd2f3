//! The one-vs-many distance scan under exact labelling: every query object
//! against every record.

use selnet_data::Dataset;
use selnet_metric::vectors::{LaneBlocks, LANES};
use selnet_metric::DistanceKind;

/// What a labelling pass does with the distances [`scan_distances`]
/// computes, one group of up to [`LANES`] queries at a time. A worker owns
/// one labeller for all its groups, so whatever it allocates is reused.
pub(crate) trait Labeller {
    /// What is known about one query after the pass.
    type Label: Send;

    /// Lane `l` holds query `q` in the pass that follows.
    fn begin(&mut self, l: usize, q: usize);

    /// Record `i` lies at `dists[l]` from the query in lane `l`; records
    /// arrive in dataset order.
    fn record(&mut self, i: usize, dists: &[f32]);

    /// The label of the query in lane `l`, every record having been seen.
    fn finish(&mut self, l: usize) -> Self::Label;
}

/// Labels every query object from its exact distances to every record;
/// the labels come back in query order.
///
/// The queries are split contiguously over `workers` threads (at least
/// one, at most one per query; a single worker runs on the calling
/// thread). A worker takes its queries [`LANES`] at a time, packs them into
/// one lane-major block and streams the dataset **once per group**: one
/// kernel call gives a record's distance to all sixteen, each with the
/// bits of `kind.eval(x, record)`. Cosine has no block kernel and
/// evaluates pair by pair behind the same interface.
pub(crate) fn scan_distances<L: Labeller>(
    ds: &Dataset,
    xs: &[&[f32]],
    kind: DistanceKind,
    workers: usize,
    labeller: impl Fn() -> L + Sync,
) -> Vec<L::Label> {
    let per_worker = xs.len().div_ceil(workers.clamp(1, xs.len().max(1))).max(1);
    let mut labels: Vec<Option<L::Label>> = xs.iter().map(|_| None).collect();
    let label_from = |first: usize, slots: &mut [Option<L::Label>]| {
        let mut labeller = labeller();
        let mut block = LaneBlocks::new(ds.dim());
        let mut dists = [0.0f32; LANES];
        for (g, group) in slots.chunks_mut(LANES).enumerate() {
            let first = first + g * LANES;
            let group_xs = &xs[first..first + group.len()];
            block.clear();
            for (l, x) in group_xs.iter().enumerate() {
                labeller.begin(l, first + l);
                block.push(x);
            }
            for (i, row) in ds.iter().enumerate() {
                match kind {
                    DistanceKind::Euclidean => {
                        block.sqdist_into(0, row, &mut dists);
                        dists.iter_mut().for_each(|d| *d = d.sqrt());
                    }
                    DistanceKind::Cosine => {
                        for (d, x) in dists.iter_mut().zip(group_xs) {
                            *d = kind.eval(x, row);
                        }
                    }
                }
                labeller.record(i, &dists[..group.len()]);
            }
            for (l, slot) in group.iter_mut().enumerate() {
                *slot = Some(labeller.finish(l));
            }
        }
    };
    if per_worker >= labels.len() {
        label_from(0, &mut labels);
    } else {
        std::thread::scope(|scope| {
            for (w, slots) in labels.chunks_mut(per_worker).enumerate() {
                let label_from = &label_from;
                scope.spawn(move || label_from(w * per_worker, slots));
            }
        });
    }
    labels
        .into_iter()
        .map(|l| l.expect("every query labelled"))
        .collect()
}

/// Sorts a column of distances ascending.
pub(crate) fn sort_distances(dists: &mut [f32]) {
    dists.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
}

/// The labeller for labels that need a query's whole distance
/// distribution: collects each lane's distances into a column, sorts it
/// and hands `label` the query index with the sorted column.
pub(crate) struct SortedColumns<F> {
    /// One column per lane, `records` long each.
    columns: Vec<Vec<f32>>,
    queries: [usize; LANES],
    label: F,
}

impl<F> SortedColumns<F> {
    pub(crate) fn new(records: usize, label: F) -> Self {
        SortedColumns {
            columns: vec![vec![0.0; records]; LANES],
            queries: [0; LANES],
            label,
        }
    }
}

impl<R: Send, F: Fn(usize, &[f32]) -> R> Labeller for SortedColumns<F> {
    type Label = R;

    fn begin(&mut self, l: usize, q: usize) {
        self.queries[l] = q;
    }

    fn record(&mut self, i: usize, dists: &[f32]) {
        for (column, &d) in self.columns.iter_mut().zip(dists) {
            column[i] = d;
        }
    }

    fn finish(&mut self, l: usize) -> R {
        sort_distances(&mut self.columns[l]);
        (self.label)(self.queries[l], &self.columns[l])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{face_like, GeneratorConfig};

    /// Reports each query's distances as it received them.
    struct Echo(Vec<(usize, Vec<u32>)>);

    impl Labeller for Echo {
        type Label = (usize, Vec<u32>);

        fn begin(&mut self, l: usize, q: usize) {
            self.0.resize(self.0.len().max(l + 1), (0, Vec::new()));
            self.0[l] = (q, Vec::new());
        }

        fn record(&mut self, i: usize, dists: &[f32]) {
            for (lane, d) in self.0.iter_mut().zip(dists) {
                assert_eq!(lane.1.len(), i, "records arrive in dataset order");
                lane.1.push(d.to_bits());
            }
        }

        fn finish(&mut self, l: usize) -> Self::Label {
            std::mem::take(&mut self.0[l])
        }
    }

    /// Every distance has the bits of the pair-by-pair evaluation, whatever
    /// the group and worker boundaries, and labels come back in query
    /// order.
    #[test]
    fn distances_equal_pair_evaluation_bit_for_bit() {
        let ds = face_like(&GeneratorConfig::new(70, 9, 3, 5));
        for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
            for (queries, threads) in [(0, 2), (1, 1), (16, 1), (17, 1), (37, 2), (70, 3)] {
                let xs: Vec<&[f32]> = (0..queries).map(|i| ds.row((i * 7) % ds.len())).collect();
                let got = scan_distances(&ds, &xs, kind, threads, || Echo(Vec::new()));
                assert_eq!(got.len(), queries);
                for (q, (index, bits)) in got.into_iter().enumerate() {
                    let want: Vec<u32> = ds.iter().map(|r| kind.eval(xs[q], r).to_bits()).collect();
                    assert_eq!((index, bits), (q, want), "{kind:?} query {q} of {queries}");
                }
            }
        }
    }

    #[test]
    fn sorted_columns_hand_over_each_querys_sorted_distances() {
        let ds = face_like(&GeneratorConfig::new(50, 4, 2, 6));
        let xs: Vec<&[f32]> = (0..21).map(|i| ds.row(i)).collect();
        let kind = DistanceKind::Euclidean;
        let columns = || SortedColumns::new(ds.len(), |q, sorted: &[f32]| (q, sorted.to_vec()));
        for (q, (index, sorted)) in scan_distances(&ds, &xs, kind, 2, columns)
            .into_iter()
            .enumerate()
        {
            let mut want: Vec<f32> = ds.iter().map(|r| kind.eval(xs[q], r)).collect();
            sort_distances(&mut want);
            assert_eq!((index, sorted), (q, want));
        }
    }
}
