//! The one-vs-many distance scan under exact labelling: every query object
//! against every record.

use selnet_data::Dataset;
use selnet_metric::vectors::{LaneBlocks, LANES};
use selnet_metric::DistanceKind;
use selnet_tensor::parallel::fork_join;

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
/// one, at most one per group of [`LANES`] queries; the calling thread is
/// the first of them, see `selnet_tensor::parallel::fork_join`). A worker
/// takes its queries [`LANES`] at a time, packs them into one lane-major
/// block and streams the dataset **once per group**: one kernel call
/// gives a record's distance to all sixteen, each with the bits of
/// `kind.eval(x, record)`. Cosine has no block kernel and evaluates pair
/// by pair behind the same interface.
pub(crate) fn scan_distances<L: Labeller>(
    ds: &Dataset,
    xs: &[&[f32]],
    kind: DistanceKind,
    workers: usize,
    labeller: impl Fn() -> L + Sync,
) -> Vec<L::Label> {
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
    let per_worker = queries_per_worker(xs.len(), workers);
    let parts: Vec<_> = labels.chunks_mut(per_worker).enumerate().collect();
    fork_join(parts, |(w, slots)| label_from(w * per_worker, slots));
    labels
        .into_iter()
        .map(|l| l.expect("every query labelled"))
        .collect()
}

/// Queries each of `workers` labelling workers takes: an even share
/// rounded up to whole groups of [`LANES`], so that only the last worker
/// can be left a partial group (300 queries on two workers are 160 + 140,
/// not 150 + 150 with a six-lane group each).
fn queries_per_worker(queries: usize, workers: usize) -> usize {
    queries
        .div_ceil(workers.max(1))
        .next_multiple_of(LANES)
        .max(LANES)
}

/// Sorts a column of distances ascending.
pub(crate) fn sort_distances(dists: &mut [f32]) {
    dists.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
}

/// The smallest of a query's distances, ascending, and how many of the
/// distances left out equal the largest kept: everything a label reads
/// that looks no further than a fixed rank.
pub(crate) struct Nearest<'a> {
    pub(crate) sorted: &'a [f32],
    pub(crate) ties_beyond: usize,
}

impl Nearest<'_> {
    /// How many of **all** the query's distances are `<= t`, for a `t`
    /// no larger than the largest distance kept.
    pub(crate) fn count_within(&self, t: f32) -> usize {
        let kept = self.sorted.partition_point(|&d| d <= t);
        if kept == self.sorted.len() {
            kept + self.ties_beyond
        } else {
            kept
        }
    }
}

/// The labeller for labels that read a query's distance distribution up
/// to a fixed rank: collects each lane's distances into a column, selects
/// the `keep` smallest (`select_nth_unstable`, linear), sorts only those
/// and counts the ties of the largest among the rest — what a full sort
/// of the column would show a reader that stops at rank `keep`, ties
/// included — and hands `label` the query index with that [`Nearest`].
pub(crate) struct NearestColumns<F> {
    /// One column per lane, `records` long each.
    columns: Vec<Vec<f32>>,
    queries: [usize; LANES],
    keep: usize,
    label: F,
}

impl<F> NearestColumns<F> {
    /// `keep` is clamped to `1..=records`.
    pub(crate) fn new(records: usize, keep: usize, label: F) -> Self {
        assert!(records > 0, "no records to rank");
        NearestColumns {
            columns: vec![vec![0.0; records]; LANES],
            queries: [0; LANES],
            keep: keep.clamp(1, records),
            label,
        }
    }
}

impl<R: Send, F: Fn(usize, Nearest<'_>) -> R> Labeller for NearestColumns<F> {
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
        let column = &mut self.columns[l];
        let (_, &mut top, beyond) = column.select_nth_unstable_by(self.keep - 1, |a, b| {
            a.partial_cmp(b).expect("finite distances")
        });
        let ties_beyond = beyond.iter().filter(|&&d| d == top).count();
        let sorted = &mut column[..self.keep];
        sort_distances(sorted);
        let nearest = Nearest {
            sorted,
            ties_beyond,
        };
        (self.label)(self.queries[l], nearest)
    }
}

/// The labeller for thresholds known before the scan: counts, as the
/// records stream by, how many lie within each threshold of each lane's
/// query — per part of `assignments`, or over the whole dataset as one
/// part without them. No distance is stored.
pub(crate) struct ThresholdCounts<'a> {
    /// Record `i` belongs to part `assignments[i]` of `k`.
    assignments: Option<&'a [usize]>,
    k: usize,
    /// Thresholds per query (ascending from the workload generator; the
    /// counts do not depend on the order).
    thresholds: &'a [&'a [f32]],
    lanes: Vec<Lane<'a>>,
}

/// One lane's query: its thresholds, the largest of them and
/// `counts[part * w + j]`.
#[derive(Clone, Default)]
struct Lane<'a> {
    thresholds: &'a [f32],
    /// A record farther than this is within no threshold (`-∞` for an
    /// empty ladder): nearly every record of a selectivity ladder, so
    /// [`ThresholdCounts::record`] tests it before walking the thresholds.
    top: f32,
    counts: Vec<u64>,
}

impl<'a> ThresholdCounts<'a> {
    /// Counts over the whole dataset: labels have one part.
    pub(crate) fn global(thresholds: &'a [&'a [f32]]) -> Self {
        ThresholdCounts {
            assignments: None,
            k: 1,
            thresholds,
            lanes: Vec::new(),
        }
    }

    /// Counts per part of a `k`-way partitioning.
    pub(crate) fn per_part(
        assignments: &'a [usize],
        k: usize,
        thresholds: &'a [&'a [f32]],
    ) -> Self {
        ThresholdCounts {
            assignments: Some(assignments),
            k,
            thresholds,
            lanes: Vec::new(),
        }
    }
}

impl Labeller for ThresholdCounts<'_> {
    /// `counts[part][threshold]`.
    type Label = Vec<Vec<f64>>;

    fn begin(&mut self, l: usize, q: usize) {
        let thresholds = self.thresholds[q];
        self.lanes
            .resize(self.lanes.len().max(l + 1), Lane::default());
        let lane = &mut self.lanes[l];
        lane.thresholds = thresholds;
        // the maximum, not `last()`: nothing here requires a sorted ladder
        lane.top = thresholds.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        lane.counts.clear();
        lane.counts.resize(self.k * thresholds.len(), 0);
    }

    fn record(&mut self, i: usize, dists: &[f32]) {
        let part = self.assignments.map_or(0, |a| a[i]);
        for (lane, &d) in self.lanes.iter_mut().zip(dists) {
            if d > lane.top {
                continue;
            }
            let ts = lane.thresholds;
            let counts = &mut lane.counts[part * ts.len()..(part + 1) * ts.len()];
            for (count, &t) in counts.iter_mut().zip(ts.iter()) {
                *count += u64::from(d <= t);
            }
        }
    }

    fn finish(&mut self, l: usize) -> Self::Label {
        let lane = &self.lanes[l];
        if lane.thresholds.is_empty() {
            return vec![Vec::new(); self.k];
        }
        lane.counts
            .chunks(lane.thresholds.len())
            .map(|part| part.iter().map(|&c| c as f64).collect())
            .collect()
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

    /// Every row four times over, copies apart: distances come in runs of
    /// equal values, so a rank cut usually falls inside one.
    fn duplicated_rows() -> Dataset {
        let base = face_like(&GeneratorConfig::new(30, 4, 2, 6));
        let rows: Vec<Vec<f32>> = (0..120).map(|i| base.row(i % 30).to_vec()).collect();
        Dataset::from_rows(4, &rows)
    }

    #[test]
    fn nearest_columns_hand_over_what_a_full_sort_shows_up_to_the_rank() {
        let ds = duplicated_rows();
        let xs: Vec<&[f32]> = (0..21).map(|i| ds.row(i)).collect();
        let kind = DistanceKind::Euclidean;
        for keep in [0, 1, 2, 6, 119, 120, 500] {
            let columns = || {
                NearestColumns::new(ds.len(), keep, |q, nearest: Nearest<'_>| {
                    (q, nearest.sorted.to_vec(), nearest.ties_beyond)
                })
            };
            let got = scan_distances(&ds, &xs, kind, 2, columns);
            for (q, (index, nearest, ties_beyond)) in got.into_iter().enumerate() {
                let mut sorted: Vec<f32> = ds.iter().map(|r| kind.eval(xs[q], r)).collect();
                sort_distances(&mut sorted);
                let kept = keep.clamp(1, ds.len());
                let bits = |ds: &[f32]| ds.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!((index, bits(&nearest)), (q, bits(&sorted[..kept])));
                let ties = sorted[kept..]
                    .iter()
                    .filter(|&&d| d == sorted[kept - 1])
                    .count();
                assert_eq!(ties_beyond, ties, "keep {keep} query {q}");
                // every kept distance counts as a full sort would count it
                let view = Nearest {
                    sorted: &nearest,
                    ties_beyond,
                };
                for &t in &nearest {
                    let want = sorted.partition_point(|&d| d <= t);
                    assert_eq!(view.count_within(t), want, "keep {keep} query {q} t {t}");
                }
            }
        }
        // the cuts above do fall inside runs of equal distances
        let mut sorted: Vec<f32> = ds.iter().map(|r| kind.eval(xs[0], r)).collect();
        sort_distances(&mut sorted);
        assert_eq!(sorted[5], sorted[6]);
    }

    #[test]
    fn threshold_counts_equal_the_per_pair_count() {
        let ds = duplicated_rows();
        let xs: Vec<&[f32]> = (0..19).map(|i| ds.row(i * 5)).collect();
        let kind = DistanceKind::Euclidean;
        // thresholds that are distances themselves: `<=` must count ties,
        // and the largest one has records exactly at it (every row comes
        // four times over). One ladder in three is descending, one empty.
        let thresholds: Vec<Vec<f32>> = xs
            .iter()
            .enumerate()
            .map(|(q, x)| {
                let mut ts: Vec<f32> = (0..7).map(|j| kind.eval(x, ds.row(j * 9))).collect();
                sort_distances(&mut ts);
                match q % 3 {
                    0 => ts,
                    1 => ts.into_iter().rev().collect(),
                    _ => Vec::new(),
                }
            })
            .collect();
        let by_query: Vec<&[f32]> = thresholds.iter().map(Vec::as_slice).collect();
        let got = scan_distances(&ds, &xs, kind, 2, || ThresholdCounts::global(&by_query));
        for ((x, ts), counts) in xs.iter().zip(&thresholds).zip(got) {
            let want: Vec<f64> = ts
                .iter()
                .map(|&t| ds.iter().filter(|r| kind.eval(x, r) <= t).count() as f64)
                .collect();
            assert_eq!(counts, vec![want]);
        }
    }

    /// Reports the size of the group each query was scanned in.
    struct GroupSizes(usize);

    impl Labeller for GroupSizes {
        type Label = usize;

        fn begin(&mut self, l: usize, _q: usize) {
            self.0 = l + 1;
        }

        fn record(&mut self, _i: usize, dists: &[f32]) {
            assert_eq!(dists.len(), self.0);
        }

        fn finish(&mut self, _l: usize) -> usize {
            self.0
        }
    }

    /// Worker ranges are cut at group boundaries: whatever the worker
    /// count, only the very last group of the scan can be partial.
    #[test]
    fn only_the_last_group_of_a_scan_is_partial() {
        let ds = face_like(&GeneratorConfig::new(40, 3, 2, 7));
        for (queries, workers) in [(300, 2), (300, 3), (37, 2), (37, 8), (16, 4), (5, 3)] {
            let xs: Vec<&[f32]> = (0..queries).map(|i| ds.row(i % ds.len())).collect();
            let sizes =
                scan_distances(&ds, &xs, DistanceKind::Euclidean, workers, || GroupSizes(0));
            let full = queries / LANES * LANES;
            assert!(
                sizes[..full].iter().all(|&s| s == LANES),
                "{queries}/{workers}"
            );
            assert!(sizes[full..].iter().all(|&s| s == queries - full));
        }
        assert_eq!(queries_per_worker(300, 2), 160);
        assert_eq!(queries_per_worker(0, 0), LANES);
    }
}
