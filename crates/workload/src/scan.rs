//! The one-vs-many distance scan under exact labelling: every query object
//! against every record.

use selnet_data::Dataset;
use selnet_metric::vectors::{LaneBlocks, LANES, ROWS};
use selnet_metric::DistanceKind;
use selnet_tensor::parallel::fork_join;
use std::ops::Range;

/// What a labelling pass does with the distances [`scan_distances`]
/// computes, one group of up to [`LANES`] queries at a time. A worker owns
/// one labeller for all its groups, so whatever it allocates is reused.
pub(crate) trait Labeller {
    /// What is known about one query after the pass.
    type Label: Send;

    /// Lanes `0..queries.len()` hold these queries in the pass that
    /// follows.
    fn begin(&mut self, queries: Range<usize>);

    /// Per lane, the distance beyond which [`Labeller::record`] has no use
    /// for a record (`-∞` in a lane without a query), if the labeller
    /// knows one before the pass: the scan then computes a record's
    /// distances only as far as it takes to see it beyond every lane's
    /// limit, and does not report such a record at all. `None` if every
    /// distance is needed.
    fn limits(&self) -> Option<[f32; LANES]>;

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
/// `kind.eval(x, record)` — bounded by the labeller's limits if it has
/// any, else in full and [`ROWS`] records to a call. Cosine has no block
/// kernel and evaluates pair by pair behind the same interface.
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
        let mut dists = [[0.0f32; LANES]; ROWS];
        for (g, group) in slots.chunks_mut(LANES).enumerate() {
            let first = first + g * LANES;
            let group_xs = &xs[first..first + group.len()];
            block.clear();
            group_xs.iter().for_each(|x| block.push(x));
            labeller.begin(first..first + group.len());
            match (kind, labeller.limits()) {
                (DistanceKind::Cosine, _) => {
                    for (i, row) in ds.iter().enumerate() {
                        for (d, x) in dists[0].iter_mut().zip(group_xs) {
                            *d = kind.eval(x, row);
                        }
                        labeller.record(i, &dists[0][..group.len()]);
                    }
                }
                (DistanceKind::Euclidean, Some(limits)) => {
                    for (i, row) in ds.iter().enumerate() {
                        if block.dist_within(0, row, &limits, &mut dists[0]) {
                            labeller.record(i, &dists[0][..group.len()]);
                        }
                    }
                }
                (DistanceKind::Euclidean, None) => {
                    for i in (0..ds.len()).step_by(ROWS) {
                        let rows = ROWS.min(ds.len() - i);
                        if rows == ROWS {
                            let rows = std::array::from_fn(|r| ds.row(i + r));
                            block.sqdist_rows_into(0, rows, &mut dists);
                        } else {
                            // the last records, fewer than a call takes
                            for (r, dists) in dists[..rows].iter_mut().enumerate() {
                                block.sqdist_into(0, ds.row(i + r), dists);
                            }
                        }
                        for (r, dists) in dists[..rows].iter_mut().enumerate() {
                            dists.iter_mut().for_each(|d| *d = d.sqrt());
                            labeller.record(i + r, &dists[..group.len()]);
                        }
                    }
                }
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
/// to a fixed rank: keeps, per lane, the candidates for the `keep`
/// smallest distances, then sorts those and counts the ties of the largest
/// among the rest — what a full sort of all the distances would show a
/// reader that stops at rank `keep`, ties included — and hands `label`
/// the query index with that [`Nearest`].
pub(crate) struct NearestColumns<F> {
    lanes: Vec<Candidates>,
    /// The query in lane 0.
    first: usize,
    keep: usize,
    label: F,
}

/// One lane's candidates: every distance seen that is no larger than
/// `bound`, fewer than [`CANDIDATES_PER_KEPT`]` · keep` of them.
#[derive(Clone)]
struct Candidates {
    dists: Vec<f32>,
    /// The `keep`-th smallest distance as of the last selection (`+∞`
    /// before the first): a distance beyond it is beyond the final rank
    /// distance too, which only ever falls, and is dropped unseen.
    bound: f32,
    /// Distances equal to `bound` that selections have dropped.
    ties_dropped: usize,
}

/// A lane re-selects its `keep` smallest when it holds this many times
/// `keep` candidates: the selection is linear, so its cost per record
/// does not depend on the factor, and sixteen lanes of `4 · keep`
/// distances (the paper fixture keeps 500) stay cache-resident where
/// whole columns of 50 000 did not.
const CANDIDATES_PER_KEPT: usize = 4;

impl Candidates {
    /// No candidate, no bound: the state a pass starts in.
    fn reset(&mut self) {
        self.dists.clear();
        self.bound = f32::INFINITY;
        self.ties_dropped = 0;
    }

    /// Moves the `keep` smallest candidates to the front and drops the
    /// rest, counting those that tie with the largest kept. Every dropped
    /// distance is at or beyond the new bound, and a later selection can
    /// only lower it: the count of ties stays exact by forgetting the old
    /// ones whenever the bound falls.
    fn select(&mut self, keep: usize) {
        let (_, &mut top, beyond) = self
            .dists
            .select_nth_unstable_by(keep - 1, |a, b| a.partial_cmp(b).expect("finite distances"));
        let ties = beyond.iter().filter(|&&d| d == top).count();
        if top < self.bound {
            self.bound = top;
            self.ties_dropped = 0;
        }
        self.ties_dropped += ties;
        self.dists.truncate(keep);
    }
}

impl<F> NearestColumns<F> {
    /// `keep` is clamped to `1..=records`.
    pub(crate) fn new(records: usize, keep: usize, label: F) -> Self {
        assert!(records > 0, "no records to rank");
        let keep = keep.clamp(1, records);
        let lane = Candidates {
            dists: Vec::with_capacity(CANDIDATES_PER_KEPT * keep),
            bound: f32::INFINITY,
            ties_dropped: 0,
        };
        NearestColumns {
            lanes: vec![lane; LANES],
            first: 0,
            keep,
            label,
        }
    }
}

impl<R: Send, F: Fn(usize, Nearest<'_>) -> R> Labeller for NearestColumns<F> {
    type Label = R;

    fn begin(&mut self, queries: Range<usize>) {
        self.first = queries.start;
        self.lanes.iter_mut().for_each(Candidates::reset);
    }

    /// The bound falls during the pass; a limit fixed before it would be
    /// `+∞`.
    fn limits(&self) -> Option<[f32; LANES]> {
        None
    }

    fn record(&mut self, _i: usize, dists: &[f32]) {
        for (lane, &d) in self.lanes.iter_mut().zip(dists) {
            if d > lane.bound {
                continue; // a NaN stays, for the selection to refuse
            }
            lane.dists.push(d);
            if lane.dists.len() == CANDIDATES_PER_KEPT * self.keep {
                lane.select(self.keep);
            }
        }
    }

    fn finish(&mut self, l: usize) -> R {
        let lane = &mut self.lanes[l];
        lane.select(self.keep);
        sort_distances(&mut lane.dists);
        let nearest = Nearest {
            sorted: &lane.dists,
            ties_beyond: lane.ties_dropped,
        };
        (self.label)(self.first + l, nearest)
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

    /// Exactly one lane per query of the group: a shorter last group
    /// leaves no lane of the group before it behind.
    fn begin(&mut self, queries: Range<usize>) {
        self.lanes.resize(queries.len(), Lane::default());
        for (lane, &thresholds) in self.lanes.iter_mut().zip(&self.thresholds[queries]) {
            lane.thresholds = thresholds;
            // the maximum, not `last()`: nothing here requires a sorted ladder
            lane.top = thresholds.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            lane.counts.clear();
            lane.counts.resize(self.k * thresholds.len(), 0);
        }
    }

    /// Each lane's `top`, which [`ThresholdCounts::record`] tests first.
    fn limits(&self) -> Option<[f32; LANES]> {
        let mut limits = [f32::NEG_INFINITY; LANES];
        for (limit, lane) in limits.iter_mut().zip(&self.lanes) {
            *limit = lane.top;
        }
        Some(limits)
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

    /// Reports each query's distances as it received them, asking for
    /// them in full or within the given limits.
    struct Echo {
        lanes: Vec<(usize, Vec<u32>)>,
        limits: Option<[f32; LANES]>,
    }

    impl Labeller for Echo {
        type Label = (usize, Vec<u32>);

        fn begin(&mut self, queries: Range<usize>) {
            self.lanes = queries.map(|q| (q, Vec::new())).collect();
        }

        fn limits(&self) -> Option<[f32; LANES]> {
            self.limits
        }

        fn record(&mut self, i: usize, dists: &[f32]) {
            assert_eq!(dists.len(), self.lanes.len());
            for (lane, d) in self.lanes.iter_mut().zip(dists) {
                assert_eq!(lane.1.len(), i, "records arrive in dataset order");
                lane.1.push(d.to_bits());
            }
        }

        fn finish(&mut self, l: usize) -> Self::Label {
            std::mem::take(&mut self.lanes[l])
        }
    }

    /// Every distance has the bits of the pair-by-pair evaluation, whatever
    /// the group and worker boundaries, on the four-row path (with its
    /// last records, fewer than four) and on the bounded one, under one
    /// stride of coordinates and over several; labels come back in query
    /// order.
    #[test]
    fn distances_equal_pair_evaluation_bit_for_bit() {
        let narrow = face_like(&GeneratorConfig::new(70, 9, 3, 5));
        let wide = face_like(&GeneratorConfig::new(45, 77, 3, 5));
        for (ds, kind, limits) in [
            (&narrow, DistanceKind::Euclidean, None),
            (
                &narrow,
                DistanceKind::Euclidean,
                Some([f32::INFINITY; LANES]),
            ),
            (&narrow, DistanceKind::Cosine, None),
            (&wide, DistanceKind::Euclidean, None),
            (&wide, DistanceKind::Euclidean, Some([f32::INFINITY; LANES])),
            (&wide, DistanceKind::Cosine, Some([0.0; LANES])),
        ] {
            assert_ne!(ds.len() % ROWS, 0);
            for (queries, threads) in [(0, 2), (1, 1), (16, 1), (17, 1), (37, 2), (70, 3)] {
                let xs: Vec<&[f32]> = (0..queries).map(|i| ds.row((i * 7) % ds.len())).collect();
                let echo = || Echo {
                    lanes: Vec::new(),
                    limits,
                };
                let got = scan_distances(ds, &xs, kind, threads, echo);
                assert_eq!(got.len(), queries);
                for (q, (index, bits)) in got.into_iter().enumerate() {
                    let want: Vec<u32> = ds.iter().map(|r| kind.eval(xs[q], r).to_bits()).collect();
                    assert_eq!((index, bits), (q, want), "{kind:?} query {q} of {queries}");
                }
            }
        }
    }

    /// Reports which records the scan handed over.
    struct Seen {
        limits: [f32; LANES],
        seen: Vec<usize>,
    }

    impl Labeller for Seen {
        type Label = Vec<usize>;

        fn begin(&mut self, _queries: Range<usize>) {
            self.seen.clear();
        }

        fn limits(&self) -> Option<[f32; LANES]> {
            Some(self.limits)
        }

        fn record(&mut self, i: usize, _dists: &[f32]) {
            self.seen.push(i);
        }

        fn finish(&mut self, _l: usize) -> Vec<usize> {
            self.seen.clone()
        }
    }

    /// A record within any lane's limit is always handed over; over
    /// several strides of coordinates, some of those beyond every limit
    /// are not.
    #[test]
    fn a_bounded_scan_skips_only_records_beyond_every_limit() {
        let ds = face_like(&GeneratorConfig::new(90, 77, 3, 5));
        let kind = DistanceKind::Euclidean;
        let xs: Vec<&[f32]> = (0..5).map(|i| ds.row(i * 11)).collect();
        // lane l reaches its query's (3 + l)-th nearest record exactly
        let mut limits = [f32::NEG_INFINITY; LANES];
        for (limit, x) in limits.iter_mut().zip(&xs).skip(1) {
            let mut dists: Vec<f32> = ds.iter().map(|r| kind.eval(x, r)).collect();
            sort_distances(&mut dists);
            *limit = dists[3];
        }
        let seen = || Seen {
            limits,
            seen: Vec::new(),
        };
        let got = scan_distances(&ds, &xs, kind, 1, seen);
        let within =
            |i: usize| (xs.iter().zip(&limits)).any(|(x, &limit)| kind.eval(x, ds.row(i)) <= limit);
        for i in (0..ds.len()).filter(|&i| within(i)) {
            assert!(got[0].contains(&i), "record {i} is within a limit");
        }
        assert!(got[0].len() < ds.len(), "some record is beyond every limit");
        assert!(got.iter().all(|seen| seen == &got[0]));
    }

    /// Every row four times over, copies apart, and three rows a fifth
    /// time: distances come in runs of equal values, so a rank cut usually
    /// falls inside one, and the record count is no multiple of [`ROWS`].
    fn duplicated_rows(dim: usize) -> Dataset {
        let base = face_like(&GeneratorConfig::new(30, dim, 2, 6));
        let rows: Vec<Vec<f32>> = (0..123).map(|i| base.row(i % 30).to_vec()).collect();
        Dataset::from_rows(dim, &rows)
    }

    #[test]
    fn nearest_columns_hand_over_what_a_full_sort_shows_up_to_the_rank() {
        for ds in [duplicated_rows(4), duplicated_rows(72)] {
            let xs: Vec<&[f32]> = (0..21).map(|i| ds.row(i)).collect();
            let kind = DistanceKind::Euclidean;
            // up to rank 6 a lane re-selects at least five times over the
            // 123 records, each time inside or beside a run of equal ones
            for keep in [0, 1, 2, 6, 30, 122, 123, 500] {
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
    }

    /// Ties of the rank distance on both sides of a re-selection, a bound
    /// that falls past dropped ties, and one that stays while more ties
    /// arrive: the count is that of a full sort after every record.
    #[test]
    fn ties_straddling_a_reselection_are_counted_exactly() {
        let keep = 2;
        let stream = [
            5.0f32, 7.0, 7.0, 7.0, 7.0, 9.0, 7.0, 7.0, // selects: 5 7 | two 7s dropped
            7.0, 8.0, 7.0, 6.0, 7.0, 7.0, // 6 enters: the bound falls, old ties forgotten
            6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 3.0, 6.0, 1.0, 6.0,
        ];
        for upto in 1..=stream.len() {
            let label = |_, nearest: Nearest<'_>| (nearest.sorted.to_vec(), nearest.ties_beyond);
            let mut columns = NearestColumns::new(upto, keep, label);
            columns.begin(0..1);
            for (i, d) in stream[..upto].iter().enumerate() {
                columns.record(i, &[*d]);
                assert!(columns.lanes[0].dists.len() < CANDIDATES_PER_KEPT * keep);
            }
            let (nearest, ties_beyond) = columns.finish(0);
            let mut sorted = stream[..upto].to_vec();
            sort_distances(&mut sorted);
            let kept = keep.min(upto);
            assert_eq!(nearest, sorted[..kept], "after {upto} records");
            let ties = sorted[kept..].iter().filter(|&&d| d == sorted[kept - 1]);
            assert_eq!(ties_beyond, ties.count(), "after {upto} records");
        }
    }

    #[test]
    fn threshold_counts_equal_the_per_pair_count() {
        // rows that differ in their first coordinates only are as far
        // apart after one stride as they will ever be: a record exactly
        // at a lane's top threshold is then at its limit at every look
        let mut front_loaded = duplicated_rows(72);
        for i in 0..front_loaded.len() {
            front_loaded.row_mut(i)[20..].fill(0.5);
        }
        for ds in [duplicated_rows(4), duplicated_rows(72), front_loaded] {
            // 16 + 3 queries, then 16 + 1: a lane alone with its limit
            let xs: Vec<&[f32]> = (0..19).map(|i| ds.row(i * 5)).collect();
            for xs in [&xs[..], &xs[..17]] {
                threshold_counts_equal_the_per_pair_count_on(&ds, xs);
            }
        }
    }

    fn threshold_counts_equal_the_per_pair_count_on(ds: &Dataset, xs: &[&[f32]]) {
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
        let got = scan_distances(ds, xs, kind, 2, || ThresholdCounts::global(&by_query));
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

        fn begin(&mut self, queries: Range<usize>) {
            self.0 = queries.len();
        }

        fn limits(&self) -> Option<[f32; LANES]> {
            None
        }

        fn record(&mut self, _i: usize, dists: &[f32]) {
            assert_eq!(dists.len(), self.0);
        }

        fn finish(&mut self, _l: usize) -> usize {
            self.0
        }
    }

    /// Worker ranges are cut at group boundaries: whatever the worker
    /// count, only the very last group of the scan can be partial — and
    /// a partial group after a full one inherits nothing from it: no lane,
    /// and so no limit, of a query that is no longer there.
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

        let ladders: Vec<&[f32]> = vec![&[1.0, 2.0]; 21];
        let mut counts = ThresholdCounts::global(&ladders);
        counts.begin(0..LANES);
        assert_eq!(counts.limits(), Some([2.0; LANES]));
        counts.begin(LANES..21);
        assert_eq!(counts.lanes.len(), 5);
        let limits = counts.limits().expect("a threshold count has limits");
        assert_eq!(limits[..5], [2.0; 5]);
        assert!(limits[5..].iter().all(|&l| l == f32::NEG_INFINITY));
    }
}
