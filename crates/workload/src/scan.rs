//! The one-vs-many distance scan under exact labelling: every query object
//! against every record.

use selnet_data::Dataset;
use selnet_metric::vectors::{LaneBlocks, LANES, ROWS};
use selnet_metric::DistanceKind;
use selnet_tensor::parallel::fork_join;

/// What a labelling pass does with the distances [`scan_distances`]
/// computes, one group of up to [`LANES`] queries at a time. A worker
/// holds one labeller per group of its band and reuses each for the
/// groups of the bands that follow, so whatever it allocates is reused.
pub(crate) trait Labeller {
    /// What is known about one query after the pass.
    type Label: Send;

    /// Lanes `0..queries.len()` hold the queries with these indices (into
    /// the scan's query list) in the pass that follows.
    fn begin(&mut self, queries: &[usize]);

    /// Per lane, the distance beyond which [`Labeller::record`] has no use
    /// for a record (`+∞` where every distance is needed, `-∞` in a lane
    /// without a query): the scan reads it once per tile of records,
    /// computes a record's distances only as far as it takes to see it
    /// beyond every lane's limit, and does not report such a record at
    /// all. A limit may fall as records arrive, never rise.
    fn limits(&self) -> [f32; LANES];

    /// Record `i` lies at `dists[l]` from the query in lane `l`; records
    /// arrive in dataset order.
    fn record(&mut self, i: usize, dists: &[f32]);

    /// The label of the query in lane `l`, every record having been seen.
    fn finish(&mut self, l: usize) -> Self::Label;

    /// Bytes the labeller keeps for one group: what [`BAND_BYTES`] counts
    /// besides the group's packed queries.
    fn footprint(&self) -> usize;
}

/// Records a worker reads before it moves on to the next ones: every group
/// of its band runs over a tile while the tile is in cache (64 records of
/// d = 300 are 77 KB), so the dataset streams from memory once per band,
/// not once per group. A multiple of [`ROWS`], so that only the dataset's
/// last tile can leave a kernel call short of records. Tiles of 16, 64
/// and 256 records labelled the paper fixture in the same time.
const TILE: usize = 64;

/// Bytes of packed queries and labeller state a worker holds at once (a
/// band of groups). A group of the paper fixture holds 19 KB of packed
/// queries and, under the geometric ladder, 128 KB of candidates (sixteen
/// lanes of `4 · 500`): fourteen groups to a band, so each of two workers
/// takes its share of the 300 queries in one band. Holding every group of
/// an 8 000-query workload would keep ≈ 32 MB of candidates per worker;
/// the budget caps that at about one core's L2. Budgets of 1, 2 and 4 MiB
/// labelled 300 and 2 000 queries of the paper fixture in the same time.
const BAND_BYTES: usize = 2 << 20;

/// Labels every query object from its exact distances to every record;
/// the labels come back in query order.
///
/// The queries are put in [`locality_order`] and that order is split
/// contiguously over `workers` threads (at least one, at most one per
/// group of [`LANES`] queries; the calling thread is the first of them,
/// see `selnet_tensor::parallel::fork_join`). A worker packs its queries
/// [`LANES`] at a time into lane-major blocks, holds as many groups as
/// [`BAND_BYTES`] allows (a band) and streams the dataset **once per
/// band**, a [`TILE`] of records at a time, running every group of the
/// band over a tile before it reads the next. One kernel call gives
/// [`ROWS`] records' distances to a group's sixteen queries, each with the
/// bits of `kind.eval(x, record)`, bounded by the limits the labeller has
/// at the start of the tile. Cosine has no
/// block kernel and evaluates pair by pair behind the same interface. No
/// label depends on the order, the split or the band: each group sees
/// every record it has a use for, in dataset order.
pub(crate) fn scan_distances<L: Labeller>(
    ds: &Dataset,
    xs: &[&[f32]],
    kind: DistanceKind,
    workers: usize,
    labeller: impl Fn() -> L + Sync,
) -> Vec<L::Label> {
    let order = locality_order(xs, ds.dim());
    let label_from = |queries: &[usize]| {
        let first = labeller();
        let group_bytes = LANES * ds.dim() * size_of::<f32>() + first.footprint();
        let band_groups = (BAND_BYTES / group_bytes).max(1);
        let mut band = vec![(LaneBlocks::new(ds.dim()), first)];
        let mut labels = Vec::with_capacity(queries.len());
        for queries in queries.chunks(band_groups * LANES) {
            let groups = queries.len().div_ceil(LANES);
            band.resize_with(groups.max(band.len()), || {
                (LaneBlocks::new(ds.dim()), labeller())
            });
            let band = &mut band[..groups];
            for ((block, labeller), queries) in band.iter_mut().zip(queries.chunks(LANES)) {
                block.clear();
                queries.iter().for_each(|&q| block.push(xs[q]));
                labeller.begin(queries);
            }
            for tile in (0..ds.len()).step_by(TILE) {
                let tile = tile..ds.len().min(tile + TILE);
                for ((block, labeller), queries) in band.iter_mut().zip(queries.chunks(LANES)) {
                    scan_tile(ds, tile.clone(), xs, queries, kind, block, labeller);
                }
            }
            for ((_, labeller), queries) in band.iter_mut().zip(queries.chunks(LANES)) {
                labels.extend((0..queries.len()).map(|l| labeller.finish(l)));
            }
        }
        labels
    };
    let per_worker = queries_per_worker(xs.len(), workers);
    let mut by_worker: Vec<Vec<L::Label>> = order.chunks(per_worker).map(|_| Vec::new()).collect();
    let parts: Vec<_> = order.chunks(per_worker).zip(&mut by_worker).collect();
    fork_join(parts, |(queries, labels)| *labels = label_from(queries));
    let mut labels: Vec<Option<L::Label>> = xs.iter().map(|_| None).collect();
    for (&q, label) in order.iter().zip(by_worker.into_iter().flatten()) {
        labels[q] = Some(label);
    }
    labels
        .into_iter()
        .map(|l| l.expect("every query labelled"))
        .collect()
}

/// One group's pass over the records of `tile`, in dataset order: the
/// group's `queries` (indices into `xs`) are packed in `block`.
fn scan_tile<L: Labeller>(
    ds: &Dataset,
    tile: std::ops::Range<usize>,
    xs: &[&[f32]],
    queries: &[usize],
    kind: DistanceKind,
    block: &LaneBlocks,
    labeller: &mut L,
) {
    let lanes = queries.len();
    let mut dists = [[0.0f32; LANES]; ROWS];
    match kind {
        DistanceKind::Cosine => {
            for i in tile {
                let row = ds.row(i);
                for (d, &q) in dists[0].iter_mut().zip(queries) {
                    *d = kind.eval(xs[q], row);
                }
                labeller.record(i, &dists[0][..lanes]);
            }
        }
        DistanceKind::Euclidean => {
            let limits = [labeller.limits(); ROWS];
            for i in tile.step_by(ROWS) {
                let rows = ROWS.min(ds.len() - i);
                let open = if rows == ROWS {
                    let rows = std::array::from_fn(|r| ds.row(i + r));
                    block.dist_rows_within(0, rows, &limits, &mut dists)
                } else {
                    // the last records, fewer than a call takes
                    std::array::from_fn(|r| {
                        r < rows && block.dist_within(0, ds.row(i + r), &limits[r], &mut dists[r])
                    })
                };
                for (r, dists) in dists.iter().enumerate().filter(|&(r, _)| open[r]) {
                    labeller.record(i + r, &dists[..lanes]);
                }
            }
        }
    }
}

/// The order the scan takes its queries in: blocks of [`LANES`] that
/// share a neighbourhood, so that a record far from one query is usually
/// far from all sixteen, and a bounded scan abandons it at its first look.
///
/// One pivot per group, chosen farthest first: the first query, then
/// each time the query farthest from every pivot so far. Every query
/// goes to its nearest pivot (the earliest of equals), and the queries
/// are ordered by pivot and, within one, by their distance to it (index
/// order among equals): on the paper fixture that leaves 26 % of the
/// rank scan's (group, record) pairs open against 29 % in index order
/// within a pivot, and 10 % of the per-part count's against 15 %.
/// `Q · ⌈Q / 16⌉` squared distances on the block kernel; ties and NaNs
/// only move a query between groups, which no label depends on.
fn locality_order(xs: &[&[f32]], dim: usize) -> Vec<usize> {
    let groups = xs.len().div_ceil(LANES);
    if groups <= 1 {
        return (0..xs.len()).collect();
    }
    let mut block = LaneBlocks::with_capacity(dim, xs.len());
    xs.iter().for_each(|x| block.push(x));
    // per query: squared distance to its nearest pivot so far, and which
    let mut nearest = vec![(f32::INFINITY, 0usize); xs.len()];
    let mut dists = [0.0f32; LANES];
    let mut pivot = 0;
    for p in 0..groups {
        for (b, nearest) in nearest.chunks_mut(LANES).enumerate() {
            block.sqdist_into(b, xs[pivot], &mut dists);
            for (nearest, &d) in nearest.iter_mut().zip(&dists) {
                if d < nearest.0 {
                    *nearest = (d, p);
                }
            }
        }
        let farthest = nearest.iter().enumerate();
        pivot = farthest
            .fold((0, f32::NEG_INFINITY), |best, (q, &(d, _))| {
                if d > best.1 {
                    (q, d)
                } else {
                    best
                }
            })
            .0;
    }
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| {
        let ((da, pa), (db, pb)) = (nearest[a], nearest[b]);
        pa.cmp(&pb).then(da.total_cmp(&db))
    });
    order
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
    /// The query in each lane of the group.
    queries: Vec<usize>,
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
            queries: Vec::with_capacity(LANES),
            keep,
            label,
        }
    }
}

impl<R: Send, F: Fn(usize, Nearest<'_>) -> R> Labeller for NearestColumns<F> {
    type Label = R;

    fn begin(&mut self, queries: &[usize]) {
        self.queries.clear();
        self.queries.extend_from_slice(queries);
        self.lanes.iter_mut().for_each(Candidates::reset);
    }

    /// Each lane's `bound` (`+∞` before its first selection): it only
    /// falls, so a record beyond every lane's bound as the scan reads it
    /// is one that [`NearestColumns::record`] would drop unseen — no
    /// candidate, no tie and no label changes.
    fn limits(&self) -> [f32; LANES] {
        let mut limits = [f32::NEG_INFINITY; LANES];
        for (limit, lane) in limits.iter_mut().zip(&self.lanes[..self.queries.len()]) {
            *limit = lane.bound;
        }
        limits
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
        (self.label)(self.queries[l], nearest)
    }

    /// Sixteen lanes of candidates at their most.
    fn footprint(&self) -> usize {
        LANES * CANDIDATES_PER_KEPT * self.keep * size_of::<f32>()
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
    fn begin(&mut self, queries: &[usize]) {
        self.lanes.resize(queries.len(), Lane::default());
        for (lane, &q) in self.lanes.iter_mut().zip(queries) {
            let thresholds = self.thresholds[q];
            lane.thresholds = thresholds;
            // the maximum, not `last()`: nothing here requires a sorted ladder
            lane.top = thresholds.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            lane.counts.clear();
            lane.counts.resize(self.k * thresholds.len(), 0);
        }
    }

    /// Each lane's `top`, which [`ThresholdCounts::record`] tests first.
    fn limits(&self) -> [f32; LANES] {
        let mut limits = [f32::NEG_INFINITY; LANES];
        for (limit, lane) in limits.iter_mut().zip(&self.lanes) {
            *limit = lane.top;
        }
        limits
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

    /// Sixteen lanes of counts for the longest ladder.
    fn footprint(&self) -> usize {
        let longest = self.thresholds.iter().map(|ts| ts.len()).max();
        LANES * self.k * longest.unwrap_or(0) * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{face_like, GeneratorConfig};
    use selnet_tensor::parallel;

    /// Reports each query's distances as it received them, asking for
    /// them in full or within the given limits.
    struct Echo {
        lanes: Vec<(usize, Vec<u32>)>,
        limits: [f32; LANES],
    }

    impl Labeller for Echo {
        type Label = (usize, Vec<u32>);

        fn begin(&mut self, queries: &[usize]) {
            self.lanes = queries.iter().map(|&q| (q, Vec::new())).collect();
        }

        fn limits(&self) -> [f32; LANES] {
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

        fn footprint(&self) -> usize {
            0
        }
    }

    /// Every distance has the bits of the pair-by-pair evaluation, whatever
    /// the group and worker boundaries, on the four-row kernel (and the
    /// one-row one for the last records, fewer than four), under one
    /// stride of coordinates and over several; labels come back in query
    /// order. Cosine ignores the limits.
    #[test]
    fn distances_equal_pair_evaluation_bit_for_bit() {
        let narrow = face_like(&GeneratorConfig::new(70, 9, 3, 5));
        let wide = face_like(&GeneratorConfig::new(45, 77, 3, 5));
        let everything = [f32::INFINITY; LANES];
        for (ds, kind, limits) in [
            (&narrow, DistanceKind::Euclidean, everything),
            (&narrow, DistanceKind::Cosine, everything),
            (&wide, DistanceKind::Euclidean, everything),
            (&wide, DistanceKind::Cosine, [0.0; LANES]),
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

        fn begin(&mut self, _queries: &[usize]) {
            self.seen.clear();
        }

        fn limits(&self) -> [f32; LANES] {
            self.limits
        }

        fn record(&mut self, i: usize, _dists: &[f32]) {
            self.seen.push(i);
        }

        fn finish(&mut self, _l: usize) -> Vec<usize> {
            self.seen.clone()
        }

        fn footprint(&self) -> usize {
            0
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
            columns.begin(&[0]);
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

    /// A labeller whose band holds `groups` groups, or as many as its own
    /// footprint allows (`None`); everything else is `inner`'s.
    struct Banded<L> {
        inner: L,
        bytes: usize,
    }

    impl<L: Labeller> Banded<L> {
        fn new(inner: L, groups: Option<usize>, dim: usize) -> Self {
            let packed = LANES * dim * size_of::<f32>();
            let bytes = groups.map_or(inner.footprint(), |groups| BAND_BYTES / groups - packed);
            Banded { inner, bytes }
        }
    }

    impl<L: Labeller> Labeller for Banded<L> {
        type Label = L::Label;

        fn begin(&mut self, queries: &[usize]) {
            self.inner.begin(queries);
        }

        fn limits(&self) -> [f32; LANES] {
            self.inner.limits()
        }

        fn record(&mut self, i: usize, dists: &[f32]) {
            self.inner.record(i, dists);
        }

        fn finish(&mut self, l: usize) -> Self::Label {
            self.inner.finish(l)
        }

        fn footprint(&self) -> usize {
            self.bytes
        }
    }

    /// Every labeller's labels equal the pair-by-pair reference: the rank
    /// scan's kept distances and ties against a full sort, the global and
    /// per-part threshold counts against a count per pair. Both distances;
    /// d = 5, 24 and 70 (above one stride of the bounded kernel, so its
    /// looks happen); records four times over, so that the queries, which
    /// are records, tie at the top rank and a falling bound drops ties.
    /// At d = 70 also 523 records whose rows differ in their first
    /// coordinates only: as far apart at the first look as they will ever
    /// be, with the last copies of each row six tiles in or later, when a
    /// rank bound has come down close to the final one — a limit below
    /// what a labeller may hand over then drops a record its label needs.
    /// Query counts that leave a partial last group, in bands of the
    /// budget's size and of one and three groups (several bands per
    /// worker); one worker and three.
    #[test]
    fn every_labeller_equals_the_per_pair_reference() {
        let base = face_like(&GeneratorConfig::new(130, 70, 2, 6));
        let rows: Vec<Vec<f32>> = (0..523)
            .map(|i| {
                let mut row = base.row(i % 130).to_vec();
                row[20..].fill(0.5);
                row
            })
            .collect();
        let front_loaded = Dataset::from_rows(70, &rows);
        let sets = [5, 24, 70].map(duplicated_rows);
        for ds in sets.iter().chain([&front_loaded]) {
            let dim = ds.dim();
            let parts: Vec<usize> = (0..ds.len()).map(|i| (i * 7) % 3).collect();
            for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
                for queries in [21, 53] {
                    let xs: Vec<&[f32]> =
                        (0..queries).map(|i| ds.row((i * 5) % ds.len())).collect();
                    let sorted: Vec<Vec<f32>> = (xs.iter())
                        .map(|x| {
                            let mut d: Vec<f32> = ds.iter().map(|r| kind.eval(x, r)).collect();
                            sort_distances(&mut d);
                            d
                        })
                        .collect();
                    // distances themselves as thresholds: `<=` counts ties
                    let thresholds: Vec<Vec<f32>> = (sorted.iter())
                        .map(|d| vec![d[0], d[3], d[6], d[40]])
                        .collect();
                    let by_query: Vec<&[f32]> = thresholds.iter().map(Vec::as_slice).collect();
                    let within = |x: &[f32], t: f32, part: Option<usize>| {
                        let members = ds.iter().zip(&parts);
                        let members = members.filter(|&(_, &p)| part.is_none_or(|part| p == part));
                        members.filter(|(r, _)| kind.eval(x, r) <= t).count() as f64
                    };
                    for (threads, band) in [(1, None), (3, None), (1, Some(3)), (3, Some(1))] {
                        let case = format!(
                            "d {dim} {kind:?} {queries} queries, {threads} workers, band {band:?}"
                        );
                        parallel::set_threads(threads);
                        let workers = parallel::fork_threads();
                        for keep in [2, 6] {
                            let label = |q, nearest: Nearest<'_>| {
                                (q, nearest.sorted.to_vec(), nearest.ties_beyond)
                            };
                            let columns = || {
                                Banded::new(NearestColumns::new(ds.len(), keep, label), band, dim)
                            };
                            let got = scan_distances(ds, &xs, kind, workers, columns);
                            for (q, (index, nearest, ties)) in got.into_iter().enumerate() {
                                let sorted = &sorted[q];
                                let top = sorted[keep - 1];
                                let want_ties =
                                    sorted[keep..].iter().filter(|&&d| d == top).count();
                                let bits =
                                    |d: &[f32]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                                assert_eq!(index, q, "{case}");
                                assert_eq!(
                                    bits(&nearest),
                                    bits(&sorted[..keep]),
                                    "{case}, keep {keep}"
                                );
                                assert_eq!(ties, want_ties, "{case}, keep {keep}, query {q}");
                            }
                        }
                        let global = || Banded::new(ThresholdCounts::global(&by_query), band, dim);
                        let got = scan_distances(ds, &xs, kind, workers, global);
                        for ((x, ts), counts) in xs.iter().zip(&thresholds).zip(got) {
                            let want: Vec<f64> = ts.iter().map(|&t| within(x, t, None)).collect();
                            assert_eq!(counts, [want], "{case}");
                        }
                        let per_part = || {
                            Banded::new(ThresholdCounts::per_part(&parts, 3, &by_query), band, dim)
                        };
                        let got = scan_distances(ds, &xs, kind, workers, per_part);
                        for ((x, ts), counts) in xs.iter().zip(&thresholds).zip(got) {
                            let want: Vec<Vec<f64>> = (0..3)
                                .map(|part| ts.iter().map(|&t| within(x, t, Some(part))).collect())
                                .collect();
                            assert_eq!(counts, want, "{case}");
                        }
                    }
                    parallel::set_threads(0);
                }
            }
            // the queries do tie with another record at both ranks kept
            let mut sorted: Vec<f32> = ds
                .iter()
                .map(|r| DistanceKind::Euclidean.eval(ds.row(0), r))
                .collect();
            sort_distances(&mut sorted);
            assert_eq!((sorted[1], sorted[5]), (sorted[2], sorted[6]));
        }
    }

    /// Reports the size of the group each query was scanned in.
    struct GroupSizes(usize);

    impl Labeller for GroupSizes {
        type Label = usize;

        fn begin(&mut self, queries: &[usize]) {
            self.0 = queries.len();
        }

        fn limits(&self) -> [f32; LANES] {
            [f32::INFINITY; LANES]
        }

        fn record(&mut self, _i: usize, dists: &[f32]) {
            assert_eq!(dists.len(), self.0);
        }

        fn finish(&mut self, _l: usize) -> usize {
            self.0
        }

        fn footprint(&self) -> usize {
            0
        }
    }

    /// Worker ranges and bands are cut at group boundaries: whatever the
    /// worker count, only the very last group of the scan's order can be
    /// partial — and a partial group after a full one inherits nothing
    /// from it: no lane, and so no limit, of a query that is no longer
    /// there.
    #[test]
    fn only_the_last_group_of_a_scan_is_partial() {
        let ds = face_like(&GeneratorConfig::new(40, 3, 2, 7));
        for (queries, workers) in [(300, 2), (300, 3), (37, 2), (37, 8), (16, 4), (5, 3)] {
            let xs: Vec<&[f32]> = (0..queries).map(|i| ds.row((i * 7) % ds.len())).collect();
            let sizes =
                scan_distances(&ds, &xs, DistanceKind::Euclidean, workers, || GroupSizes(0));
            let in_order: Vec<usize> = (locality_order(&xs, ds.dim()).iter())
                .map(|&q| sizes[q])
                .collect();
            let full = queries / LANES * LANES;
            assert!(
                in_order[..full].iter().all(|&s| s == LANES),
                "{queries}/{workers}"
            );
            assert!(in_order[full..].iter().all(|&s| s == queries - full));
        }
        assert_eq!(queries_per_worker(300, 2), 160);
        assert_eq!(queries_per_worker(0, 0), LANES);

        let ladders: Vec<&[f32]> = vec![&[1.0, 2.0]; 21];
        let all: Vec<usize> = (0..21).collect();
        let mut counts = ThresholdCounts::global(&ladders);
        counts.begin(&all[..LANES]);
        assert_eq!(counts.limits(), [2.0; LANES]);
        counts.begin(&all[LANES..]);
        assert_eq!(counts.lanes.len(), 5);
        let limits = counts.limits();
        assert_eq!(limits[..5], [2.0; 5]);
        assert!(limits[5..].iter().all(|&l| l == f32::NEG_INFINITY));

        // a rank scan's limits are its lanes' bounds: `+∞` before the
        // first selection, `-∞` past the group
        let mut columns = NearestColumns::new(10, 1, |q, _: Nearest<'_>| q);
        columns.begin(&all[..3]);
        let limits = columns.limits();
        assert_eq!(limits[..3], [f32::INFINITY; 3]);
        assert!(limits[3..].iter().all(|&l| l == f32::NEG_INFINITY));
        (0..CANDIDATES_PER_KEPT).for_each(|i| columns.record(i, &[i as f32 + 1.0, 0.5, 7.0]));
        let limits = columns.limits();
        assert_eq!(limits[..3], [1.0, 0.5, 7.0]);
    }
}
