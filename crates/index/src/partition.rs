//! Data partitioning for the partitioned estimator (§5.3, §7.8).
//!
//! Three methods, matching Table 10:
//!
//! * **CT** — cover-tree regions merged greedily into `K` size-balanced
//!   clusters (the paper's default);
//! * **RP** — random partitioning (for non-metric distances the paper
//!   replaces the indicator with all-ones, which RP also uses);
//! * **KM** — k-means clusters.
//!
//! A [`Partitioning`] also provides the intersection indicator
//! `f_c(x, t) ∈ {0,1}^K`: cluster `i` is *valid* for query `(x, t)` iff the
//! query ball intersects one of the cluster's ball regions. Cosine
//! workloads run the geometry on normalized vectors with the threshold
//! converted to Euclidean (`‖u−v‖ = sqrt(2 t_cos)`), exactly the unit-vector
//! equivalence the paper invokes.

use crate::covertree::{BuildStats, CoverTree, Region};
use crate::kmeans::kmeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selnet_data::Dataset;
use selnet_metric::vectors::{self, LaneBlocks, LANES};
use selnet_metric::DistanceKind;
use std::io::{self, Read, Write};

/// Partitioning strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartitionMethod {
    /// Cover-tree regions + greedy size-balancing merge. `ratio` is the
    /// paper's partition ratio `r`: regions stop expanding below `r·|D|`.
    CoverTree {
        /// Maximum region size as a fraction of `|D|`.
        ratio: f64,
    },
    /// Uniform random assignment; the indicator is all-ones.
    Random,
    /// k-means clusters; each cluster is a single ball region.
    KMeans,
}

/// One cluster's ball regions for the intersection test, probed biggest
/// ball first: `radii[i]` (Euclidean space, non-increasing) belongs to
/// centre `i` of the lane-major block store (already normalized for cosine
/// workloads). A store this crate builds or refreshes holds no ball that a
/// bigger one of the same cluster covers ([`Cluster::covers`]).
#[derive(Clone, Debug)]
struct Cluster {
    radii: Vec<f32>,
    centres: LaneBlocks,
}

impl Cluster {
    /// An empty cluster with room for exactly `regions` balls.
    fn with_capacity(dim: usize, regions: usize) -> Self {
        Cluster {
            radii: Vec::with_capacity(regions),
            centres: LaneBlocks::with_capacity(dim, regions),
        }
    }

    fn push(&mut self, centre: &[f32], radius: f32) {
        self.centres.push(centre);
        self.radii.push(radius);
    }

    /// Whether the ball `(centre, radius)` lies wholly inside a strictly
    /// bigger ball `l` of this store (in probe order), with a margin:
    /// `‖centre − c_l‖ + radius ≤ r_l·(1 − 2⁻¹⁰)`.
    ///
    /// Such a ball is redundant, exactly. It cannot change the indicator's
    /// OR — a query ball that meets it meets `l`:
    /// `d(x, c_l) ≤ d(x, c) + d(c, c_l) ≤ t + radius + d(c, c_l) ≤ t + r_l` —
    /// and it cannot win [`Partitioning::refresh_assignments`]' arg-min:
    /// `d(x, c_l) − r_l < d(x, c) − radius` for every `x`. Both hold in
    /// real arithmetic without the margin; the 2⁻¹⁰ is there to absorb the
    /// f32 rounding of the distances compared (≲ 2·10⁻⁵ relative for a sum
    /// of 300 squares), which it does while the threshold, or a record's
    /// distance, stays below about fifty times `r_l`.
    ///
    /// Only blocks with a ball that could cover are looked at — radii only
    /// fall along the store, so the walk ends at the first block without
    /// one — and each only as far as it takes to see every such ball too
    /// far away. A NaN radius neither covers nor is covered (every
    /// comparison with it is false), and only a ball of positive radius
    /// covers anything.
    fn covers(&self, centre: &[f32], radius: f32) -> bool {
        let mut dist = [0.0f32; LANES];
        for (b, chunk) in self.radii.chunks(LANES).enumerate() {
            // −∞ for a lane with no ball, or none that could cover
            let mut limits = [f32::NEG_INFINITY; LANES];
            let mut candidates = false;
            for (limit, &r) in limits.iter_mut().zip(chunk) {
                if r > radius && r > 0.0 {
                    *limit = r * COVER_MARGIN - radius;
                    candidates = true;
                }
            }
            if !candidates {
                return false;
            }
            if self.centres.dist_within(b, centre, &limits, &mut dist)
                && dist.iter().zip(&limits).any(|(d, limit)| d <= limit)
            {
                return true;
            }
        }
        false
    }

    /// Rebuilds the store without the balls its bigger ones have come to
    /// cover; left alone when there is none.
    fn drop_covered(&mut self) {
        let dim = self.centres.dim();
        let gather = |i: usize, centre: &mut Vec<f32>| {
            centre.clear();
            centre.extend(self.centres.vector(i));
            self.radii[i]
        };
        let kept = uncovered(dim, self.radii.len(), gather);
        if kept.len() == self.radii.len() {
            return;
        }
        let mut compact = Cluster::with_capacity(dim, kept.len());
        let mut centre = Vec::with_capacity(dim);
        for i in kept {
            let radius = gather(i, &mut centre);
            compact.push(&centre, radius);
        }
        *self = compact;
    }

    /// Restores the probe order after `load` (snapshots written before
    /// the ordering existed) or after a refresh has grown radii, permuting
    /// the balls in place.
    fn sort_for_probing(&mut self) {
        // ball `order[at]` belongs at `at`
        let mut order: Vec<usize> = (0..self.radii.len()).collect();
        order.sort_by(|&a, &b| probe_order(self.radii[a], self.radii[b]));
        for start in 0..order.len() {
            // walk the cycle through `start`, settling one place per swap
            let mut at = start;
            while order[at] != start {
                let from = order[at];
                self.radii.swap(at, from);
                self.centres.swap(at, from);
                order[at] = at;
                at = from;
            }
            order[at] = at;
        }
    }
}

/// The share of a ball's radius another ball must fit inside to count as
/// covered by it: see [`Cluster::covers`].
const COVER_MARGIN: f32 = 1.0 - 1.0 / 1024.0;

/// Which of `n` balls in probe order a store keeps: the indices, ascending,
/// of those no kept bigger ball covers. `ball(i, centre)` writes ball `i`'s
/// centre over `centre` and returns its radius.
fn uncovered(dim: usize, n: usize, ball: impl Fn(usize, &mut Vec<f32>) -> f32) -> Vec<usize> {
    // the kept balls that can cover another: those of positive radius
    let mut coverers = Cluster::with_capacity(dim, 0);
    let mut centre = Vec::with_capacity(dim);
    let mut kept = Vec::new();
    for i in 0..n {
        let radius = ball(i, &mut centre);
        if coverers.covers(&centre, radius) {
            continue;
        }
        if radius > 0.0 {
            coverers.push(&centre, radius);
        }
        kept.push(i);
    }
    kept
}

/// The paper's ratio cut in points: regions stop expanding at `ratio·|D|`.
fn max_region(n: usize, ratio: f64) -> usize {
    ((n as f64 * ratio).ceil() as usize).max(1)
}

/// The order a cluster's balls are probed in: **decreasing radius** under
/// a stable sort (ties keep their build order). The indicator then usually
/// hits in the first block — the biggest balls are the likeliest
/// intersectors — which matters on the serving hot path. Pure reordering
/// of an OR: the indicator result is identical for every ordering.
fn probe_order(a: f32, b: f32) -> std::cmp::Ordering {
    b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal)
}

/// The result of partitioning a dataset into `K` disjoint parts.
#[derive(Clone, Debug)]
pub struct Partitioning {
    k: usize,
    kind: DistanceKind,
    method: PartitionMethod,
    assignments: Vec<usize>,
    /// Ball regions per cluster; empty = indicator always true.
    regions: Vec<Cluster>,
}

impl Partitioning {
    /// Partitions `ds` into `k` parts with the given method.
    ///
    /// For [`DistanceKind::Cosine`], geometry runs on a normalized copy of
    /// the data.
    pub fn build(
        ds: &Dataset,
        kind: DistanceKind,
        method: PartitionMethod,
        k: usize,
        seed: u64,
    ) -> Partitioning {
        Self::build_reporting(ds, kind, method, k, seed).0
    }

    /// [`Partitioning::build`], also reporting how the cover tree under a
    /// [`PartitionMethod::CoverTree`] partitioning was built and how many
    /// of its regions' balls the store left out as covered (one worker, no
    /// jobs and none left out for the other methods): what a caller's
    /// instrumentation records beside the build's wall time.
    pub fn build_reporting(
        ds: &Dataset,
        kind: DistanceKind,
        method: PartitionMethod,
        k: usize,
        seed: u64,
    ) -> (Partitioning, BuildStats) {
        assert!(k > 0, "k must be positive");
        assert!(!ds.is_empty(), "dataset must be non-empty");
        // geometry dataset: normalized copy for cosine
        let geo;
        let geo_ref: &Dataset = match kind {
            DistanceKind::Euclidean => ds,
            DistanceKind::Cosine => {
                let mut copy = ds.clone();
                copy.normalize_rows();
                geo = copy;
                &geo
            }
        };
        match method {
            PartitionMethod::CoverTree { ratio } => {
                // no deeper than the ratio cut looks
                let tree = CoverTree::build_for_regions(geo_ref, max_region(geo_ref.len(), ratio));
                let (partitioning, covered_balls) =
                    Self::from_cover_tree(&tree, geo_ref, kind, k, ratio);
                let stats = BuildStats {
                    covered_balls,
                    ..tree.build_stats()
                };
                (partitioning, stats)
            }
            PartitionMethod::Random => (
                Self::build_random(ds.len(), kind, k, seed),
                BuildStats::SERIAL,
            ),
            PartitionMethod::KMeans => (
                Self::build_kmeans(geo_ref, kind, k, seed),
                BuildStats::SERIAL,
            ),
        }
    }

    fn from_cover_tree(
        tree: &CoverTree<'_>,
        geo: &Dataset,
        kind: DistanceKind,
        k: usize,
        ratio: f64,
    ) -> (Partitioning, usize) {
        let mut regions = tree.regions(max_region(geo.len(), ratio));
        // Greedy merge (§5.3): sort regions by decreasing size, then assign
        // each to the currently-smallest cluster.
        regions.sort_by_key(|r| std::cmp::Reverse(r.members.len()));
        let k = k.min(regions.len().max(1));
        let mut cluster_sizes = vec![0usize; k];
        let mut cluster_regions: Vec<Vec<&Region>> = vec![Vec::new(); k];
        let mut assignments = vec![0usize; geo.len()];
        for region in &regions {
            let target = cluster_sizes
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .expect("k > 0");
            cluster_sizes[target] += region.members.len();
            for &m in &region.members {
                assignments[m] = target;
            }
            cluster_regions[target].push(region);
        }
        // a region's ball is stored unless a bigger one of its cluster
        // covers it; every centre kept is copied once, into a store sized
        // for what its cluster keeps
        let mut covered_balls = 0;
        let clusters = cluster_regions
            .into_iter()
            .map(|mut regions| {
                regions.sort_by(|a, b| probe_order(a.radius, b.radius));
                let kept = uncovered(geo.dim(), regions.len(), |i, centre| {
                    centre.clear();
                    centre.extend_from_slice(geo.row(regions[i].center));
                    regions[i].radius
                });
                covered_balls += regions.len() - kept.len();
                let mut cluster = Cluster::with_capacity(geo.dim(), kept.len());
                for i in kept {
                    cluster.push(geo.row(regions[i].center), regions[i].radius);
                }
                cluster
            })
            .collect();
        let partitioning = Partitioning {
            k,
            kind,
            method: PartitionMethod::CoverTree { ratio },
            assignments,
            regions: clusters,
        };
        (partitioning, covered_balls)
    }

    fn build_random(n: usize, kind: DistanceKind, k: usize, seed: u64) -> Partitioning {
        let mut rng = StdRng::seed_from_u64(seed);
        let assignments = (0..n).map(|_| rng.gen_range(0..k)).collect();
        Partitioning {
            k,
            kind,
            method: PartitionMethod::Random,
            assignments,
            regions: Vec::new(), // all-ones indicator
        }
    }

    fn build_kmeans(geo: &Dataset, kind: DistanceKind, k: usize, seed: u64) -> Partitioning {
        let res = kmeans(geo, k, 50, seed);
        let k = res.centroids.len();
        let mut radius = vec![0.0f32; k];
        for (i, row) in geo.iter().enumerate() {
            let c = res.assignments[i];
            let d = DistanceKind::Euclidean.eval(row, &res.centroids[c]);
            radius[c] = radius[c].max(d);
        }
        let regions = res
            .centroids
            .iter()
            .zip(&radius)
            .map(|(centroid, &r)| {
                let mut cluster = Cluster::with_capacity(geo.dim(), 1);
                cluster.push(centroid, r);
                cluster
            })
            .collect();
        Partitioning {
            k,
            kind,
            method: PartitionMethod::KMeans,
            assignments: res.assignments,
            regions,
        }
    }

    /// Number of parts.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The method used to build this partitioning.
    pub fn method(&self) -> PartitionMethod {
        self.method
    }

    /// Per-point cluster assignment.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Dataset indices belonging to part `i`.
    pub fn part_indices(&self, i: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(idx, &c)| (c == i).then_some(idx))
            .collect()
    }

    /// Ball regions stored per cluster; empty for the all-ones indicator.
    pub fn region_counts(&self) -> Vec<usize> {
        self.regions.iter().map(|c| c.radii.len()).collect()
    }

    /// Part sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Serializes the partitioning (method, per-point assignments, and
    /// ball regions) as a little-endian binary stream. The inverse of
    /// [`Partitioning::load`]; embedded in whole-model snapshots by
    /// `selnet-core`'s persistence layer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.k as u64)?;
        w.write_all(&[match self.kind {
            DistanceKind::Euclidean => 0u8,
            DistanceKind::Cosine => 1u8,
        }])?;
        match self.method {
            PartitionMethod::CoverTree { ratio } => {
                w.write_all(&[0u8])?;
                w.write_all(&ratio.to_le_bytes())?;
            }
            PartitionMethod::Random => w.write_all(&[1u8])?,
            PartitionMethod::KMeans => w.write_all(&[2u8])?,
        }
        write_u64(w, self.assignments.len() as u64)?;
        for &a in &self.assignments {
            write_u64(w, a as u64)?;
        }
        write_u64(w, self.regions.len() as u64)?;
        // one write per ball: dimension, centre, radius
        let mut ball = Vec::new();
        for cluster in &self.regions {
            write_u64(w, cluster.radii.len() as u64)?;
            for (i, radius) in cluster.radii.iter().enumerate() {
                ball.clear();
                ball.extend((cluster.centres.dim() as u64).to_le_bytes());
                ball.extend(cluster.centres.vector(i).flat_map(f32::to_le_bytes));
                ball.extend(radius.to_le_bytes());
                w.write_all(&ball)?;
            }
        }
        Ok(())
    }

    /// Deserializes a partitioning written by [`Partitioning::save`].
    ///
    /// Returns a typed [`io::Error`] (never panics) on truncated input or
    /// structurally invalid data: unknown distance/method tags, assignments
    /// out of range, a region table whose length matches neither `k`
    /// (per-cluster regions) nor `0` (the all-ones indicator), region
    /// centres that disagree in dimension, a centre coordinate that is not
    /// finite, or a radius that is negative or not finite (the probe order
    /// needs comparable radii, and a NaN one would match no query). The
    /// balls are stored as streamed: a snapshot written before covered
    /// balls were left out answers as it did.
    pub fn load(r: &mut impl Read) -> io::Result<Partitioning> {
        let k = read_checked_len(r, MAX_PARTS, "partition count")?;
        if k == 0 {
            return Err(invalid("partition count must be positive"));
        }
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let kind = match tag[0] {
            0 => DistanceKind::Euclidean,
            1 => DistanceKind::Cosine,
            v => return Err(invalid(format!("bad distance tag {v}"))),
        };
        r.read_exact(&mut tag)?;
        let method = match tag[0] {
            0 => {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                let ratio = f64::from_le_bytes(b);
                if !ratio.is_finite() {
                    return Err(invalid("non-finite cover-tree ratio"));
                }
                PartitionMethod::CoverTree { ratio }
            }
            1 => PartitionMethod::Random,
            2 => PartitionMethod::KMeans,
            v => return Err(invalid(format!("bad method tag {v}"))),
        };
        let n = read_checked_len(r, MAX_POINTS, "assignment count")?;
        let mut assignments = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let a = read_u64(r)? as usize;
            if a >= k {
                return Err(invalid(format!("assignment {a} out of range for k={k}")));
            }
            assignments.push(a);
        }
        let clusters = read_checked_len(r, MAX_PARTS, "region cluster count")?;
        if clusters != 0 && clusters != k {
            return Err(invalid(format!(
                "region table has {clusters} clusters, expected {k} or 0"
            )));
        }
        let mut regions: Vec<Cluster> = Vec::with_capacity(clusters.min(1 << 12));
        // every centre must have the dimension of the first one read; a
        // ball's centre and radius are read at once
        let mut centre: Option<Vec<f32>> = None;
        let mut bytes = Vec::new();
        for _ in 0..clusters {
            let m = read_checked_len(r, MAX_POINTS, "region count")?;
            let mut cluster = Cluster::with_capacity(0, 0);
            for i in 0..m {
                let dim = read_checked_len(r, MAX_DIM, "region dimension")?;
                let centre = centre.get_or_insert_with(|| vec![0.0f32; dim]);
                if dim != centre.len() {
                    return Err(invalid(format!(
                        "region centre of dimension {dim}, expected {}",
                        centre.len()
                    )));
                }
                if i == 0 {
                    // sized for the cluster, up to what a corrupted count
                    // may make this allocate before the stream runs dry
                    let room = m.min(MAX_PREALLOC_FLOATS / dim.max(1));
                    cluster = Cluster::with_capacity(dim, room);
                }
                bytes.resize((dim + 1) * 4, 0u8);
                r.read_exact(&mut bytes)?;
                let float = |b: &[u8]| f32::from_le_bytes(b.try_into().expect("four bytes"));
                let (coordinates, radius) = bytes.split_at(dim * 4);
                for (c, b) in centre.iter_mut().zip(coordinates.chunks_exact(4)) {
                    *c = float(b);
                }
                if !centre.iter().all(|c| c.is_finite()) {
                    return Err(invalid("non-finite region centre coordinate"));
                }
                let radius = float(radius);
                if !(radius.is_finite() && radius >= 0.0) {
                    return Err(invalid(format!("region radius {radius}")));
                }
                cluster.push(centre, radius);
            }
            cluster.sort_for_probing();
            regions.push(cluster);
        }
        Ok(Partitioning {
            k,
            kind,
            method,
            assignments,
            regions,
        })
    }

    /// Re-derives the per-point assignments for a dataset that may have
    /// been **mutated** since the partitioning was built — records
    /// inserted, deleted, or reordered by swap-remove (the §5.4 update
    /// stream does all three). Build-time assignments are positional, so
    /// after any mutation they are stale for every index, not just the
    /// new ones.
    ///
    /// Each record joins the cluster of its best-covering ball region
    /// (smallest `distance − radius` slack), and that region's radius
    /// grows to cover the record: the intersection indicator therefore
    /// stays **sound** under drift — a cluster holding an in-range record
    /// can never be pruned — at the price of looser pruning as drifted
    /// mass leaves the original regions. A ball that a grown one has come
    /// to cover is then dropped, so the store shrinks as it loosens: no
    /// flag and no later assignment depends on it. Random partitionings (all-ones
    /// indicator, no geometry) re-assign by a deterministic hash of the
    /// record bits, so refreshing is reproducible there too.
    pub fn refresh_assignments(&mut self, ds: &Dataset) {
        if self.regions.is_empty() {
            self.assignments = (0..ds.len())
                .map(|i| (hash_row(ds.row(i)) % self.k as u64) as usize)
                .collect();
            return;
        }
        let geo;
        let geo_ref: &Dataset = match self.kind {
            DistanceKind::Euclidean => ds,
            DistanceKind::Cosine => {
                let mut copy = ds.clone();
                copy.normalize_rows();
                geo = copy;
                &geo
            }
        };
        self.assignments.clear();
        self.assignments.reserve(geo_ref.len());
        let mut sq = [0.0f32; LANES];
        for row in geo_ref.iter() {
            let mut best: Option<(usize, usize, f32, f32)> = None;
            for (c, cluster) in self.regions.iter().enumerate() {
                for (b, radii) in cluster.radii.chunks(LANES).enumerate() {
                    cluster.centres.sqdist_into(b, row, &mut sq);
                    for (l, &radius) in radii.iter().enumerate() {
                        let d = sq[l].sqrt();
                        let slack = d - radius;
                        if best.map(|(.., s)| slack < s).unwrap_or(true) {
                            best = Some((c, b * LANES + l, d, slack));
                        }
                    }
                }
            }
            let (c, j, d, _) = best.expect("ball partitionings have at least one region");
            let radius = &mut self.regions[c].radii[j];
            *radius = radius.max(d);
            self.assignments.push(c);
        }
        // radii may have grown: restore the big-ball-first probe order, and
        // drop the balls the grown ones now cover
        for cluster in &mut self.regions {
            cluster.sort_for_probing();
            cluster.drop_covered();
        }
    }

    /// The intersection indicator `f_c(x, t)`: `true` for every cluster the
    /// query ball could intersect. Always all-true for random partitioning.
    pub fn indicator(&self, x: &[f32], t: f32) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.k);
        self.indicator_into(x, t, &mut out);
        out
    }

    /// [`Partitioning::indicator`] writing into a caller-provided buffer
    /// (cleared first): the one-threshold case of
    /// [`Partitioning::indicator_many_into`].
    pub fn indicator_into(&self, x: &[f32], t: f32, out: &mut Vec<bool>) {
        self.indicator_many_into(x, &[t], out);
    }

    /// The indicator of one query object at every threshold of `ts` (any
    /// order): `flags` is cleared and filled threshold-major, the `K`
    /// flags of `ts[j]` at `flags[j * K..(j + 1) * K]`.
    ///
    /// Each block of sixteen region centres has its squared distances to
    /// `x` computed once, whatever the number of thresholds — and only as
    /// far as it takes to see all sixteen balls out of the reach of every
    /// threshold still looking — and a cluster is left as soon as every
    /// threshold has found an intersecting ball.
    /// For Euclidean partitionings this evaluates with no allocation at
    /// all, so serving hot paths reuse one buffer across an entire batch.
    /// The ball test compares **squared** distances
    /// (`‖x−c‖² ≤ (t_e + r + ε)²`) — no `sqrt` per region. Squaring is
    /// only order-preserving while the bound is non-negative: a threshold
    /// below `−(r + ε)` (the wire accepts any f32) reaches no ball at all,
    /// so it matches none — without that guard its large square would
    /// switch *more* partitions on than `t = 0` and break Lemma 1's
    /// monotonicity.
    pub fn indicator_many_into(&self, x: &[f32], ts: &[f32], flags: &mut Vec<bool>) {
        flags.clear();
        if self.regions.is_empty() {
            flags.resize(ts.len() * self.k, true);
            return;
        }
        flags.resize(ts.len() * self.k, false);
        // convert to Euclidean geometry; Euclidean queries borrow `x`
        // directly instead of cloning it
        let normalized;
        let q: &[f32] = match self.kind {
            DistanceKind::Euclidean => x,
            DistanceKind::Cosine => {
                let mut q = x.to_vec();
                vectors::normalize(&mut q);
                normalized = q;
                &normalized
            }
        };
        // How far the thresholds still open in a cluster reach: the largest
        // of them (a NaN one reaches nothing), every one to begin with. Its
        // bound is the largest any open threshold gives a lane, float
        // rounding being monotone, so a lane beyond it matches no open
        // threshold and the block's distances are needed only that far.
        let reach_of_all = (ts.iter())
            .map(|&t| self.kind.to_euclidean_threshold(t))
            .fold(f32::NEG_INFINITY, f32::max);
        let mut sq = [0.0f32; LANES];
        for (c, cluster) in self.regions.iter().enumerate() {
            let mut open = ts.len();
            let mut reach = reach_of_all;
            for (b, chunk) in cluster.radii.chunks(LANES).enumerate() {
                if open == 0 {
                    break;
                }
                // a lane past the end of the last block has no ball: its
                // bound is −∞, which the guard below rejects
                let mut radii = [f32::NEG_INFINITY; LANES];
                radii[..chunk.len()].copy_from_slice(chunk);
                let mut limits = [f32::NEG_INFINITY; LANES];
                for (limit, &r) in limits.iter_mut().zip(&radii) {
                    let bound = reach + r + 1e-6;
                    if bound >= 0.0 {
                        *limit = bound * bound;
                    }
                }
                if !cluster.centres.sqdist_within(b, q, &limits, &mut sq) {
                    continue;
                }
                reach = f32::NEG_INFINITY;
                for (j, &t) in ts.iter().enumerate() {
                    let flag = &mut flags[j * self.k + c];
                    if *flag {
                        continue;
                    }
                    let te = self.kind.to_euclidean_threshold(t);
                    // all sixteen lanes, no early exit: branch-free, so the
                    // compiler keeps the test in vector registers
                    *flag = radii.iter().zip(&sq).fold(false, |hit, (&r, &d2)| {
                        let bound = te + r + 1e-6;
                        hit | (bound >= 0.0 && d2 <= bound * bound)
                    });
                    if *flag {
                        open -= 1;
                    } else {
                        reach = reach.max(te);
                    }
                }
            }
        }
    }
}

/// FNV-1a over the raw f32 bits of a record: a stable, build-independent
/// hash so [`Partitioning::refresh_assignments`] can re-assign records of
/// a Random partitioning deterministically.
fn hash_row(row: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &v in row {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Size caps that keep `load` from allocating absurd buffers for a
/// corrupted length field; generous next to anything this workspace builds.
const MAX_PARTS: usize = 1 << 20;
const MAX_POINTS: usize = 1 << 31;
const MAX_DIM: usize = 1 << 20;
const MAX_PREALLOC_FLOATS: usize = 1 << 24;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_checked_len(r: &mut impl Read, max: usize, what: &str) -> io::Result<usize> {
    let v = read_u64(r)?;
    if v > max as u64 {
        return Err(invalid(format!("implausible {what}: {v}")));
    }
    Ok(v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selnet_data::generators::{face_like, fasttext_like, GeneratorConfig};

    /// Each cluster's `(centre, radius)` balls, in probe order.
    fn balls(p: &Partitioning) -> Vec<Vec<(Vec<f32>, f32)>> {
        let ball = |c: &Cluster, i: usize| (c.centres.vector(i).collect(), c.radii[i]);
        p.regions
            .iter()
            .map(|c| (0..c.radii.len()).map(|i| ball(c, i)).collect())
            .collect()
    }

    fn saved(p: &Partitioning) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.save(&mut bytes).expect("write to memory");
        bytes
    }

    fn check_valid_partitioning(p: &Partitioning, n: usize) {
        assert_eq!(p.assignments().len(), n);
        assert!(p.assignments().iter().all(|&a| a < p.k()));
        let total: usize = p.sizes().iter().sum();
        assert_eq!(total, n);
    }

    /// Soundness of `f_c`: the indicator never prunes a cluster that holds
    /// a record within the query ball, for the query objects `queries` of
    /// `ds` at the thresholds `ts`.
    fn assert_sound(
        p: &Partitioning,
        ds: &Dataset,
        kind: DistanceKind,
        queries: &[usize],
        ts: &[f32],
    ) {
        for &qi in queries {
            let q = ds.row(qi);
            for &t in ts {
                let ind = p.indicator(q, t);
                for (i, row) in ds.iter().enumerate() {
                    if kind.eval(q, row) <= t {
                        let c = p.assignments()[i];
                        assert!(ind[c], "cluster {c} pruned but holds in-range record {i}");
                    }
                }
            }
        }
    }

    /// The snapshot of a cover-tree partitioning does not depend on how
    /// many workers built the tree, nor on whether the build stopped at
    /// the ratio cut (or anywhere above full depth and not past it),
    /// under either distance.
    #[test]
    fn snapshot_bytes_are_equal_across_build_workers() {
        let ds = fasttext_like(&GeneratorConfig::new(900, 7, 5, 3));
        let cut = max_region(ds.len(), 0.03);
        assert_eq!(cut, 27);
        for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
            let mut geo = ds.clone();
            if kind == DistanceKind::Cosine {
                geo.normalize_rows();
            }
            let built = |workers: usize, stop: usize| {
                let tree = CoverTree::build_stopping(&geo, workers, stop);
                // the parallel path is taken, not just asked for
                assert!((workers.min(2)..=workers).contains(&tree.build_stats().workers));
                saved(&Partitioning::from_cover_tree(&tree, &geo, kind, 4, 0.03).0)
            };
            let one = built(1, 1);
            for workers in [1, 2, 3, 8] {
                for stop in [1, 3, cut] {
                    assert!(
                        built(workers, stop) == one,
                        "{kind:?}, {workers} workers, stop {stop}"
                    );
                }
            }
            let method = PartitionMethod::CoverTree { ratio: 0.03 };
            let (whole, stats) = Partitioning::build_reporting(&ds, kind, method, 4, 0);
            assert!(saved(&whole) == one, "{kind:?}, the default build");
            // the default build is the one that stops at the cut
            let full = CoverTree::build_with_workers(&geo, 1).build_stats();
            assert!(stats.subtree_jobs < full.subtree_jobs, "{kind:?}");
            let stopped = CoverTree::build_stopping(&geo, 1, cut).build_stats();
            assert_eq!(stats.subtree_jobs, stopped.subtree_jobs, "{kind:?}");
        }
    }

    #[test]
    fn cover_tree_partitioning_is_balanced() {
        let ds = fasttext_like(&GeneratorConfig::new(600, 6, 5, 1));
        let p = Partitioning::build(
            &ds,
            DistanceKind::Euclidean,
            PartitionMethod::CoverTree { ratio: 0.05 },
            3,
            0,
        );
        check_valid_partitioning(&p, 600);
        let sizes = p.sizes();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 2.0, "imbalanced: {sizes:?}");
    }

    #[test]
    fn random_partitioning_indicator_is_all_ones() {
        let ds = fasttext_like(&GeneratorConfig::new(100, 4, 2, 2));
        let p = Partitioning::build(&ds, DistanceKind::Euclidean, PartitionMethod::Random, 4, 1);
        check_valid_partitioning(&p, 100);
        assert_eq!(p.indicator(ds.row(0), 0.01), vec![true; 4]);
    }

    #[test]
    fn kmeans_partitioning_covers_all_points() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 5, 4, 3));
        let p = Partitioning::build(&ds, DistanceKind::Euclidean, PartitionMethod::KMeans, 3, 2);
        check_valid_partitioning(&p, 300);
    }

    /// The indicator must never prune a cluster that actually contains a
    /// point within the query ball (soundness of f_c).
    #[test]
    fn indicator_is_sound_euclidean() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 4, 4));
        for method in [
            PartitionMethod::CoverTree { ratio: 0.05 },
            PartitionMethod::KMeans,
        ] {
            let p = Partitioning::build(&ds, DistanceKind::Euclidean, method, 3, 5);
            let queries = [0, 111, 222];
            assert_sound(&p, &ds, DistanceKind::Euclidean, &queries, &[0.3, 1.0, 3.0]);
        }
    }

    #[test]
    fn indicator_is_sound_cosine() {
        let ds = face_like(&GeneratorConfig::new(300, 8, 5, 6));
        let p = Partitioning::build(
            &ds,
            DistanceKind::Cosine,
            PartitionMethod::CoverTree { ratio: 0.05 },
            3,
            7,
        );
        assert_sound(&p, &ds, DistanceKind::Cosine, &[5, 150], &[0.05, 0.2, 0.6]);
    }

    /// After a §5.4-style mutation (inserts past the build-time length plus
    /// swap-removes that reorder survivors), `refresh_assignments` must
    /// produce a valid assignment for every *current* record and keep the
    /// indicator sound on the mutated data.
    #[test]
    fn refresh_assignments_covers_mutated_dataset() {
        let mut ds = fasttext_like(&GeneratorConfig::new(200, 5, 3, 9));
        for method in [
            PartitionMethod::CoverTree { ratio: 0.05 },
            PartitionMethod::KMeans,
        ] {
            let mut p = Partitioning::build(&ds.clone(), DistanceKind::Euclidean, method, 3, 5);
            // grow: shifted copies of existing rows (out-of-region mass)
            for i in 0..40 {
                let mut row = ds.row(i).to_vec();
                for v in &mut row {
                    *v += 2.5;
                }
                ds.push(&row);
            }
            // shrink: swap-remove from the middle, reordering survivors
            for _ in 0..15 {
                ds.swap_remove(10);
            }
            p.refresh_assignments(&ds);
            check_valid_partitioning(&p, ds.len());
            // soundness on the mutated dataset, including drifted records
            let queries = [0, ds.len() - 1];
            assert_sound(&p, &ds, DistanceKind::Euclidean, &queries, &[0.5, 2.0]);
        }
    }

    #[test]
    fn refresh_assignments_random_is_deterministic() {
        let mut ds = fasttext_like(&GeneratorConfig::new(120, 4, 2, 3));
        let mut p =
            Partitioning::build(&ds, DistanceKind::Euclidean, PartitionMethod::Random, 4, 1);
        let row = ds.row(0).to_vec();
        ds.push(&row);
        p.refresh_assignments(&ds);
        check_valid_partitioning(&p, ds.len());
        let first = p.assignments().to_vec();
        p.refresh_assignments(&ds);
        assert_eq!(first, p.assignments(), "hash re-assignment must be stable");
        // indicator stays all-ones
        assert_eq!(p.indicator(ds.row(0), 0.1), vec![true; 4]);
    }

    #[test]
    fn refresh_assignments_cosine_stays_sound() {
        let mut ds = face_like(&GeneratorConfig::new(150, 6, 3, 4));
        let mut p = Partitioning::build(
            &ds.clone(),
            DistanceKind::Cosine,
            PartitionMethod::CoverTree { ratio: 0.08 },
            3,
            2,
        );
        for i in 0..20 {
            let mut row = ds.row(i).to_vec();
            row.reverse();
            ds.push(&row);
        }
        p.refresh_assignments(&ds);
        check_valid_partitioning(&p, ds.len());
        let queries = [0, ds.len() - 1];
        assert_sound(&p, &ds, DistanceKind::Cosine, &queries, &[0.1, 0.4]);
    }

    /// Lemma 1 from the wire: the active-partition count never drops as
    /// the threshold rises, including over thresholds far below zero
    /// (whose squared bound used to switch every partition on).
    #[test]
    fn indicator_is_monotone_from_far_below_zero() {
        // one stride of coordinates, and the paper fixture's ten
        for dim in [6, 300] {
            let ds = fasttext_like(&GeneratorConfig::new(600, dim, 5, 1));
            let p = Partitioning::build(
                &ds,
                DistanceKind::Euclidean,
                PartitionMethod::CoverTree { ratio: 0.05 },
                3,
                0,
            );
            let far = vec![40.0f32; dim];
            let grid = [
                -1000.0f32, -100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0, 1000.0,
            ];
            for q in [ds.row(0), ds.row(300), &far] {
                let active: Vec<usize> = grid
                    .iter()
                    .map(|&t| p.indicator(q, t).iter().filter(|&&on| on).count())
                    .collect();
                assert_eq!(active[0], 0, "t = -1000 reaches no ball: {active:?}");
                assert!(active.windows(2).all(|w| w[0] <= w[1]), "{active:?}");
                assert_eq!(*active.last().unwrap(), p.k());
                // the whole grid at once, in any order, says the same
                let mut flags = Vec::new();
                let backwards: Vec<f32> = grid.iter().rev().copied().collect();
                p.indicator_many_into(q, &backwards, &mut flags);
                let at_once = flags.chunks(p.k()).rev();
                let at_once: Vec<usize> = at_once
                    .map(|f| f.iter().filter(|&&on| on).count())
                    .collect();
                assert_eq!(at_once, active, "dim {dim}");
            }
        }
    }

    /// The negative-threshold guard changes no flag for any `t ≥ 0`: the
    /// fixed predicate agrees with the old one (kept here verbatim) on
    /// random queries and thresholds up to `2·tmax`.
    #[test]
    fn indicator_is_unchanged_for_nonnegative_thresholds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // one stride of coordinates, and several (thresholds scaled to the
        // distances there)
        for (dim, tmax) in [(5, 6.0f32), (300, 60.0)] {
            let ds = fasttext_like(&GeneratorConfig::new(500, dim, 4, 8));
            for method in [
                PartitionMethod::CoverTree { ratio: 0.05 },
                PartitionMethod::KMeans,
            ] {
                let p = Partitioning::build(&ds, DistanceKind::Euclidean, method, 3, 5);
                let (mut on, mut off) = (0, 0);
                for round in 0..400 {
                    // far from every ball, or (in the wide case) inside one
                    let x: Vec<f32> = match round % 2 {
                        1 if dim > 5 => ds.row(rng.gen_range(0..ds.len())).to_vec(),
                        _ => (0..dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
                    };
                    let t = rng.gen_range(0.0f32..2.0 * tmax);
                    let old: Vec<bool> = balls(&p)
                        .iter()
                        .map(|cluster| {
                            cluster.iter().any(|(center, radius)| {
                                let bound = t + radius + 1e-6;
                                vectors::squared_euclidean(&x, center) <= bound * bound
                            })
                        })
                        .collect();
                    assert_eq!(p.indicator(&x, t), old, "dim {dim} t {t}");
                    on += old.iter().filter(|&&f| f).count();
                    off += old.iter().filter(|&&f| !f).count();
                }
                assert!(
                    on > 0 && off > 0,
                    "dim {dim} {method:?}: {on} on, {off} off"
                );
            }
        }
    }

    /// The datasets of the differential tests: a narrow one, and one with
    /// the paper fixture's ten strides of coordinates.
    fn narrow_and_wide() -> (Dataset, Dataset) {
        (
            fasttext_like(&GeneratorConfig::new(900, 7, 5, 12)),
            fasttext_like(&GeneratorConfig::new(500, 300, 5, 12)),
        )
    }

    /// Every method and both distances as `(dataset, threshold scale —
    /// distances to match —, distance, method, k)`: cover trees with more
    /// regions per cluster than one block holds, and fewer.
    fn differential_cases<'a>(
        narrow: &'a Dataset,
        wide: &'a Dataset,
    ) -> [(&'a Dataset, f32, DistanceKind, PartitionMethod, usize); 7] {
        use DistanceKind::{Cosine, Euclidean};
        let tree = |ratio| PartitionMethod::CoverTree { ratio };
        [
            (narrow, 1.0, Euclidean, tree(0.002), 4),
            (narrow, 1.0, Euclidean, tree(0.2), 3),
            (narrow, 1.0, Euclidean, PartitionMethod::KMeans, 5),
            (narrow, 1.0, Cosine, tree(0.01), 3),
            (narrow, 1.0, Euclidean, PartitionMethod::Random, 3),
            (wide, 8.0, Euclidean, tree(0.004), 3),
            (wide, 0.25, Cosine, tree(0.05), 3),
        ]
    }

    /// Query object and thresholds of one round of a differential test: a
    /// data row or a random point, now and then with a NaN coordinate (no
    /// distance compares, no ball matches); thresholds unsorted, with
    /// repeats, reaching far below zero, and sometimes one that is no
    /// number at all.
    fn query_round(
        rng: &mut StdRng,
        ds: &Dataset,
        round: usize,
        scale: f32,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut x: Vec<f32> = match round % 3 {
            0 => ds.row(rng.gen_range(0..ds.len())).to_vec(),
            _ => (0..ds.dim()).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
        };
        if round % 40 == 39 {
            let at = rng.gen_range(0..x.len());
            x[at] = f32::NAN;
        }
        let mut ts: Vec<f32> = (0..rng.gen_range(0..9))
            .map(|_| rng.gen_range(-1.0f32..8.0) * scale)
            .collect();
        ts.extend([-1e6, 0.0, -0.5, 1e6].iter().take(round % 5));
        if round % 4 == 1 && !ts.is_empty() {
            ts.push(ts[rng.gen_range(0..ts.len())]);
            ts.insert(rng.gen_range(0..ts.len()), f32::NAN);
        }
        (x, ts)
    }

    /// `indicator_many_into` ≡ one `indicator` call per threshold ≡ the
    /// per-region predicate this crate evaluated pair by pair before the
    /// block store (kept here verbatim), over unsorted thresholds that
    /// reach far below zero, on every method and both distances.
    #[test]
    fn indicator_many_equals_per_threshold_and_per_region_predicate() {
        let mut rng = StdRng::seed_from_u64(23);
        let (narrow, wide) = narrow_and_wide();
        for (ds, scale, kind, method, k) in differential_cases(&narrow, &wide) {
            let p = Partitioning::build(ds, kind, method, k, 4);
            let balls = balls(&p);
            let mut flags = Vec::new();
            let (mut on, mut off) = (0, 0);
            for round in 0..120 {
                let (x, ts) = query_round(&mut rng, ds, round, scale);
                p.indicator_many_into(&x, &ts, &mut flags);
                assert_eq!(flags.len(), ts.len() * p.k());
                for (&t, got) in ts.iter().zip(flags.chunks(p.k())) {
                    assert_eq!(got, p.indicator(&x, t), "{method:?} x {x:?} t {t}");
                    if balls.is_empty() {
                        assert!(got.iter().all(|&on| on));
                        continue;
                    }
                    let mut q = x.clone();
                    if kind == DistanceKind::Cosine {
                        vectors::normalize(&mut q);
                    }
                    let te = kind.to_euclidean_threshold(t);
                    let want: Vec<bool> = balls
                        .iter()
                        .map(|cluster| {
                            cluster.iter().any(|(center, radius)| {
                                let bound = te + radius + 1e-6;
                                bound >= 0.0
                                    && vectors::squared_euclidean(&q, center) <= bound * bound
                            })
                        })
                        .collect();
                    assert_eq!(got, want, "{method:?} x {x:?} t {t}");
                    let nan_threshold = t.is_nan() && kind == DistanceKind::Euclidean;
                    if nan_threshold || x.iter().any(|c| c.is_nan()) {
                        assert!(got.iter().all(|&on| !on), "{method:?} x {x:?} t {t}");
                    }
                    on += got.iter().filter(|&&f| f).count();
                    off += got.iter().filter(|&&f| !f).count();
                }
            }
            if !balls.is_empty() {
                assert!(on > 0 && off > 0, "{kind:?} {method:?}: {on} on, {off} off");
            }
        }
    }

    type Balls = Vec<(Vec<f32>, f32)>;

    fn ball_bits(balls: Vec<Balls>) -> Vec<Vec<(Vec<u32>, u32)>> {
        let ball =
            |(c, r): (Vec<f32>, f32)| (c.into_iter().map(f32::to_bits).collect(), r.to_bits());
        let cluster = |c: Balls| c.into_iter().map(ball).collect();
        balls.into_iter().map(cluster).collect()
    }

    /// What a store keeps of one cluster's balls in probe order, decided
    /// pair by pair: a ball stays unless a kept, strictly bigger one holds
    /// it with the margin.
    fn uncovered_per_pair(balls: &Balls) -> Balls {
        let mut kept: Balls = Vec::new();
        for (centre, radius) in balls {
            let covered = kept.iter().any(|(big, r)| {
                r > radius
                    && *r > 0.0
                    && vectors::squared_euclidean(centre, big).sqrt() <= r * COVER_MARGIN - radius
            });
            if !covered {
                kept.push((centre.clone(), *radius));
            }
        }
        kept
    }

    /// A store without its covered balls answers as the store of every
    /// region (the partitioning before this compaction, loaded from a
    /// hand-written stream): the same flags over the rounds of the
    /// indicator differential, the same assignments after a refresh under
    /// drift, the same radii on the balls that survive — and what is
    /// missing from it is, pair by pair, inside a ball it kept.
    #[test]
    fn covered_balls_are_not_stored_and_no_answer_moves() {
        let mut rng = StdRng::seed_from_u64(29);
        let (narrow, wide) = narrow_and_wide();
        let mut shrunk_somewhere = 0;
        for (ds, scale, kind, method, k) in differential_cases(&narrow, &wide) {
            let PartitionMethod::CoverTree { ratio } = method else {
                continue;
            };
            let what = format!("{kind:?} dim {} ratio {ratio}", ds.dim());
            let (mut p, stats) = Partitioning::build_reporting(ds, kind, method, k, 4);
            let mut full = every_region_stored(ds, kind, ratio, k);
            assert_eq!(p.assignments(), full.assignments(), "{what}");
            let every: usize = full.region_counts().iter().sum();
            let kept: usize = p.region_counts().iter().sum();
            assert_eq!(every - kept, stats.covered_balls, "{what}");
            assert!(kept < every, "{what}: every one of {every} balls kept");
            // the store is the per-pair compaction of the full one, in order
            let compacted = |full: &Partitioning| -> Vec<Balls> {
                balls(full).iter().map(uncovered_per_pair).collect()
            };
            assert_eq!(ball_bits(balls(&p)), ball_bits(compacted(&full)), "{what}");

            let (mut flags, mut full_flags) = (Vec::new(), Vec::new());
            for round in 0..120 {
                let (x, ts) = query_round(&mut rng, ds, round, scale);
                p.indicator_many_into(&x, &ts, &mut flags);
                full.indicator_many_into(&x, &ts, &mut full_flags);
                assert_eq!(flags, full_flags, "{what} x {x:?} ts {ts:?}");
            }

            // drift: both refresh alike, and the smaller store shrinks on
            let mut drifted = (*ds).clone();
            let drift = |ds: &mut Dataset, step: f32| {
                for i in 0..60 {
                    let mut row = ds.row(i * 3).to_vec();
                    row.iter_mut().for_each(|v| *v += step * i as f32);
                    ds.push(&row);
                    ds.swap_remove(i);
                }
            };
            drift(&mut drifted, 0.01);
            p.refresh_assignments(&drifted);
            full.refresh_assignments(&drifted);
            assert_eq!(p.assignments(), full.assignments(), "{what}");
            assert_eq!(ball_bits(balls(&p)), ball_bits(compacted(&full)), "{what}");
            let sound_at = [0.3 * scale, 1.5 * scale];
            for step in [0.02, 0.05] {
                let before: usize = p.region_counts().iter().sum();
                drift(&mut drifted, step);
                p.refresh_assignments(&drifted);
                let after: usize = p.region_counts().iter().sum();
                assert!(after <= before, "{what}: {before} balls became {after}");
                let queries = [0, drifted.len() / 2, drifted.len() - 1];
                assert_sound(&p, &drifted, kind, &queries, &sound_at);
            }
            let shrunk: usize = p.region_counts().iter().sum();
            shrunk_somewhere += (shrunk < kept) as usize;
        }
        assert!(shrunk_somewhere >= 3, "{shrunk_somewhere} of 5 trees");
    }

    /// The benchmark's `paper` fixture (N = 50 000, d = 300, K = 3, ratio
    /// 0.05; release builds only): of 19 202 exported regions the store
    /// keeps the 8 331 no bigger ball of their cluster covers, answers as
    /// the store of all of them, and is the same bytes whatever number of
    /// workers built the tree.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn paper_shape_stores_the_uncovered_balls_only() {
        let ds = fasttext_like(&GeneratorConfig::new(50_000, 300, 16, 7));
        let kind = DistanceKind::Euclidean;
        let method = PartitionMethod::CoverTree { ratio: 0.05 };
        let (p, stats) = Partitioning::build_reporting(&ds, kind, method, 3, 42);
        let full = every_region_stored(&ds, kind, 0.05, 3);
        assert_eq!(full.region_counts(), [6401, 6401, 6400]);
        assert_eq!(p.region_counts(), [4370, 3951, 10]);
        assert_eq!(stats.covered_balls, 19_202 - 8_331);
        assert_eq!(p.assignments(), full.assignments());

        // queries like the fixture's: a data row, a threshold on the scale
        // of its distances to other rows
        let mut rng = StdRng::seed_from_u64(31);
        let (mut flags, mut full_flags) = (Vec::new(), Vec::new());
        let (mut on, mut off) = (0, 0);
        for _ in 0..2000 {
            let x = ds.row(rng.gen_range(0..ds.len()));
            let other = ds.row(rng.gen_range(0..ds.len()));
            let t = kind.eval(x, other) * rng.gen_range(0.0f32..1.2);
            p.indicator_into(x, t, &mut flags);
            full.indicator_into(x, t, &mut full_flags);
            assert_eq!(flags, full_flags, "t {t}");
            on += flags.iter().filter(|&&f| f).count();
            off += flags.iter().filter(|&&f| !f).count();
        }
        assert!(on > 0 && off > 0, "{on} on, {off} off");

        let bytes = saved(&p);
        let cut = max_region(ds.len(), 0.05);
        for workers in [1, 3] {
            let tree = CoverTree::build_stopping(&ds, workers, cut);
            let (built, covered) = Partitioning::from_cover_tree(&tree, &ds, kind, 3, 0.05);
            assert!(saved(&built) == bytes, "{workers} workers");
            assert_eq!(covered, stats.covered_balls);
        }
    }

    /// `refresh_assignments` runs its arg-min over blocks and then drops
    /// the balls the grown ones cover; the pair-by-pair scan it replaced
    /// (kept here verbatim over the same balls), with the covered balls
    /// then removed pair by pair, must give the same assignments, the same
    /// grown radii and the same probe order bit for bit.
    #[test]
    fn refresh_assignments_equals_the_per_pair_scan() {
        let mut ds = fasttext_like(&GeneratorConfig::new(500, 6, 4, 13));
        for method in [
            PartitionMethod::CoverTree { ratio: 0.004 },
            PartitionMethod::KMeans,
        ] {
            let mut p = Partitioning::build(&ds, DistanceKind::Euclidean, method, 3, 5);
            for i in 0..60 {
                let mut row = ds.row(i * 3).to_vec();
                row.iter_mut().for_each(|v| *v += 0.01 * i as f32);
                ds.push(&row);
                ds.swap_remove(i);
            }
            let mut regions = balls(&p);
            let mut assignments = Vec::new();
            for row in ds.iter() {
                let mut best: Option<(usize, usize, f32, f32)> = None;
                for (c, cluster) in regions.iter().enumerate() {
                    for (j, (center, radius)) in cluster.iter().enumerate() {
                        let d = vectors::squared_euclidean(row, center).sqrt();
                        let slack = d - radius;
                        if best.map(|(.., s)| slack < s).unwrap_or(true) {
                            best = Some((c, j, d, slack));
                        }
                    }
                }
                let (c, j, d, _) = best.expect("at least one region");
                let radius = &mut regions[c][j].1;
                *radius = radius.max(d);
                assignments.push(c);
            }
            for cluster in &mut regions {
                cluster.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite radii"));
                *cluster = uncovered_per_pair(cluster);
            }
            p.refresh_assignments(&ds);
            assert_eq!(p.assignments(), assignments);
            assert_eq!(ball_bits(balls(&p)), ball_bits(regions), "{method:?}");
        }
    }

    /// A region stream in any radius order (snapshots older than the probe
    /// order) loads into decreasing radii with ties in stream order, and
    /// from then on `save` and `load` are inverse byte for byte.
    #[test]
    fn load_sorts_for_probing_and_resaves_the_same_bytes() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 4, 21));
        let p = Partitioning::build(
            &ds,
            DistanceKind::Euclidean,
            PartitionMethod::CoverTree { ratio: 0.005 },
            3,
            0,
        );
        let bytes = saved(&p);
        let loaded = Partitioning::load(&mut bytes.as_slice()).expect("own bytes load");
        assert_eq!(saved(&loaded), bytes);
        assert_eq!(loaded.assignments(), p.assignments());

        let stream = region_stream(&[
            (vec![1.0, 0.0], 0.5),
            (vec![2.0, 0.0], 2.0),
            (vec![3.0, 0.0], 0.5),
        ]);
        let loaded = Partitioning::load(&mut stream.as_slice()).expect("well-formed stream");
        let want = vec![
            (vec![2.0, 0.0], 2.0),
            (vec![1.0, 0.0], 0.5),
            (vec![3.0, 0.0], 0.5),
        ];
        assert_eq!(balls(&loaded), vec![want.clone()]);
        assert_eq!(saved(&loaded), region_stream(&want));
    }

    /// A one-cluster K-means partitioning over no points, as `save` lays
    /// it out, with the given `(centre, radius)` regions.
    fn region_stream(regions: &[(Vec<f32>, f32)]) -> Vec<u8> {
        let mut s = Vec::new();
        s.extend(1u64.to_le_bytes()); // k
        s.extend([0u8, 2u8]); // Euclidean, KMeans
        s.extend(0u64.to_le_bytes()); // assignments
        s.extend(1u64.to_le_bytes()); // clusters
        cluster_stream(&mut s, regions);
        s
    }

    /// One cluster's `(centre, radius)` regions as `save` lays them out.
    fn cluster_stream(s: &mut Vec<u8>, regions: &[(Vec<f32>, f32)]) {
        s.extend((regions.len() as u64).to_le_bytes());
        for (centre, radius) in regions {
            s.extend((centre.len() as u64).to_le_bytes());
            centre.iter().for_each(|c| s.extend(c.to_le_bytes()));
            s.extend(radius.to_le_bytes());
        }
    }

    /// The cover-tree partitioning as it was before covered balls were
    /// left out — the ball of **every** region the ratio cut exports, the
    /// regions merged greedily as `from_cover_tree` merges them — written
    /// by hand as a snapshot stream and loaded: `load` stores what it is
    /// given.
    fn every_region_stored(ds: &Dataset, kind: DistanceKind, ratio: f64, k: usize) -> Partitioning {
        let mut geo = ds.clone();
        if kind == DistanceKind::Cosine {
            geo.normalize_rows();
        }
        let cut = max_region(geo.len(), ratio);
        let tree = CoverTree::build_for_regions(&geo, cut);
        let mut regions = tree.regions(cut);
        regions.sort_by_key(|r| std::cmp::Reverse(r.members.len()));
        let k = k.min(regions.len().max(1));
        let mut sizes = vec![0usize; k];
        let mut clusters: Vec<Vec<(Vec<f32>, f32)>> = vec![Vec::new(); k];
        let mut assignments = vec![0u64; geo.len()];
        for region in &regions {
            let target = (0..k).min_by_key(|&c| sizes[c]).expect("k > 0");
            sizes[target] += region.members.len();
            for &m in &region.members {
                assignments[m] = target as u64;
            }
            clusters[target].push((geo.row(region.center).to_vec(), region.radius));
        }
        let mut s = Vec::new();
        s.extend((k as u64).to_le_bytes());
        s.extend([(kind == DistanceKind::Cosine) as u8, 0u8]); // cover tree
        s.extend(ratio.to_le_bytes());
        s.extend((assignments.len() as u64).to_le_bytes());
        assignments.iter().for_each(|a| s.extend(a.to_le_bytes()));
        s.extend((k as u64).to_le_bytes());
        clusters.iter().for_each(|c| cluster_stream(&mut s, c));
        Partitioning::load(&mut s.as_slice()).expect("a well-formed stream")
    }

    /// Centres of different lengths used to load, and the release-build
    /// distance then silently compared prefixes.
    #[test]
    fn load_rejects_centres_that_disagree_in_dimension() {
        let stream = region_stream(&[(vec![1.0, 0.0, 0.0], 1.0), (vec![2.0, 0.0], 1.0)]);
        let err = Partitioning::load(&mut stream.as_slice()).expect_err("mixed dimensions");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("dimension 2, expected 3"), "{err}");
    }

    /// The rule by hand: a ball goes when it fits inside a strictly bigger
    /// one with the margin to spare — not when it only touches the rim
    /// from inside, not for a ball of its own size, never for a point
    /// under a point.
    #[test]
    fn refresh_drops_exactly_the_covered_balls() {
        let every = [
            (vec![0.0, 0.0], 2.0),
            (vec![9.0, 0.0], 1.0),
            (vec![1.0, 0.0], 0.5),  // inside the first
            (vec![1.5, 0.0], 0.5),  // touches its rim: 1.5 + 0.5 = 2
            (vec![9.0, 0.5], 0.25), // inside the second
            (vec![0.0, 1.9], 0.0),  // a point inside the first
            (vec![0.0, 2.0], 0.0),  // a point on its rim
            (vec![5.0, 5.0], 0.0),  // a point outside both, twice
            (vec![5.0, 5.0], 0.0),
        ];
        let mut p = Partitioning::load(&mut region_stream(&every).as_slice()).expect("loads");
        assert_eq!(
            p.region_counts(),
            [every.len()],
            "load stores what it reads"
        );
        p.refresh_assignments(&Dataset::new(2));
        let kept: Balls = [0, 1, 3, 6, 7, 8].map(|i| every[i].clone()).into();
        assert_eq!(balls(&p), vec![kept]);
    }

    /// A radius the probe order cannot compare, or one that matches no
    /// query (an indicator that under-estimates without a word), used to
    /// load.
    #[test]
    fn load_rejects_a_radius_that_is_negative_or_not_finite() {
        for radius in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0] {
            let stream = region_stream(&[(vec![1.0, 0.0], 1.0), (vec![2.0, 0.0], radius)]);
            let err = Partitioning::load(&mut stream.as_slice()).expect_err("bad radius");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{radius}");
            assert!(err.to_string().contains("region radius"), "{err}");
        }
        let stream = region_stream(&[(vec![1.0, 0.0], 0.0), (vec![2.0, 0.0], f32::MAX)]);
        Partitioning::load(&mut stream.as_slice()).expect("zero and large radii are radii");
    }

    #[test]
    fn load_rejects_a_centre_coordinate_that_is_not_finite() {
        for coordinate in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let stream = region_stream(&[(vec![1.0, 0.0], 1.0), (vec![2.0, coordinate], 1.0)]);
            let err = Partitioning::load(&mut stream.as_slice()).expect_err("bad centre");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{coordinate}");
            assert!(err.to_string().contains("centre coordinate"), "{err}");
        }
    }

    #[test]
    fn indicator_prunes_far_clusters() {
        // two tight far-apart blobs: a tiny query ball in one blob must not
        // intersect the other blob's cluster
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(vec![i as f32 * 1e-3, 0.0]);
            rows.push(vec![100.0 + i as f32 * 1e-3, 0.0]);
        }
        let ds = Dataset::from_rows(2, &rows);
        let p = Partitioning::build(&ds, DistanceKind::Euclidean, PartitionMethod::KMeans, 2, 0);
        let ind = p.indicator(&[0.0, 0.0], 0.5);
        assert_eq!(
            ind.iter().filter(|&&b| b).count(),
            1,
            "expected one valid cluster"
        );
    }
}
