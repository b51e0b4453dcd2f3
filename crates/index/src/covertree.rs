//! A simplified cover tree (Beygelzimer et al., with the simplified
//! insertion of Izbicki & Shelton, ICML'15 — the structure the paper uses
//! for data partitioning, §5.3).
//!
//! Every node holds one data point and a level `l`; children lie within
//! `covdist = 2^l` of their parent, so the whole subtree of a node lies
//! within `2 * covdist` of it. The tree exports the ball regions the
//! partitioner consumes ([`CoverTree::regions`]), built only as deep as
//! the region size it will be asked for ([`CoverTree::build_for_regions`]).
//! It answers no queries: labelling counts by scanning the records.

use selnet_data::Dataset;
use selnet_metric::vectors::{squared_euclidean, LaneBlocks, LANES, ROWS};
use selnet_metric::DistanceKind;
use selnet_tensor::parallel;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// One tree node. Node `i` holds dataset point `i`: every point becomes
/// exactly one node, in dataset order.
#[derive(Debug, Clone, PartialEq)]
struct CtNode {
    /// Level: children are within `2^level` of this node.
    level: i32,
    /// Child node ids, in creation (= dataset) order.
    children: Vec<u32>,
    /// Number of points in this subtree (including self).
    subtree_size: usize,
    /// Exact max distance from this node's point to any subtree point.
    max_dist: f32,
}

impl CtNode {
    fn leaf(level: i32) -> Self {
        CtNode {
            level,
            children: Vec::new(),
            subtree_size: 1,
            max_dist: 0.0,
        }
    }
}

/// A ball region exported for partitioning: a representative center and the
/// exact radius covering all member points.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Index of the center point in the dataset.
    pub center: usize,
    /// Exact covering radius.
    pub radius: f32,
    /// Dataset indices of all member points.
    pub members: Vec<usize>,
}

/// Cover tree over a [`Dataset`] under the *Euclidean* metric.
///
/// Cosine workloads first normalize vectors and convert thresholds with
/// [`DistanceKind::to_euclidean_threshold`]; see `selnet-metric`.
pub struct CoverTree<'a> {
    ds: &'a Dataset,
    nodes: Vec<CtNode>,
    /// The build's stop size (see [`CoverTree::build_for_regions`]); 1
    /// for a tree built to full depth.
    stop: usize,
    stats: BuildStats,
}

/// How a tree was built: for instrumentation, never for results — the
/// tree is the same for every worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildStats {
    /// Threads the build ran on below the root, the calling one
    /// included: the count asked for, or the number of root children with
    /// a subtree if that is smaller.
    pub workers: usize,
    /// Nodes below the root whose subtree was routed as a job of its own.
    pub subtree_jobs: usize,
    /// Region balls a partitioning built on the tree left out of its store
    /// because a bigger ball of their cluster covers them: filled in by
    /// `Partitioning::build_reporting`, 0 from the tree itself.
    pub covered_balls: usize,
}

impl BuildStats {
    /// One thread, nothing routed below a root: an empty tree, or an index
    /// that is not a cover tree.
    pub const SERIAL: BuildStats = BuildStats {
        workers: 1,
        subtree_jobs: 0,
        covered_balls: 0,
    };
}

fn covdist(level: i32) -> f32 {
    2.0f32.powi(level)
}

/// A child [`route_below`] created and what routing learned about it.
struct Child {
    point: u32,
    level: i32,
    /// The points that fell into its ball, in dataset order: the rest of
    /// its subtree.
    below: Vec<u32>,
    /// The largest distance from `point` to any of `below`.
    max_dist: f32,
}

/// The children of the node being routed below, their centres in one
/// lane-major buffer beside their cover distances `2^level`, block for
/// block (`-∞` in a lane that holds no child yet: no point lies within
/// it). Reused from node to node.
struct Routing {
    centres: LaneBlocks,
    cover: Vec<[f32; LANES]>,
    children: Vec<Child>,
}

impl Routing {
    fn new(dim: usize) -> Self {
        Routing {
            centres: LaneBlocks::new(dim),
            cover: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// Routes `points` (in dataset order) below one node: each goes to the
/// first child, in creation order, whose ball `2^child.level` covers it,
/// or else becomes a new child at `child_level(x)`. That is what inserting
/// the points one at a time does at this node — a point only ever meets
/// the children created by earlier points. `child_level` is called once
/// per point, in order, before the point is routed.
///
/// The points go [`ROWS`] to a pass. The children that existed before
/// the pass are tested against all of its points at once, sixteen
/// children per kernel call, and each point only as far as it takes to
/// see it outside all sixteen balls (the cover distances are the kernel's
/// limits; a point that has found its child gets `-∞` limits and no
/// longer holds a block open). Then, in point order, a point that found
/// none is tested against the children its batch-mates just created, on
/// the pair kernel (`squared_euclidean(..).sqrt()`, a lane's bits), and
/// becomes a child itself if none covers it either.
fn route_below(
    ds: &Dataset,
    points: &[u32],
    mut child_level: impl FnMut(&[f32]) -> i32,
    routing: &mut Routing,
) {
    let Routing {
        centres,
        cover,
        children,
    } = routing;
    centres.clear();
    cover.clear();
    children.clear();
    let mut dists = [[0.0f32; LANES]; ROWS];
    for batch in points.chunks(ROWS) {
        let levels: [i32; ROWS] =
            std::array::from_fn(|r| batch.get(r).map_or(0, |&p| child_level(ds.row(p as usize))));
        // a short last batch repeats its last point in rows that are done
        let xs: [&[f32]; ROWS] =
            std::array::from_fn(|r| ds.row(batch[r.min(batch.len() - 1)] as usize));
        let mut done: [bool; ROWS] = std::array::from_fn(|r| r >= batch.len());
        let mut hits: [Option<(usize, f32)>; ROWS] = [None; ROWS];
        for (b, cover) in cover.iter().enumerate() {
            if done == [true; ROWS] {
                break;
            }
            let limits = done.map(|done| {
                if done {
                    [f32::NEG_INFINITY; LANES]
                } else {
                    *cover
                }
            });
            let open = centres.dist_rows_within(b, xs, &limits, &mut dists);
            for r in 0..ROWS {
                if !open[r] || done[r] {
                    continue;
                }
                if let Some(l) = (0..LANES).find(|&l| dists[r][l] <= cover[l]) {
                    hits[r] = Some((b * LANES + l, dists[r][l]));
                    done[r] = true;
                }
            }
        }
        let existing = children.len();
        for (r, &p) in batch.iter().enumerate() {
            let hit = hits[r].or_else(|| {
                (existing..children.len()).find_map(|c| {
                    let centre = ds.row(children[c].point as usize);
                    let d = squared_euclidean(xs[r], centre).sqrt();
                    (d <= cover[c / LANES][c % LANES]).then_some((c, d))
                })
            });
            if let Some((c, d)) = hit {
                let child = &mut children[c];
                child.below.push(p);
                child.max_dist = child.max_dist.max(d);
                continue;
            }
            if children.len() % LANES == 0 {
                cover.push([f32::NEG_INFINITY; LANES]);
            }
            cover[children.len() / LANES][children.len() % LANES] = covdist(levels[r]);
            centres.push(xs[r]);
            children.push(Child {
                point: p,
                level: levels[r],
                below: Vec::new(),
                max_dist: 0.0,
            });
        }
    }
}

/// A node whose subtree is still to be routed below it: everything a
/// worker needs to do so. Ordered by size, so the shared list hands out
/// the largest job first and the build does not end on one worker
/// finishing a big subtree alone.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Job {
    /// `points.len()`: the sort key.
    size: usize,
    node: u32,
    /// The level the node's new children get: one below its own.
    child_level: i32,
    /// The node's subtree without the node, in dataset order.
    points: Vec<u32>,
}

/// The tree under construction and the jobs not yet taken, shared by the
/// build's workers.
struct Building {
    nodes: Vec<CtNode>,
    /// A child with a subtree of at most this many points is not routed.
    stop: usize,
    jobs: BinaryHeap<Job>,
    /// Jobs taken and not yet adopted; the build is over when there are
    /// none of these and none in `jobs`.
    in_flight: usize,
    /// Jobs adopted so far.
    adopted: usize,
    /// Workers asleep until a job is adopted.
    waiting: usize,
}

impl Building {
    /// Records the children [`route_below`] created under `node` and
    /// queues those whose subtree is larger than the stop size. A smaller
    /// one is left flat — the points that fell into the child's ball become
    /// its leaf children one level down, which the ball's cover distance
    /// permits: a valid tree with the same points, size and `max_dist`
    /// under the child, and nothing left to route. (At stop size 1 that is
    /// the childless child, the only kind a full build leaves alone.)
    fn adopt(&mut self, node: u32, routing: &mut Routing) {
        self.nodes[node as usize].children = routing.children.iter().map(|c| c.point).collect();
        for child in routing.children.drain(..) {
            let subtree_size = 1 + child.below.len();
            self.nodes[child.point as usize] = CtNode {
                level: child.level,
                children: Vec::new(),
                subtree_size,
                max_dist: child.max_dist,
            };
            if subtree_size > self.stop {
                self.jobs.push(Job {
                    size: child.below.len(),
                    node: child.point,
                    child_level: child.level - 1,
                    points: child.below,
                });
            } else {
                for &p in &child.below {
                    self.nodes[p as usize].level = child.level - 1;
                }
                self.nodes[child.point as usize].children = child.below;
            }
        }
        self.adopted += 1;
    }
}

/// Dataset coordinates (`n × dim`) below which
/// [`CoverTree::build_for_regions`] stays on the calling thread: a tree
/// over fewer builds in a few tens of milliseconds and is typically one of
/// several things a caller does at once (the small benchmark fixture,
/// N = 20 000 × d = 24, is below; the paper-shaped one, 50 000 × 300, far
/// above).
const PARALLEL_MIN_COORDS: usize = 1 << 21;

impl<'a> CoverTree<'a> {
    /// Builds the tree that inserting the dataset's points one at a time,
    /// in order, would build — the same children in the same order, the
    /// same levels, sizes and `max_dist` bits, whatever the number of
    /// workers — top-down: a node receives all the points of its subtree
    /// at once and `route_below` hands them on to its children. Each
    /// point's distance to the node it is routed into is computed on the
    /// way, so subtree sizes and the exact `max_dist` need no second pass.
    ///
    /// The root is routed on the calling thread. Below it, what a node's
    /// routing produces depends on nothing but the node's level and its
    /// point list, and it writes nothing but that node's child list and
    /// those children: the pending nodes are independent jobs, taken
    /// largest first from one shared list by the workers, started as the
    /// parts of one `parallel::fork_join` (the caller is one of them),
    /// each adopting its result under the list's lock. Which thread
    /// routes a node, and when, cannot show in the tree. There are as
    /// many workers as `parallel::fork_threads()` allows (one inside a
    /// parallel region), or the calling thread alone for a small dataset.
    ///
    /// The tree stops as deep as [`CoverTree::regions`] looks for any
    /// `max_region_size >= stop`: a node whose subtree holds at most `stop`
    /// points is exported whole, so its subtree is not routed (`adopt`
    /// leaves it flat). Above the cut the tree is the full one, node for
    /// node; below it, it still holds every point, but `regions` refuses a
    /// size under `stop`. `stop = 1` builds the whole tree.
    pub fn build_for_regions(ds: &'a Dataset, stop: usize) -> Self {
        Self::build_stopping(ds, Self::workers_for(ds), stop)
    }

    fn workers_for(ds: &Dataset) -> usize {
        if ds.len() * ds.dim() < PARALLEL_MIN_COORDS {
            1
        } else {
            parallel::fork_threads()
        }
    }

    /// [`CoverTree::build_for_regions`] on `workers` workers (tests force a
    /// count below the size gate) down to subtrees of at most `stop` points
    /// (1 = all).
    pub(crate) fn build_stopping(ds: &'a Dataset, workers: usize, stop: usize) -> Self {
        let n = u32::try_from(ds.len()).expect("cover tree indexes at most 2^32 points");
        let stop = stop.max(1);
        let mut building = Building {
            nodes: vec![CtNode::leaf(0); ds.len()],
            stop,
            jobs: BinaryHeap::new(),
            in_flight: 0,
            adopted: 0,
            waiting: 0,
        };
        if n == 0 {
            return CoverTree {
                ds,
                nodes: building.nodes,
                stop,
                stats: BuildStats::SERIAL,
            };
        }
        let mut routing = Routing::new(ds.dim());

        // The root is point 0. Its level rises until its ball covers each
        // arriving point, and a child created on the way sits one below
        // the level the root had reached by then.
        let mut root = LaneBlocks::new(ds.dim());
        root.push(ds.row(0));
        let rest: Vec<u32> = (1..n).collect();
        let mut sq = [0.0f32; LANES];
        let root_node = &mut building.nodes[0];
        root_node.subtree_size = ds.len();
        let below_root = |x: &[f32]| {
            root.sqdist_into(0, x, &mut sq);
            let d = sq[0].sqrt();
            while d > covdist(root_node.level) {
                root_node.level += 1;
            }
            root_node.max_dist = root_node.max_dist.max(d);
            root_node.level - 1
        };
        route_below(ds, &rest, below_root, &mut routing);
        building.adopt(0, &mut routing);

        // no more threads than there are jobs to start them on; inside a
        // parallel region `workers_for` answers 1, and a forced count there
        // runs its parts in turn: part 0 drains the list alone, never waits
        let workers = workers.max(1).min(building.jobs.len().max(1));
        let shared = (Mutex::new(building), Condvar::new());
        let work = |mut routing: Routing| {
            let (building, wake) = &shared;
            let mut guard = building.lock().expect("a build worker panicked");
            loop {
                let Some(job) = guard.jobs.pop() else {
                    if guard.in_flight == 0 {
                        // nothing left and nobody who could add to it
                        wake.notify_all();
                        return;
                    }
                    guard.waiting += 1;
                    guard = wake.wait(guard).expect("a build worker panicked");
                    guard.waiting -= 1;
                    continue;
                };
                guard.in_flight += 1;
                drop(guard);
                route_below(ds, &job.points, |_| job.child_level, &mut routing);
                guard = building.lock().expect("a build worker panicked");
                guard.in_flight -= 1;
                guard.adopt(job.node, &mut routing);
                if guard.waiting > 0 {
                    wake.notify_all();
                }
            }
        };
        let parts = std::iter::once(routing).chain((1..workers).map(|_| Routing::new(ds.dim())));
        parallel::fork_join(parts.collect(), work);
        let building = shared.0.into_inner().expect("a build worker panicked");
        CoverTree {
            ds,
            nodes: building.nodes,
            stop,
            stats: BuildStats {
                workers,
                subtree_jobs: building.adopted - 1,
                covered_balls: 0,
            },
        }
    }

    /// How the build went about it.
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    fn dist(&self, a: usize, b: usize) -> f32 {
        DistanceKind::Euclidean.eval(self.ds.row(a), self.ds.row(b))
    }

    fn root(&self) -> Option<usize> {
        (!self.nodes.is_empty()).then_some(0)
    }

    fn subtree_points(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes[node].subtree_size);
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.nodes[n].children.iter().map(|&c| c as usize));
        }
        out
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Exports maximal ball regions whose subtree size is at most
    /// `max_region_size` — this is the paper's partition-ratio cut: "cover
    /// tree will not expand its nodes if the number of data inside is
    /// smaller than r·|D|" (§5.3). Members come in dataset order, the
    /// centre first.
    ///
    /// # Panics
    /// Panics if the tree was built with a stop size
    /// ([`CoverTree::build_for_regions`]) above `max_region_size`: the
    /// nodes this would expand were never routed.
    pub fn regions(&self, max_region_size: usize) -> Vec<Region> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        let max_region_size = max_region_size.max(1);
        assert!(
            max_region_size >= self.stop,
            "regions({max_region_size}) on a tree built down to subtrees of {}",
            self.stop
        );
        let mut regions = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if node.subtree_size <= max_region_size || node.children.is_empty() {
                let mut members = self.subtree_points(n);
                members.sort_unstable();
                regions.push(Region {
                    center: n,
                    radius: node.max_dist,
                    members,
                });
            } else {
                // the node's own point becomes a singleton region; children
                // are explored further
                regions.push(Region {
                    center: n,
                    radius: 0.0,
                    members: vec![n],
                });
                stack.extend(node.children.iter().map(|&c| c as usize));
            }
        }
        regions
    }

    /// Verifies the tree against pair distances, independently of the
    /// block kernel that built it: every point is reachable exactly once,
    /// every child lies within `2^parent.level` of its parent and at least
    /// one level below it (the covering invariant), `subtree_size` counts
    /// the subtree, and `max_dist` bounds the distance to every subtree
    /// point. Used by tests.
    pub fn check_invariants(&self) -> bool {
        let Some(root) = self.root() else { return true };
        let mut reached = 0;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            reached += 1;
            let subtree = self.subtree_points(n);
            let covered = subtree
                .iter()
                .all(|&q| self.dist(n, q) <= node.max_dist + 1e-4);
            let children_ok = node.children.iter().all(|&c| {
                self.nodes[c as usize].level < node.level
                    && self.dist(n, c as usize) <= covdist(node.level)
            });
            if !covered || !children_ok || node.subtree_size != subtree.len() {
                return false;
            }
            stack.extend(node.children.iter().map(|&c| c as usize));
        }
        reached == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use selnet_data::generators::{fasttext_like, GeneratorConfig};

    /// The reference [`CoverTree::build_for_regions`] must reproduce: sequential
    /// insertion on pair distances, then a bottom-up pass for subtree
    /// sizes and exact `max_dist` — the construction this crate used
    /// before the batch build, kept as it was.
    struct InsertionOracle<'a> {
        ds: &'a Dataset,
        nodes: Vec<CtNode>,
    }

    impl InsertionOracle<'_> {
        fn build(ds: &Dataset) -> Vec<CtNode> {
            let mut tree = InsertionOracle {
                ds,
                nodes: Vec::new(),
            };
            for i in 0..ds.len() {
                tree.insert(i);
            }
            tree.finalize();
            tree.nodes
        }

        fn dist(&self, a: usize, b: usize) -> f32 {
            DistanceKind::Euclidean.eval(self.ds.row(a), self.ds.row(b))
        }

        fn insert(&mut self, point: usize) {
            if point == 0 {
                self.nodes.push(CtNode::leaf(0));
                return;
            }
            let d_root = self.dist(0, point);
            // raise the root level until the root ball covers the new point
            while d_root > covdist(self.nodes[0].level) {
                self.nodes[0].level += 1;
            }
            self.insert_rec(0, point);
        }

        fn insert_rec(&mut self, node: usize, point: usize) {
            // descend into a child whose covering ball already contains the point
            for c in self.nodes[node].children.clone() {
                let d = self.dist(c as usize, point);
                if d <= covdist(self.nodes[c as usize].level) {
                    self.insert_rec(c as usize, point);
                    return;
                }
            }
            let level = self.nodes[node].level - 1;
            self.nodes.push(CtNode::leaf(level));
            self.nodes[node].children.push(point as u32);
        }

        fn finalize(&mut self) {
            if self.nodes.is_empty() {
                return;
            }
            let mut order = Vec::with_capacity(self.nodes.len());
            let mut stack = vec![0usize];
            while let Some(n) = stack.pop() {
                order.push(n);
                stack.extend(self.nodes[n].children.iter().map(|&c| c as usize));
            }
            for &n in order.iter().rev() {
                let mut subtree = Vec::new();
                let mut stack = vec![n];
                while let Some(m) = stack.pop() {
                    subtree.push(m);
                    stack.extend(self.nodes[m].children.iter().map(|&c| c as usize));
                }
                self.nodes[n].subtree_size = subtree.len();
                self.nodes[n].max_dist = subtree
                    .iter()
                    .fold(0.0f32, |maxd, &q| maxd.max(self.dist(n, q)));
            }
        }
    }

    /// Structure, levels, sizes, `max_dist` bits and the exported regions,
    /// whatever the number of build workers — of the whole tree at stop
    /// size 1, and of everything above the cut at a larger one, where a
    /// node at the cut keeps its level, size and `max_dist` bits and holds
    /// the rest of its subtree flat.
    fn assert_same_tree_as_insertion(ds: &Dataset, what: &str) {
        let oracle = InsertionOracle::build(ds);
        let reference = CoverTree {
            ds,
            nodes: oracle,
            stop: 1,
            stats: BuildStats::SERIAL,
        };
        let sizes = [1, 3, ds.len() / 20 + 1, ds.len()];
        for (workers, stop) in [1, 2, 3, 8].into_iter().flat_map(|w| sizes.map(|s| (w, s))) {
            let what = format!("{what}, {workers} workers, stop {stop}");
            let tree = CoverTree::build_stopping(ds, workers, stop);
            assert_eq!(tree.nodes.len(), reference.nodes.len(), "{what}");
            let mut at_cut = vec![false; ds.len()];
            for (i, (got, want)) in tree.nodes.iter().zip(&reference.nodes).enumerate() {
                if want.subtree_size > stop || i == 0 {
                    assert_eq!(got, want, "{what}: node {i}");
                    want.children
                        .iter()
                        .for_each(|&c| at_cut[c as usize] = true);
                }
            }
            for (i, (got, want)) in tree.nodes.iter().zip(&reference.nodes).enumerate() {
                if !at_cut[i] {
                    continue; // below the cut: a leaf of the flat subtree
                }
                assert_eq!(
                    (got.level, got.subtree_size, got.max_dist.to_bits()),
                    (want.level, want.subtree_size, want.max_dist.to_bits()),
                    "{what}: node {i}"
                );
                if want.subtree_size <= stop {
                    let mut rest = reference.subtree_points(i);
                    rest.sort_unstable();
                    let flat: Vec<usize> = got.children.iter().map(|&c| c as usize).collect();
                    assert_eq!(flat, rest[1..], "{what}: node {i}");
                }
            }
            assert!(tree.check_invariants(), "{what}");
            for max_region in sizes.into_iter().chain([stop, stop + 1]) {
                if max_region.max(1) < stop {
                    continue; // refused, see `regions_below_the_stop_size_are_refused`
                }
                assert_eq!(
                    tree.regions(max_region),
                    reference.regions(max_region),
                    "{what}: regions({max_region})"
                );
            }
            // one job per node with a subtree above the cut, the root's aside
            let parents = (tree.nodes.iter())
                .filter(|n| !n.children.is_empty() && n.subtree_size > stop)
                .count();
            let stats = tree.build_stats();
            assert_eq!(stats.subtree_jobs, parents.saturating_sub(1), "{what}");
            assert!((1..=workers).contains(&stats.workers), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "regions(9) on a tree built down to subtrees of 10")]
    fn regions_below_the_stop_size_are_refused() {
        let ds = fasttext_like(&GeneratorConfig::new(200, 4, 3, 6));
        let tree = CoverTree::build_for_regions(&ds, 10);
        let full = CoverTree::build_for_regions(&ds, 1);
        assert_eq!(tree.regions(10), full.regions(10));
        tree.regions(9);
    }

    #[test]
    fn batch_build_equals_sequential_insertion() {
        // one stride of coordinates, two, and several
        for (n, dim, clusters, seed) in [
            (700, 6, 5, 1),
            (400, 40, 3, 2),
            (33, 3, 2, 3),
            (250, 150, 4, 5),
        ] {
            let ds = fasttext_like(&GeneratorConfig::new(n, dim, clusters, seed));
            assert_same_tree_as_insertion(&ds, &format!("clustered n={n} d={dim}"));
        }
        // every row several times over: zero distances, chains of children
        // whose levels run far below zero
        let base = fasttext_like(&GeneratorConfig::new(60, 5, 3, 4));
        let mut rng = StdRng::seed_from_u64(9);
        let rows: Vec<Vec<f32>> = (0..300)
            .map(|_| base.row(rng.gen_range(0..base.len())).to_vec())
            .collect();
        assert_same_tree_as_insertion(&Dataset::from_rows(5, &rows), "duplicated rows");
        // d = 1, with more children under one node than one block holds
        let rows: Vec<Vec<f32>> = (0..500)
            .map(|_| vec![rng.gen_range(-8.0f32..8.0) * rng.gen_range(0.0f32..1.0)])
            .collect();
        assert_same_tree_as_insertion(&Dataset::from_rows(1, &rows), "d=1");
        for n in 0..3 {
            let ds = Dataset::from_rows(
                2,
                &rows[..n]
                    .iter()
                    .map(|r| vec![r[0], 1.0])
                    .collect::<Vec<_>>(),
            );
            assert_same_tree_as_insertion(&ds, &format!("n={n}"));
        }
    }

    #[test]
    fn build_stays_on_the_caller_below_the_size_gate() {
        let zeros = |n: usize, dim: usize| Dataset::from_flat(dim, vec![0.0; n * dim]);
        assert_eq!(CoverTree::workers_for(&zeros(20_000, 24)), 1);
        assert_eq!(CoverTree::workers_for(&zeros(8191, 256)), 1);
        let configured = parallel::fork_threads();
        assert_eq!(CoverTree::workers_for(&zeros(8192, 256)), configured);
        assert_eq!(CoverTree::workers_for(&zeros(50_000, 300)), configured);
        // a build started from inside a parallel region stays on its thread
        parallel::fork_join(vec![(), ()], |()| {
            assert_eq!(CoverTree::workers_for(&zeros(8192, 256)), 1);
        });
    }

    /// The build takes the parallel path by itself once the dataset is large
    /// enough, on as many workers as `SELNET_THREADS` or the machine give
    /// (CI runs this with `SELNET_THREADS=3`), and the tree is the
    /// one-worker tree.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "two 8192 x 256 builds take ~15 s unoptimized; CI runs the release tests"
    )]
    fn build_goes_parallel_by_itself_on_a_large_dataset() {
        let large = fasttext_like(&GeneratorConfig::new(8192, 256, 6, 11));
        let tree = CoverTree::build_for_regions(&large, 1);
        let serial = CoverTree::build_stopping(&large, 1, 1);
        assert!(tree.nodes == serial.nodes);
        assert_eq!(
            tree.build_stats().subtree_jobs,
            serial.build_stats().subtree_jobs
        );
        assert_eq!(serial.build_stats().workers, 1);
        // enough root children here that every default worker gets a job
        assert_eq!(tree.build_stats().workers, parallel::fork_threads());
    }

    /// Above the size gate (2^21 coordinates) the build takes as many
    /// workers as the calling thread is pinned to, whatever the machine
    /// has.
    #[test]
    fn set_threads_sets_the_build_workers() {
        // two rows in each of four far-apart places, 2^21 coordinates: the
        // root gets a child in each place, three of them with a subtree
        let dim = 1 << 18;
        let rows: Vec<Vec<f32>> = (0..8)
            .map(|i| vec![(i % 4) as f32 * 8.0 + i as f32 * 0.01; dim])
            .collect();
        let ds = Dataset::from_rows(dim, &rows);
        let serial = CoverTree::build_stopping(&ds, 1, 1);
        assert_eq!(serial.build_stats().subtree_jobs, 3);
        for threads in [1, 2] {
            parallel::set_threads(threads);
            let tree = CoverTree::build_for_regions(&ds, 1);
            assert_eq!(tree.build_stats().workers, threads);
            assert_eq!(tree.build_stats().subtree_jobs, 3);
            assert_eq!(tree.regions(1), serial.regions(1));
        }
        parallel::set_threads(0);
    }

    #[test]
    fn check_invariants_rejects_a_broken_cover_size_or_bound() {
        let ds = fasttext_like(&GeneratorConfig::new(200, 4, 3, 6));
        let tree = CoverTree::build_for_regions(&ds, 1);
        assert!(tree.check_invariants());
        let parent = (0..ds.len())
            .find(|&i| !tree.nodes[i].children.is_empty())
            .expect("some node has children");
        let breakages: [fn(&mut CtNode); 3] = [
            |node| node.level -= 40,
            |node| node.subtree_size += 1,
            |node| node.max_dist = 0.0,
        ];
        for break_it in breakages {
            let mut nodes = tree.nodes.clone();
            break_it(&mut nodes[parent]);
            let broken = CoverTree {
                ds: &ds,
                nodes,
                stop: 1,
                stats: tree.stats,
            };
            assert!(!broken.check_invariants());
        }
    }

    #[test]
    fn indexes_all_points() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 6, 4, 1));
        let tree = CoverTree::build_for_regions(&ds, 1);
        assert_eq!(tree.len(), 300);
        assert!(tree.check_invariants());
    }

    #[test]
    fn regions_cover_every_point_exactly_once() {
        let ds = fasttext_like(&GeneratorConfig::new(500, 5, 6, 5));
        let tree = CoverTree::build_for_regions(&ds, 1);
        let regions = tree.regions(50);
        let mut seen = vec![false; ds.len()];
        for r in &regions {
            for &m in &r.members {
                assert!(!seen[m], "point {m} in two regions");
                seen[m] = true;
            }
            // radius must cover all members
            for &m in &r.members {
                let d = DistanceKind::Euclidean.eval(ds.row(r.center), ds.row(m));
                assert!(d <= r.radius + 1e-4);
            }
        }
        assert!(seen.iter().all(|&s| s), "some point missing from regions");
    }

    #[test]
    fn empty_and_singleton_trees() {
        let ds = Dataset::new(3);
        let tree = CoverTree::build_for_regions(&ds, 1);
        assert!(tree.is_empty());
        assert!(tree.regions(1).is_empty());

        let ds1 = Dataset::from_rows(2, &[vec![1.0, 1.0]]);
        let t1 = CoverTree::build_for_regions(&ds1, 1);
        assert_eq!(t1.len(), 1);
        assert!(t1.check_invariants());
    }
}
