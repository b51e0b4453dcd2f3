//! A simplified cover tree (Beygelzimer et al., with the simplified
//! insertion of Izbicki & Shelton, ICML'15 — the structure the paper uses
//! for data partitioning, §5.3).
//!
//! Every node holds one data point and a level `l`; children lie within
//! `covdist = 2^l` of their parent, so the whole subtree of a node lies
//! within `2 * covdist` of it. The tree supports exact range counting /
//! reporting, nearest-neighbor search, and exporting the ball regions the
//! partitioner consumes.

use selnet_data::Dataset;
use selnet_metric::vectors::{LaneBlocks, LANES};
use selnet_metric::DistanceKind;

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
/// lane-major buffer beside their cover distances `2^level`. Reused from
/// node to node.
struct Routing {
    centres: LaneBlocks,
    cover: Vec<f32>,
    children: Vec<Child>,
}

/// Routes `points` (in dataset order) below one node: each goes to the
/// first child, in creation order, whose ball `2^child.level` covers it,
/// or else becomes a new child at `child_level(x)`. That is what inserting
/// the points one at a time does at this node — a point only ever meets
/// the children created by earlier points — but sixteen children are
/// tested per kernel call. `child_level` is called once per point, before
/// it is routed.
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
    let mut sq = [0.0f32; LANES];
    'points: for &p in points {
        let x = ds.row(p as usize);
        let level = child_level(x);
        for (b, cover) in cover.chunks(LANES).enumerate() {
            centres.sqdist_into(b, x, &mut sq);
            let dists = sq.iter().map(|s| s.sqrt()).zip(cover);
            if let Some((l, (d, _))) = dists.enumerate().find(|&(_, (d, &cover))| d <= cover) {
                let child = &mut children[b * LANES + l];
                child.below.push(p);
                child.max_dist = child.max_dist.max(d);
                continue 'points;
            }
        }
        centres.push(x);
        cover.push(covdist(level));
        children.push(Child {
            point: p,
            level,
            below: Vec::new(),
            max_dist: 0.0,
        });
    }
}

impl<'a> CoverTree<'a> {
    /// Builds the tree that inserting the dataset's points one at a time,
    /// in order, would build — the same children in the same order, the
    /// same levels, sizes and `max_dist` bits — top-down: a node receives
    /// all the points of its subtree at once and `route_below` hands
    /// them on to its children. Each point's distance to the node it is
    /// routed into is computed on the way, so subtree sizes and the exact
    /// `max_dist` need no second pass.
    pub fn build(ds: &'a Dataset) -> Self {
        let n = u32::try_from(ds.len()).expect("cover tree indexes at most 2^32 points");
        let mut nodes = vec![CtNode::leaf(0); ds.len()];
        if nodes.is_empty() {
            return CoverTree { ds, nodes };
        }
        let mut routing = Routing {
            centres: LaneBlocks::new(ds.dim()),
            cover: Vec::new(),
            children: Vec::new(),
        };
        // nodes whose subtree is still to be routed below them; the lists
        // are disjoint, so together they never hold more than `n` ids
        let mut pending: Vec<(u32, Vec<u32>)> = Vec::new();

        // The root is point 0. Its level rises until its ball covers each
        // arriving point, and a child created on the way sits one below
        // the level the root had reached by then.
        let mut root = LaneBlocks::new(ds.dim());
        root.push(ds.row(0));
        let rest: Vec<u32> = (1..n).collect();
        let mut sq = [0.0f32; LANES];
        let root_node = &mut nodes[0];
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
        Self::adopt(&mut nodes, 0, &mut routing, &mut pending);

        while let Some((node, points)) = pending.pop() {
            let level = nodes[node as usize].level - 1;
            route_below(ds, &points, |_| level, &mut routing);
            Self::adopt(&mut nodes, node, &mut routing, &mut pending);
        }
        CoverTree { ds, nodes }
    }

    /// Records the children [`route_below`] created under `node` and
    /// queues those that received points of their own.
    fn adopt(
        nodes: &mut [CtNode],
        node: u32,
        routing: &mut Routing,
        pending: &mut Vec<(u32, Vec<u32>)>,
    ) {
        nodes[node as usize].children = routing.children.iter().map(|c| c.point).collect();
        for child in routing.children.drain(..) {
            nodes[child.point as usize] = CtNode {
                level: child.level,
                children: Vec::new(),
                subtree_size: 1 + child.below.len(),
                max_dist: child.max_dist,
            };
            if !child.below.is_empty() {
                pending.push((child.point, child.below));
            }
        }
    }

    fn dist(&self, a: usize, b: usize) -> f32 {
        DistanceKind::Euclidean.eval(self.ds.row(a), self.ds.row(b))
    }

    fn dist_to(&self, a: usize, q: &[f32]) -> f32 {
        DistanceKind::Euclidean.eval(self.ds.row(a), q)
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

    /// Exact count of points within distance `t` of `q` (the selectivity).
    pub fn range_count(&self, q: &[f32], t: f32) -> usize {
        let Some(root) = self.root() else { return 0 };
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            let d = self.dist_to(n, q);
            if d + node.max_dist <= t {
                count += node.subtree_size; // whole subtree inside
                continue;
            }
            if d - node.max_dist > t {
                continue; // whole subtree outside
            }
            if d <= t {
                count += 1;
            }
            stack.extend(node.children.iter().map(|&c| c as usize));
        }
        count
    }

    /// Exact indices of points within distance `t` of `q`.
    pub fn range_query(&self, q: &[f32], t: f32) -> Vec<usize> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            let d = self.dist_to(n, q);
            if d + node.max_dist <= t {
                out.extend(self.subtree_points(n));
                continue;
            }
            if d - node.max_dist > t {
                continue;
            }
            if d <= t {
                out.push(n);
            }
            stack.extend(node.children.iter().map(|&c| c as usize));
        }
        out
    }

    /// Exact nearest neighbor of `q` (branch-and-bound). Returns
    /// `(point index, distance)`, or `None` for an empty tree.
    pub fn nearest(&self, q: &[f32]) -> Option<(usize, f32)> {
        let root = self.root()?;
        let mut best = (root, self.dist_to(root, q));
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            let d = self.dist_to(n, q);
            if d < best.1 {
                best = (n, d);
            }
            if d - node.max_dist >= best.1 {
                continue; // cannot contain anything closer
            }
            stack.extend(node.children.iter().map(|&c| c as usize));
        }
        Some(best)
    }

    /// Exports maximal ball regions whose subtree size is at most
    /// `max_region_size` — this is the paper's partition-ratio cut: "cover
    /// tree will not expand its nodes if the number of data inside is
    /// smaller than r·|D|" (§5.3).
    pub fn regions(&self, max_region_size: usize) -> Vec<Region> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        let max_region_size = max_region_size.max(1);
        let mut regions = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if node.subtree_size <= max_region_size || node.children.is_empty() {
                regions.push(Region {
                    center: n,
                    radius: node.max_dist,
                    members: self.subtree_points(n),
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

    /// Maximum node depth (for structural tests/diagnostics).
    pub fn depth(&self) -> usize {
        let Some(root) = self.root() else { return 0 };
        let mut max_depth = 0usize;
        let mut stack = vec![(root, 1usize)];
        while let Some((n, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for &c in &self.nodes[n].children {
                stack.push((c as usize, d + 1));
            }
        }
        max_depth
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

    fn brute_count(ds: &Dataset, q: &[f32], t: f32) -> usize {
        ds.iter()
            .filter(|r| DistanceKind::Euclidean.eval(r, q) <= t)
            .count()
    }

    /// The reference [`CoverTree::build`] must reproduce: sequential
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

    /// Structure, levels, sizes, `max_dist` bits and the exported regions.
    fn assert_same_tree_as_insertion(ds: &Dataset, what: &str) {
        let tree = CoverTree::build(ds);
        let oracle = InsertionOracle::build(ds);
        assert_eq!(tree.nodes.len(), oracle.len(), "{what}");
        for (i, (got, want)) in tree.nodes.iter().zip(&oracle).enumerate() {
            assert_eq!(got, want, "{what}: node {i}");
            assert_eq!(
                got.max_dist.to_bits(),
                want.max_dist.to_bits(),
                "{what}: node {i}"
            );
        }
        assert!(tree.check_invariants(), "{what}");
        let reference = CoverTree { ds, nodes: oracle };
        for max_region in [1, 3, ds.len() / 20 + 1, ds.len()] {
            assert_eq!(
                tree.regions(max_region),
                reference.regions(max_region),
                "{what}: regions({max_region})"
            );
        }
    }

    #[test]
    fn batch_build_equals_sequential_insertion() {
        for (n, dim, clusters, seed) in [(700, 6, 5, 1), (400, 40, 3, 2), (33, 3, 2, 3)] {
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
    fn check_invariants_rejects_a_broken_cover_size_or_bound() {
        let ds = fasttext_like(&GeneratorConfig::new(200, 4, 3, 6));
        let tree = CoverTree::build(&ds);
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
            assert!(!CoverTree { ds: &ds, nodes }.check_invariants());
        }
    }

    #[test]
    fn indexes_all_points() {
        let ds = fasttext_like(&GeneratorConfig::new(300, 6, 4, 1));
        let tree = CoverTree::build(&ds);
        assert_eq!(tree.len(), 300);
        assert!(tree.check_invariants());
    }

    #[test]
    fn range_count_matches_brute_force() {
        let ds = fasttext_like(&GeneratorConfig::new(400, 5, 3, 2));
        let tree = CoverTree::build(&ds);
        for qi in [0usize, 57, 123, 399] {
            let q = ds.row(qi).to_vec();
            for t in [0.0f32, 0.5, 1.0, 2.0, 5.0, 50.0] {
                assert_eq!(
                    tree.range_count(&q, t),
                    brute_count(&ds, &q, t),
                    "qi={qi} t={t}"
                );
            }
        }
    }

    #[test]
    fn range_query_returns_exact_indices() {
        let ds = fasttext_like(&GeneratorConfig::new(200, 4, 3, 3));
        let tree = CoverTree::build(&ds);
        let q = ds.row(10).to_vec();
        let t = 1.5;
        let mut got = tree.range_query(&q, t);
        got.sort_unstable();
        let mut expected: Vec<usize> = (0..ds.len())
            .filter(|&i| DistanceKind::Euclidean.eval(ds.row(i), &q) <= t)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let ds = fasttext_like(&GeneratorConfig::new(250, 6, 4, 4));
        let tree = CoverTree::build(&ds);
        for qi in [3usize, 77, 150] {
            // query slightly offset from a data point
            let mut q = ds.row(qi).to_vec();
            q[0] += 0.01;
            let (_, d) = tree.nearest(&q).unwrap();
            let best = (0..ds.len())
                .map(|i| DistanceKind::Euclidean.eval(ds.row(i), &q))
                .fold(f32::MAX, f32::min);
            assert!((d - best).abs() < 1e-5);
        }
    }

    #[test]
    fn regions_cover_every_point_exactly_once() {
        let ds = fasttext_like(&GeneratorConfig::new(500, 5, 6, 5));
        let tree = CoverTree::build(&ds);
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
        let tree = CoverTree::build(&ds);
        assert!(tree.is_empty());
        assert_eq!(tree.range_count(&[0.0, 0.0, 0.0], 10.0), 0);
        assert!(tree.nearest(&[0.0, 0.0, 0.0]).is_none());

        let ds1 = Dataset::from_rows(2, &[vec![1.0, 1.0]]);
        let t1 = CoverTree::build(&ds1);
        assert_eq!(t1.len(), 1);
        assert_eq!(t1.range_count(&[1.0, 1.0], 0.0), 1);
    }
}
