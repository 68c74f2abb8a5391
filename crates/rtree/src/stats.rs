//! Measured per-level tree statistics.
//!
//! The analytical model predicts, for each level `j`, the node count
//! `N_j` (Eq 3), the average node extent `s_{j,k}` (Eq 4) and the node-
//! rectangle density `D_j` (Eq 5) from data properties alone. This module
//! *measures* the same quantities from a built tree, which serves two
//! purposes: validating Eqs 2–5 directly, and the "measured parameters"
//! ablation that isolates parameter-prediction error from traversal-model
//! error.

use crate::node::{Node, NodeId};
use crate::tree::RTree;
use sjcm_geom::{density, Rect};

/// Statistics of one tree level, using the **paper's** level numbering:
/// leaves are level `j = 1`, the root is level `j = h`.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Paper level `j` (1 = leaf).
    pub level: usize,
    /// Number of nodes at this level — the measured `N_j`.
    pub node_count: usize,
    /// Average node-rectangle extent per dimension — the measured
    /// `s_{j,k}`.
    pub avg_extents: Vec<f64>,
    /// Density of the node rectangles over the unit workspace — the
    /// measured `D_j`.
    pub density: f64,
    /// Average entries per node at this level.
    pub avg_fanout: f64,
}

/// Whole-tree statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Height `h` in the paper's convention (leaf level 1 … root level h).
    pub height: usize,
    /// Number of stored objects `N`.
    pub num_objects: usize,
    /// Density `D` of the stored object MBRs.
    pub data_density: f64,
    /// Per-level statistics for `j = 1 … h` (index 0 ↦ level 1).
    pub levels: Vec<LevelStats>,
    /// Average node capacity utilization over all nodes — the measured
    /// counterpart of the paper's `c` (typically ≈ 0.67).
    pub avg_utilization: f64,
}

impl TreeStats {
    /// Statistics for paper level `j` (1-based), if the tree is tall
    /// enough.
    pub fn level(&self, j: usize) -> Option<&LevelStats> {
        if j == 0 {
            return None;
        }
        self.levels.get(j - 1)
    }
}

/// The cost model's view of one level of a subtree: `N_j`, `s_{j,k}`
/// and `D_j`, as in [`LevelStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelShape<const N: usize> {
    /// Number of nodes at this level — the measured `N_j`.
    pub node_count: usize,
    /// Average node-rectangle extent per dimension — `s_{j,k}`.
    pub avg_extents: [f64; N],
    /// Density of the node rectangles — `D_j`.
    pub density: f64,
}

/// A subtree's per-level shape and its root's rectangle, read off the
/// entries of its internal nodes ([`RTree::subtree_shape`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeShape<const N: usize> {
    /// The subtree root's MBR; `None` only for an empty tree's root.
    pub mbr: Option<Rect<N>>,
    /// Levels `j = 1 … h` of the subtree (index 0 ↦ its leaves).
    pub levels: Vec<LevelShape<N>>,
}

/// Running sums over one level's node rectangles, in the order they are
/// added. The measure sum starts from the empty sum as [`density`] folds
/// it, so it is bit for bit `density` of the same rectangles in the same
/// order.
struct LevelSums<const N: usize> {
    rects: usize,
    extents: [f64; N],
    measure: f64,
}

impl<const N: usize> LevelSums<N> {
    fn new() -> Self {
        LevelSums {
            rects: 0,
            extents: [0.0; N],
            measure: density::<N>(&[]),
        }
    }

    fn add(&mut self, r: &Rect<N>) {
        self.rects += 1;
        for (k, e) in self.extents.iter_mut().enumerate() {
            *e += r.extent(k);
        }
        self.measure += r.measure();
    }

    fn shape(&self, node_count: usize) -> LevelShape<N> {
        let mut avg_extents = self.extents;
        if self.rects > 0 {
            for a in avg_extents.iter_mut() {
                *a /= self.rects as f64;
            }
        }
        LevelShape {
            node_count,
            avg_extents,
            density: self.measure,
        }
    }
}

impl<const N: usize> LevelShape<N> {
    /// The level's full statistics, at crate level `crate_level`, given
    /// the entries its nodes hold.
    fn stats(&self, crate_level: usize, entries: usize) -> LevelStats {
        LevelStats {
            level: crate_level + 1,
            node_count: self.node_count,
            avg_extents: self.avg_extents.to_vec(),
            density: self.density,
            avg_fanout: if self.node_count == 0 {
                0.0
            } else {
                entries as f64 / self.node_count as f64
            },
        }
    }
}

/// Capacity utilization over `(node_count, entries)` per level.
fn utilization(levels: impl Iterator<Item = (usize, usize)>, max_entries: usize) -> f64 {
    let (nodes, entries) = levels.fold((0, 0), |(n, e), (ln, le)| (n + ln, e + le));
    if nodes == 0 {
        0.0
    } else {
        entries as f64 / (nodes * max_entries) as f64
    }
}

impl<const N: usize> RTree<N> {
    /// Measures the per-level statistics of this tree.
    pub fn stats(&self) -> TreeStats {
        let height = self.height();
        let mut levels = Vec::with_capacity(height);
        let mut counts = Vec::with_capacity(height);
        for crate_level in 0..height {
            let mut sums = LevelSums::new();
            let (mut node_count, mut entries) = (0, 0);
            for id in self.node_ids_at_level(crate_level as u8) {
                let node = self.node(id);
                node_count += 1;
                entries += node.len();
                if let Some(mbr) = node.mbr() {
                    sums.add(&mbr);
                }
            }
            levels.push(sums.shape(node_count).stats(crate_level, entries));
            counts.push((node_count, entries));
        }
        let objects = self
            .iter_nodes()
            .filter(|(_, node)| node.is_leaf())
            .flat_map(|(_, node)| node.entries.iter().map(|e| &e.rect));
        TreeStats {
            height,
            num_objects: self.len(),
            data_density: density(objects),
            levels,
            avg_utilization: utilization(counts.into_iter(), self.config().max_entries),
        }
    }

    /// The per-level shape (`N_j`, `s_{j,k}`, `D_j`) of the subtree
    /// rooted at `root`, levels renumbered so its leaves are level 1, and
    /// the root's own MBR — what Eq 6 needs to price a sub-join.
    ///
    /// Every level below the root is read off the entries of the level
    /// above: a parent entry *is* its child's MBR, bit for bit, on every
    /// tree built, loaded or grown by insertion here (the traversal
    /// relies on the same fact), so the walk reads internal nodes only
    /// and never a leaf below the root. Each level sums its rectangles in
    /// the order a depth-first stack pops their nodes — the order
    /// [`RTree::subtree_stats`] defines.
    pub fn subtree_shape(&self, root: NodeId) -> SubtreeShape<N> {
        self.walk_subtree(root, |_| {})
    }

    /// Measures the statistics of the subtree rooted at `root` — the same
    /// quantities as [`RTree::stats`] restricted to that subtree, with
    /// levels renumbered so the subtree's leaves are paper level 1 and
    /// `root` itself is level `height`: [`RTree::subtree_shape`] plus one
    /// pass over the subtree's leaves for `N`, `D`, the leaf fanout and
    /// the utilization.
    pub fn subtree_stats(&self, root: NodeId) -> TreeStats {
        let (mut objects, mut data_density) = (0, density::<N>(&[]));
        let shape = self.walk_subtree(root, |leaf| {
            objects += leaf.len();
            for e in &leaf.entries {
                data_density += e.rect.measure();
            }
        });
        // A level's entries are the nodes one level down — at the leaves,
        // the objects.
        let entries = |l: usize| match l {
            0 => objects,
            _ => shape.levels[l - 1].node_count,
        };
        let levels = shape.levels.iter().enumerate();
        let counts = levels.clone().map(|(l, s)| (s.node_count, entries(l)));
        TreeStats {
            height: shape.levels.len(),
            num_objects: objects,
            data_density,
            levels: levels.map(|(l, s)| s.stats(l, entries(l))).collect(),
            avg_utilization: utilization(counts, self.config().max_entries),
        }
    }

    /// The one walk behind [`RTree::subtree_shape`] and
    /// [`RTree::subtree_stats`]: a depth-first stack over the subtree's
    /// internal nodes, summing each one's entry rectangles into the level
    /// below in the order the children would pop (last entry first).
    /// `leaf` sees every leaf in that pop order — a leaf root included —
    /// and is the only thing that reads one.
    fn walk_subtree(&self, root: NodeId, mut leaf: impl FnMut(&Node<N>)) -> SubtreeShape<N> {
        let top = self.node(root);
        let height = top.level as usize + 1;
        let mbr = top.mbr();
        let mut sums: Vec<LevelSums<N>> = (0..height).map(|_| LevelSums::new()).collect();
        if let Some(mbr) = &mbr {
            sums[height - 1].add(mbr);
        }
        let mut stack = Vec::new();
        if top.is_leaf() {
            leaf(top);
        } else {
            stack.push(root);
        }
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            let below = &mut sums[node.level as usize - 1];
            for e in node.entries.iter().rev() {
                below.add(&e.rect);
                if node.level == 1 {
                    leaf(self.node(e.child.node()));
                }
            }
            if node.level > 1 {
                stack.extend(node.entries.iter().map(|e| e.child.node()));
            }
        }
        let levels = sums.iter().enumerate();
        SubtreeShape {
            mbr,
            // The root level holds one node, rectangle or not.
            levels: levels
                .map(|(l, s)| s.shape(if l + 1 == height { 1 } else { s.rects }))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::node::ObjectId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::{Point, Rect};

    fn build_uniform(n: usize, side: f64, seed: u64) -> RTree<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RTree::<2>::new(RTreeConfig::with_capacity(16));
        for i in 0..n {
            let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            tree.insert(Rect::centered(c, [side, side]), ObjectId(i as u32));
        }
        tree
    }

    #[test]
    fn stats_shape_matches_height() {
        let tree = build_uniform(500, 0.01, 1);
        let s = tree.stats();
        assert_eq!(s.height, tree.height());
        assert_eq!(s.levels.len(), s.height);
        assert_eq!(s.num_objects, 500);
        // Root level has exactly one node.
        assert_eq!(s.levels.last().unwrap().node_count, 1);
        // Leaf level has the most nodes.
        assert!(s.levels[0].node_count >= s.levels.last().unwrap().node_count);
    }

    #[test]
    fn level_accessor_is_one_based() {
        let tree = build_uniform(300, 0.01, 2);
        let s = tree.stats();
        assert!(s.level(0).is_none());
        assert_eq!(s.level(1).unwrap().level, 1);
        assert_eq!(s.level(s.height).unwrap().node_count, 1);
        assert!(s.level(s.height + 1).is_none());
    }

    #[test]
    fn data_density_matches_construction() {
        // 400 squares of side 0.02 → density ≈ 400 · 4e-4 = 0.16 (squares
        // protruding past the workspace edge still count fully, matching
        // the D = N·avg_area convention).
        let tree = build_uniform(400, 0.02, 3);
        let s = tree.stats();
        assert!(
            (s.data_density - 0.16).abs() < 0.01,
            "density {}",
            s.data_density
        );
    }

    #[test]
    fn node_density_grows_toward_root() {
        // Node rectangles higher in the tree cover more space, so D_j
        // increases with j (Eq 5's behaviour).
        let tree = build_uniform(2000, 0.005, 4);
        let s = tree.stats();
        assert!(s.height >= 3);
        for w in s.levels.windows(2) {
            // Tolerate small non-monotonicity at the root (single node).
            if w[1].node_count > 1 {
                assert!(
                    w[1].density > w[0].density * 0.8,
                    "density should grow with level: {} -> {}",
                    w[0].density,
                    w[1].density
                );
            }
        }
    }

    #[test]
    fn avg_utilization_reasonable() {
        let tree = build_uniform(2000, 0.005, 5);
        let s = tree.stats();
        assert!(
            (0.5..=1.0).contains(&s.avg_utilization),
            "utilization {}",
            s.avg_utilization
        );
    }

    #[test]
    fn subtree_stats_of_root_match_whole_tree() {
        let tree = build_uniform(1200, 0.008, 7);
        let whole = tree.stats();
        let sub = tree.subtree_stats(tree.root_id());
        assert_eq!(sub.height, whole.height);
        assert_eq!(sub.num_objects, whole.num_objects);
        assert_eq!(sub.levels.len(), whole.levels.len());
        for (s, w) in sub.levels.iter().zip(&whole.levels) {
            assert_eq!(s.level, w.level);
            assert_eq!(s.node_count, w.node_count);
            // The two walks visit nodes in different orders, so float
            // sums agree only up to rounding.
            for (a, b) in s.avg_extents.iter().zip(&w.avg_extents) {
                assert!((a - b).abs() < 1e-9);
            }
            assert!((s.density - w.density).abs() < 1e-9);
            assert!((s.avg_fanout - w.avg_fanout).abs() < 1e-12);
        }
        assert!((sub.data_density - whole.data_density).abs() < 1e-9);
        assert!((sub.avg_utilization - whole.avg_utilization).abs() < 1e-12);
    }

    #[test]
    fn subtree_stats_partition_the_objects() {
        let tree = build_uniform(1500, 0.008, 8);
        assert!(tree.height() >= 2);
        let root = tree.node(tree.root_id());
        let mut total = 0usize;
        for entry in &root.entries {
            let sub = tree.subtree_stats(entry.child.node());
            assert_eq!(sub.height, tree.height() - 1);
            assert_eq!(sub.levels.len(), sub.height);
            assert_eq!(sub.levels.last().unwrap().node_count, 1);
            assert!(sub.num_objects > 0);
            total += sub.num_objects;
        }
        assert_eq!(total, 1500, "children's subtrees must partition the data");
    }

    /// `subtree_stats` as it was before it read levels off parent
    /// entries: every node's own MBR, grouped by level in stack pop
    /// order, and the object rectangles collected, then summed.
    fn subtree_stats_reference<const N: usize>(tree: &RTree<N>, root: NodeId) -> TreeStats {
        let max_entries = tree.config().max_entries;
        let height = tree.node(root).level as usize + 1;
        let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); height];
        let mut frontier = vec![root];
        while let Some(id) = frontier.pop() {
            let node = tree.node(id);
            by_level[node.level as usize].push(id);
            if !node.is_leaf() {
                frontier.extend(node.entries.iter().map(|e| e.child.node()));
            }
        }
        let (mut levels, mut total_entries, mut total_nodes) = (Vec::new(), 0, 0);
        let mut object_rects = Vec::new();
        for (crate_level, ids) in by_level.iter().enumerate() {
            let rects: Vec<_> = ids.iter().filter_map(|&id| tree.node(id).mbr()).collect();
            let entries: usize = ids.iter().map(|&id| tree.node(id).len()).sum();
            total_entries += entries;
            total_nodes += ids.len();
            if crate_level == 0 {
                for &id in ids {
                    object_rects.extend(tree.node(id).entries.iter().map(|e| e.rect));
                }
            }
            let mut avg = vec![0.0; N];
            for r in &rects {
                for (k, a) in avg.iter_mut().enumerate() {
                    *a += r.extent(k);
                }
            }
            if !rects.is_empty() {
                for a in avg.iter_mut() {
                    *a /= rects.len() as f64;
                }
            }
            levels.push(LevelStats {
                level: crate_level + 1,
                node_count: ids.len(),
                avg_extents: avg,
                density: density(rects.iter()),
                avg_fanout: if ids.is_empty() {
                    0.0
                } else {
                    entries as f64 / ids.len() as f64
                },
            });
        }
        TreeStats {
            height,
            num_objects: object_rects.len(),
            data_density: density(object_rects.iter()),
            levels,
            avg_utilization: if total_nodes == 0 {
                0.0
            } else {
                total_entries as f64 / (total_nodes * max_entries) as f64
            },
        }
    }

    /// The bits of every number in `s`, so `assert_eq!` tells `0.0` from
    /// `-0.0`.
    fn bits(s: &TreeStats) -> (Vec<u64>, Vec<usize>) {
        let mut floats = vec![s.data_density.to_bits(), s.avg_utilization.to_bits()];
        let mut counts = vec![s.height, s.num_objects];
        for l in &s.levels {
            floats.extend(l.avg_extents.iter().map(|e| e.to_bits()));
            floats.extend([l.density.to_bits(), l.avg_fanout.to_bits()]);
            counts.extend([l.level, l.node_count]);
        }
        (floats, counts)
    }

    /// Every node of `tree`: `subtree_stats` is the reference bit for
    /// bit, and `subtree_shape` is its levels and the root's MBR.
    fn assert_pinned<const N: usize>(tree: &RTree<N>) {
        for (id, node) in tree.iter_nodes() {
            let want = subtree_stats_reference(tree, id);
            let got = tree.subtree_stats(id);
            assert_eq!(bits(&got), bits(&want), "node {id:?}");
            let shape = tree.subtree_shape(id);
            assert_eq!(shape.mbr, node.mbr());
            assert_eq!(shape.levels.len(), want.levels.len());
            for (s, w) in shape.levels.iter().zip(&want.levels) {
                assert_eq!(s.node_count, w.node_count);
                assert_eq!(s.density.to_bits(), w.density.to_bits());
                let extents: Vec<u64> = s.avg_extents.iter().map(|e| e.to_bits()).collect();
                let want: Vec<u64> = w.avg_extents.iter().map(|e| e.to_bits()).collect();
                assert_eq!(extents, want);
            }
        }
    }

    fn random_items<const N: usize>(n: usize, side: f64, seed: u64) -> Vec<(Rect<N>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0)));
                let s = std::array::from_fn(|_| rng.gen_range(0.0..side));
                (Rect::centered(c, s), ObjectId(i as u32))
            })
            .collect()
    }

    fn pin_every_kind_of_tree<const N: usize>(n: usize, side: f64) {
        let items = random_items::<N>(n, side, 40 + N as u64);
        let config = RTreeConfig::paper(N);
        let packed = RTree::bulk_load(config, items.clone(), crate::BulkLoad::Str, 0.67);
        let mut inserted = RTree::new(config);
        for &(r, id) in &items {
            inserted.insert(r, id);
        }
        let mut store = sjcm_storage::InMemoryPageStore::with_default_page_size();
        let handle = inserted.save(&mut store).unwrap();
        let loaded = RTree::<N>::load(&store, handle, config).unwrap();
        for tree in [&packed, &inserted, &loaded] {
            assert!(tree.height() >= 3, "{N}-D tree of height {}", tree.height());
            assert_pinned(tree);
        }
        assert_pinned(&RTree::<N>::new(config));
    }

    #[test]
    fn subtree_stats_and_shape_are_the_reference_bit_for_bit() {
        pin_every_kind_of_tree::<1>(6_000, 0.001);
        pin_every_kind_of_tree::<2>(6_000, 0.01);
        pin_every_kind_of_tree::<3>(3_000, 0.05);
    }

    #[test]
    fn whole_tree_stats_sum_objects_in_place() {
        // `stats` once collected every object rectangle before summing;
        // it now sums them as it meets them, in the same order.
        let tree = build_uniform(2_000, 0.005, 9);
        let collected = density(tree.objects().iter().map(|(r, _)| r).collect::<Vec<_>>());
        assert_eq!(tree.stats().data_density.to_bits(), collected.to_bits());
    }

    #[test]
    fn leaf_fanout_counts_objects() {
        let tree = build_uniform(100, 0.01, 6);
        let s = tree.stats();
        let leaf = s.level(1).unwrap();
        let total = leaf.avg_fanout * leaf.node_count as f64;
        assert!((total - 100.0).abs() < 1e-9);
    }
}
