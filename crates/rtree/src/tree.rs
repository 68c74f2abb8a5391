//! The R-tree proper: R\*-tree insertion with forced reinsertion, and
//! window queries. Trees only grow: nothing is deleted, so no node is
//! ever freed.

use crate::config::RTreeConfig;
use crate::node::{Child, Entry, Node, NodeId, ObjectId};
use crate::split::rstar_split;
use sjcm_geom::Rect;

/// An R-tree over `N`-dimensional rectangles.
///
/// Nodes live in an arena owned by the tree, and their ids are exactly
/// `0..node_count()`; [`NodeId`]s double as simulated page ids for the
/// join crate's buffer managers. The tree is never empty structurally —
/// an empty tree has a leaf root with zero entries.
#[derive(Debug, Clone)]
pub struct RTree<const N: usize> {
    config: RTreeConfig,
    nodes: Vec<Node<N>>,
    root: NodeId,
    len: usize,
}

impl<const N: usize> RTree<N> {
    /// Creates an empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        let mut tree = Self::without_nodes(config);
        tree.root = tree.alloc(Node::new(0));
        tree
    }

    /// A tree with no nodes at all, not even a root, until the caller
    /// allocates them and sets one: the packer's starting point.
    pub(crate) fn without_nodes(config: RTreeConfig) -> Self {
        config.validate().expect("invalid R-tree configuration");
        Self {
            config,
            nodes: Vec::new(),
            root: NodeId(0),
            len: 0,
        }
    }

    /// The tree's configuration.
    #[inline]
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of stored objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no objects are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree: the number of levels, so a leaf-only tree has
    /// height 1. This matches the paper's `h` (root at level `h`, leaves
    /// at level 1) up to the crate's 0-based level convention.
    #[inline]
    pub fn height(&self) -> usize {
        self.node(self.root).level as usize + 1
    }

    /// Root node id.
    #[inline]
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Borrow a node by id. Panics on an id of no node of this tree —
    /// the join executor only holds ids handed out by this tree, so a
    /// failure here is an internal bug, not an I/O condition.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node<N> {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<N> {
        &mut self.nodes[id.0 as usize]
    }

    /// Appends `node` to the arena: its id is the next one.
    pub(crate) fn alloc(&mut self, node: Node<N>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    pub(crate) fn set_root(&mut self, id: NodeId) {
        self.root = id;
    }

    pub(crate) fn set_len(&mut self, len: usize) {
        self.len = len;
    }

    /// A tree of `len` objects from its nodes in breadth-first order:
    /// root first, the children of each level in (parent, entry) order
    /// forming the next, every internal entry naming its child's
    /// *position* in `nodes`. The nodes are renumbered in post-order from
    /// id 0, so each subtree's nodes sit together in the arena, as the
    /// join walks them: depth-first.
    pub(crate) fn from_breadth_first(config: RTreeConfig, nodes: Vec<Node<N>>, len: usize) -> Self {
        let mut tree = Self::without_nodes(config);
        /// Positions of an internal node's children; none for a leaf.
        fn children<const N: usize>(node: &Node<N>) -> impl Iterator<Item = usize> + '_ {
            let entries = if node.is_leaf() {
                &[]
            } else {
                &node.entries[..]
            };
            entries.iter().map(|e| e.child.node().0 as usize)
        }
        // Subtree sizes, children (later positions) before parents.
        let mut size = vec![1u32; nodes.len()];
        for i in (0..nodes.len()).rev() {
            size[i] += children(&nodes[i]).map(|c| size[c]).sum::<u32>();
        }
        // A subtree takes consecutive post-order ids, its children's
        // subtrees in entry order and its own node last.
        let mut id = vec![0u32; nodes.len()];
        for i in 0..nodes.len() {
            let mut first = id[i];
            for c in children(&nodes[i]) {
                id[c] = first;
                first += size[c];
            }
            id[i] = first;
        }
        tree.nodes.resize_with(nodes.len(), || Node::new(0));
        for (mut node, &own) in nodes.into_iter().zip(&id) {
            if !node.is_leaf() {
                for e in &mut node.entries {
                    e.child = Child::Node(NodeId(id[e.child.node().0 as usize]));
                }
            }
            tree.nodes[own as usize] = node;
        }
        tree.root = NodeId(id[0]);
        tree.len = len;
        tree
    }

    /// MBR of the whole data set, `None` when empty.
    pub fn mbr(&self) -> Option<Rect<N>> {
        self.node(self.root).mbr()
    }

    /// Number of nodes (the tree's size in simulated pages).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of all nodes at `level` (0 = leaf), ascending.
    pub fn node_ids_at_level(&self, level: u8) -> Vec<NodeId> {
        self.iter_nodes()
            .filter(|(_, node)| node.level == level)
            .map(|(id, _)| id)
            .collect()
    }

    /// Iterates over all nodes with their ids, `0..node_count()` in order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node<N>)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (NodeId(i as u32), node))
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts an object with the given MBR. A rectangle that fails
    /// [`Rect::is_valid`] is stored as given, in every build profile,
    /// and [`RTree::check_invariants`] reports it.
    pub fn insert(&mut self, rect: Rect<N>, id: ObjectId) {
        self.insert_entry_at(Entry::leaf(rect, id), 0);
        self.len += 1;
    }

    /// Inserts an entry so that it ends up in a node at `target_level`:
    /// level 0 for insertion, any level for forced reinsertion.
    fn insert_entry_at(&mut self, entry: Entry<N>, target_level: u8) {
        // `overflow_done[l]` records whether forced reinsertion already
        // ran at level `l` during this logical insertion (R* runs it at
        // most once per level per insertion, then splits). One flag per
        // `u8` level, so a root that grows mid-insertion needs no resize.
        let mut overflow_done = [false; 256];
        // Entries evicted by forced reinsertion; never allocated on the
        // common path where none happens.
        let mut queue: Vec<(Entry<N>, u8)> = Vec::new();
        let mut next = Some((entry, target_level));
        while let Some((e, lvl)) = next {
            debug_assert!(
                (lvl as usize) < self.height(),
                "reinsertion level {lvl} at height {}",
                self.height()
            );
            let (sibling, _) = self.insert_desc(self.root, e, lvl, &mut overflow_done, &mut queue);
            if let Some(sibling) = sibling {
                self.grow_root(sibling);
            }
            next = queue.pop();
        }
    }

    /// Recursive descent. Returns a new sibling entry when this node was
    /// split and the parent must absorb the second half, and whether the
    /// node only grew: it gained `entry`, here or below, and nothing on
    /// the path split or shed entries to forced reinsertion.
    ///
    /// A node that only grew has the MBR of its old entries and
    /// `entry.rect`, so its parent entry becomes the old rectangle
    /// unioned with `entry.rect` instead of `Node::mbr` over up to `M`
    /// entries. That is the recompute bit for bit whenever the parent
    /// entry was its child's MBR bit for bit, as in every tree this crate
    /// builds or loads from a file it wrote: `min` and `max` return one
    /// of their operands, so both pick an operand of least (greatest)
    /// value, and operands of equal value have equal bits — except `+0.0`
    /// and `-0.0`, which a tie may return either of, depending on operand
    /// order. So a coordinate where `entry.rect` ties the old rectangle at
    /// zero takes the recompute, as does a node that split or shed
    /// entries. A parent rectangle looser than its child's MBR (a
    /// hand-made file; `RTree::load` accepts one that covers the child)
    /// stays loose, and covering, until a split or reinsertion on its
    /// path recomputes it.
    fn insert_desc(
        &mut self,
        node_id: NodeId,
        entry: Entry<N>,
        target_level: u8,
        overflow_done: &mut [bool; 256],
        reinsert_queue: &mut Vec<(Entry<N>, u8)>,
    ) -> (Option<Entry<N>>, bool) {
        let node_level = self.node(node_id).level;
        let mut grew = true;
        if node_level == target_level {
            self.node_mut(node_id).entries.push(entry);
        } else {
            let rect = entry.rect;
            let idx = self.choose_subtree(node_id, &rect, target_level);
            let child_id = self.node(node_id).entries[idx].child.node();
            let (sibling, child_grew) =
                self.insert_desc(child_id, entry, target_level, overflow_done, reinsert_queue);
            grew = child_grew;
            let bound = &mut self.node_mut(node_id).entries[idx].rect;
            if grew && !ties_at_zero(bound, &rect) {
                bound.expand_to(&rect);
            } else {
                let child_mbr = self
                    .node(child_id)
                    .mbr()
                    .expect("child node cannot be empty after insert");
                self.node_mut(node_id).entries[idx].rect = child_mbr;
            }
            if let Some(sib) = sibling {
                self.node_mut(node_id).entries.push(sib);
            }
        }

        if self.node(node_id).len() <= self.config.max_entries {
            return (None, grew);
        }
        (
            self.overflow_treatment(node_id, overflow_done, reinsert_queue),
            false,
        )
    }

    /// R\* OverflowTreatment: forced reinsertion on the first overflow of
    /// a level (non-root), split otherwise.
    fn overflow_treatment(
        &mut self,
        node_id: NodeId,
        overflow_done: &mut [bool; 256],
        reinsert_queue: &mut Vec<(Entry<N>, u8)>,
    ) -> Option<Entry<N>> {
        let level = self.node(node_id).level as usize;
        if node_id != self.root && !overflow_done[level] {
            overflow_done[level] = true;
            self.forced_reinsert(node_id, reinsert_queue);
            None
        } else {
            Some(self.split_node(node_id))
        }
    }

    /// Removes the `p` entries whose centers lie farthest from the node
    /// MBR center and queues them for reinsertion at this node's level
    /// ("close reinsert": nearest-first reinsertion order, per BKSS90).
    fn forced_reinsert(&mut self, node_id: NodeId, reinsert_queue: &mut Vec<(Entry<N>, u8)>) {
        let p = self.config.reinsert_count;
        let node = self.node_mut(node_id);
        let level = node.level;
        let center = node.mbr().expect("overflowing node is non-empty").center();
        let mut by_dist: Vec<(f64, usize)> = node
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.rect.center().dist2(&center), i))
            .collect();
        // The `p` farthest entries; of equal distances at the cut the
        // lower index goes (`p ≤ M − m` is less than the `M + 1` present).
        by_dist.select_nth_unstable_by(p, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        by_dist.truncate(p);
        // The queue is a stack: pushed farthest-first (of equal distances
        // the higher index first), the nearest entry is reinserted first.
        by_dist.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut evict = vec![false; node.entries.len()];
        for &(_, i) in &by_dist {
            evict[i] = true;
            reinsert_queue.push((node.entries[i], level));
        }
        // From the back, so every hole is filled by an entry that stays.
        for i in (0..evict.len()).rev() {
            if evict[i] {
                node.entries.swap_remove(i);
            }
        }
    }

    /// Forced reinsertion as first written: three sorts, the distances
    /// recomputed in each. The reference `forced_reinsert` is tested
    /// against.
    #[cfg(test)]
    fn forced_reinsert_reference(
        &mut self,
        node_id: NodeId,
        reinsert_queue: &mut Vec<(Entry<N>, u8)>,
    ) {
        let p = self.config.reinsert_count;
        let node = self.node(node_id);
        let level = node.level;
        let center = node.mbr().expect("overflowing node is non-empty").center();
        let mut by_dist: Vec<(f64, usize)> = node
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.rect.center().dist2(&center), i))
            .collect();
        // Farthest first.
        by_dist.sort_by(|a, b| b.0.total_cmp(&a.0));
        let evict_indices: Vec<usize> = by_dist.iter().take(p).map(|&(_, i)| i).collect();
        let mut sorted_desc = evict_indices.clone();
        sorted_desc.sort_unstable_by(|a, b| b.cmp(a));
        let node = self.node_mut(node_id);
        let mut evicted: Vec<Entry<N>> = Vec::with_capacity(p);
        for idx in sorted_desc {
            evicted.push(node.entries.swap_remove(idx));
        }
        // `evicted` order is arbitrary after swap_remove; sort by distance
        // descending so that popping from the queue reinserts the nearest
        // entries first (close reinsert).
        evicted.sort_by(|a, b| {
            b.rect
                .center()
                .dist2(&center)
                .total_cmp(&a.rect.center().dist2(&center))
        });
        for e in evicted {
            reinsert_queue.push((e, level));
        }
    }

    fn split_node(&mut self, node_id: NodeId) -> Entry<N> {
        let level = self.node(node_id).level;
        let entries = std::mem::take(&mut self.node_mut(node_id).entries);
        let (g1, g2) = rstar_split(entries, self.config.min_entries);
        self.node_mut(node_id).entries = g1;
        let new_node = Node { level, entries: g2 };
        let new_mbr = new_node.mbr().expect("split group non-empty");
        let new_id = self.alloc(new_node);
        Entry::internal(new_mbr, new_id)
    }

    fn grow_root(&mut self, sibling: Entry<N>) {
        let old_root = self.root;
        let old_mbr = self.node(old_root).mbr().expect("split root is non-empty");
        let new_level = self.node(old_root).level + 1;
        let mut new_root = Node::new(new_level);
        new_root.entries.push(Entry::internal(old_mbr, old_root));
        new_root.entries.push(sibling);
        self.root = self.alloc(new_root);
    }

    /// ChooseSubtree (R\*): minimum overlap enlargement when the children
    /// are leaves, minimum area enlargement otherwise.
    fn choose_subtree(&self, node_id: NodeId, rect: &Rect<N>, target_level: u8) -> usize {
        let node = self.node(node_id);
        debug_assert!(node.level > target_level);
        let children_are_target = node.level == target_level + 1;
        let leaf_children = node.level == 1;
        if leaf_children && children_are_target {
            Self::choose_min_overlap(node, rect)
        } else {
            Self::choose_min_enlargement(node, rect).0
        }
    }

    /// The entry with the least (area enlargement, area, index), and
    /// whether every entry's measure grown to cover `rect` is finite.
    fn choose_min_enlargement(node: &Node<N>, rect: &Rect<N>) -> (usize, bool) {
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        let mut finite = true;
        for (i, e) in node.entries.iter().enumerate() {
            let area = e.rect.measure();
            let grown = e.rect.union(rect).measure();
            finite &= grown < f64::INFINITY;
            let enl = grown - area;
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        (best, finite)
    }

    /// The entry with the lexicographically smallest (overlap enlargement,
    /// area enlargement, area, index) — what `choose_min_overlap_in_order`
    /// finds by evaluating all M × (M − 1) sibling pairs, found here
    /// without most of them. Every shortcut is exact, not heuristic
    /// (DESIGN.md row 21): with finite measures all key terms are ≥ 0,
    /// because `grown ⊇ e.rect` and floating-point `min`, `max`, `−` and
    /// `×` are monotone.
    fn choose_min_overlap(node: &Node<N>, rect: &Rect<N>) -> usize {
        let entries = &node.entries;
        // Every key is at least (0, enl, area, i), so the entry with the
        // least (enl, area, i) has the least lower bound; evaluated first,
        // it usually wins and bounds the others tightly.
        let (first, finite) = Self::choose_min_enlargement(node, rect);
        if !finite {
            // An overflowing measure makes `∞ − ∞` keys, and NaN compares
            // false both ways, so the answer depends on the order of
            // evaluation: take the one in index order.
            return Self::choose_min_overlap_in_order(node, rect);
        }
        let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY, usize::MAX);
        for i in std::iter::once(first).chain(0..entries.len()) {
            if i == best.3 {
                continue;
            }
            let e = &entries[i];
            let grown = e.rect.union(rect);
            let area = e.rect.measure();
            let enl = grown.measure() - area;
            // Even with zero overlap enlargement this entry would lose.
            if (0.0, enl, area, i) >= best {
                continue;
            }
            let term = |other: &Rect<N>| {
                grown.intersection_measure(other) - e.rect.intersection_measure(other)
            };
            // One term alone bounds the sum from below, and the best entry
            // so far, lying near `rect`, tends to have a large one.
            if entries.get(best.3).is_some_and(|b| term(&b.rect) > best.0) {
                continue;
            }
            let mut overlap_delta = 0.0;
            // An entry that does not grow overlaps exactly what it did:
            // every term is x − x, a zero, with no arithmetic to do.
            if grown != e.rect {
                for (j, other) in entries.iter().enumerate() {
                    if i != j {
                        overlap_delta += term(&other.rect);
                        // The partial sum only grows. Strictly past the best
                        // complete one it has lost; equal, the tie-breaks
                        // decide.
                        if overlap_delta > best.0 {
                            break;
                        }
                    }
                }
            }
            let key = (overlap_delta, enl, area, i);
            if key < best {
                best = key;
            }
            // `first` with Δ = 0 has its key equal to its lower bound, the
            // least of all: no entry can beat it.
            if best.0 == 0.0 && best.3 == first {
                break;
            }
        }
        best.3
    }

    /// \[BKSS90\]'s ChooseSubtree as written: every entry in index order
    /// against every sibling, each key summed in full and kept only if
    /// strictly less than the best so far, which starts at (∞, ∞, ∞) on
    /// entry 0. What runs for nodes whose measures overflow, and the
    /// reference `choose_min_overlap` is tested against.
    fn choose_min_overlap_in_order(node: &Node<N>, rect: &Rect<N>) -> usize {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in node.entries.iter().enumerate() {
            let grown = e.rect.union(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in node.entries.iter().enumerate() {
                if i != j {
                    overlap_delta += grown.intersection_measure(&other.rect)
                        - e.rect.intersection_measure(&other.rect);
                }
            }
            let area = e.rect.measure();
            let key = (overlap_delta, grown.measure() - area, area);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// All objects whose MBR intersects the query window, in no
    /// particular order.
    pub fn query_window(&self, window: &Rect<N>) -> Vec<ObjectId> {
        let mut out = Vec::new();
        self.query_scan(window, &mut out, &mut |_| {});
        out
    }

    /// Window query that also reports the number of node accesses per
    /// level (index = crate level, 0 = leaf). Following the paper, the
    /// root is assumed memory-resident: the returned counts *include* the
    /// root visit at index `height-1`, and the cost-model comparison drops
    /// that top slot.
    pub fn query_window_counting(&self, window: &Rect<N>) -> (Vec<ObjectId>, Vec<u64>) {
        let mut out = Vec::new();
        let mut visits = vec![0u64; self.height()];
        self.query_scan(window, &mut out, &mut |level| {
            visits[level as usize] += 1;
        });
        (out, visits)
    }

    /// The query engine behind [`RTree::query_window`] and
    /// [`RTree::query_window_counting`]: a depth-first descent on an
    /// explicit stack that reads each entry once. Matching children are
    /// pushed in reverse, so the visit order (and `out` and `on_visit`
    /// order) is the recursive scalar descent's pre-order (asserted in
    /// tests against `query_desc_scalar`).
    fn query_scan(&self, window: &Rect<N>, out: &mut Vec<ObjectId>, on_visit: &mut impl FnMut(u8)) {
        let mut stack = vec![self.root];
        while let Some(node_id) = stack.pop() {
            let node = self.node(node_id);
            on_visit(node.level);
            let entries = node.entries.iter();
            if node.is_leaf() {
                push_meeting(out, entries, window, ObjectId(0), Child::object);
            } else {
                push_meeting(&mut stack, entries.rev(), window, node_id, Child::node);
            }
        }
    }

    /// The scalar recursive descent `query_scan` replaced — kept as the
    /// reference implementation the equivalence tests compare against.
    #[cfg(test)]
    fn query_desc_scalar(
        &self,
        node_id: NodeId,
        window: &Rect<N>,
        out: &mut Vec<ObjectId>,
        on_visit: &mut impl FnMut(u8),
    ) {
        let node = self.node(node_id);
        on_visit(node.level);
        for e in &node.entries {
            if !e.rect.intersects(window) {
                continue;
            }
            match e.child {
                Child::Object(id) => out.push(id),
                Child::Node(child) => self.query_desc_scalar(child, window, out, on_visit),
            }
        }
    }

    /// All `(rect, id)` pairs stored in the tree, by leaf scan.
    pub fn objects(&self) -> Vec<(Rect<N>, ObjectId)> {
        let mut out = Vec::with_capacity(self.len);
        for (_, node) in self.iter_nodes() {
            if node.is_leaf() {
                for e in &node.entries {
                    out.push((e.rect, e.child.object()));
                }
            }
        }
        out
    }
}

/// `id(e.child)` for each of `entries` that meets `window`
/// ([`Rect::intersects`]), appended to `out` in order without a branch:
/// every id is written at the next slot, which advances only past a
/// match. `pad` fills the slots first and is never kept.
#[inline(always)]
fn push_meeting<'a, const N: usize, T: Copy>(
    out: &mut Vec<T>,
    entries: impl ExactSizeIterator<Item = &'a Entry<N>>,
    window: &Rect<N>,
    pad: T,
    id: impl Fn(Child) -> T,
) {
    let mut next = out.len();
    out.resize(next + entries.len(), pad);
    for e in entries {
        out[next] = id(e.child);
        next += usize::from(e.rect.intersects(window));
    }
    out.truncate(next);
}

/// `true` when `a` and `b` have a low or a high coordinate both equal to
/// zero: the one tie of `min`/`max` whose result's bits depend on operand
/// order, `+0.0` against `-0.0`.
fn ties_at_zero<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> bool {
    (0..N).any(|k| (a.lo_k(k) == 0.0 && b.lo_k(k) == 0.0) || (a.hi_k(k) == 0.0 && b.hi_k(k) == 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> RTreeConfig {
        RTreeConfig::with_capacity(8)
    }

    fn random_rects(n: usize, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx: f64 = rng.gen_range(0.0..1.0);
                let cy: f64 = rng.gen_range(0.0..1.0);
                let w: f64 = rng.gen_range(0.001..0.05);
                let h: f64 = rng.gen_range(0.001..0.05);
                (
                    Rect::centered(sjcm_geom::Point::new([cx, cy]), [w, h]),
                    ObjectId(i as u32),
                )
            })
            .collect()
    }

    fn brute_force_query(data: &[(Rect<2>, ObjectId)], q: &Rect<2>) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = data
            .iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|&(_, id)| id)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn empty_tree_basics() {
        let tree = RTree::<2>::new(small_config());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.mbr(), None);
        assert!(tree.query_window(&Rect::unit()).is_empty());
    }

    #[test]
    fn insert_and_query_single() {
        let mut tree = RTree::<2>::new(small_config());
        let r = Rect::new([0.2, 0.2], [0.3, 0.3]).unwrap();
        tree.insert(r, ObjectId(7));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.query_window(&Rect::unit()), vec![ObjectId(7)]);
        assert!(tree
            .query_window(&Rect::new([0.5, 0.5], [0.6, 0.6]).unwrap())
            .is_empty());
    }

    #[test]
    fn tree_grows_in_height() {
        let mut tree = RTree::<2>::new(small_config());
        for (r, id) in random_rects(200, 1) {
            tree.insert(r, id);
        }
        assert!(tree.height() >= 2, "200 objects with M=8 must split");
        assert_eq!(tree.len(), 200);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn query_matches_brute_force_rstar() {
        let data = random_rects(500, 2);
        let mut tree = RTree::<2>::new(small_config());
        for &(r, id) in &data {
            tree.insert(r, id);
        }
        tree.check_invariants().unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let cx: f64 = rng.gen_range(0.0..1.0);
            let cy: f64 = rng.gen_range(0.0..1.0);
            let q = Rect::centered(sjcm_geom::Point::new([cx, cy]), [0.2, 0.15]);
            let mut got = tree.query_window(&q);
            got.sort();
            assert_eq!(got, brute_force_query(&data, &q));
        }
    }

    #[test]
    fn counting_query_counts_root() {
        let mut tree = RTree::<2>::new(small_config());
        for (r, id) in random_rects(100, 4) {
            tree.insert(r, id);
        }
        let (_, visits) = tree.query_window_counting(&Rect::unit());
        // Whole-space query visits every node once.
        assert_eq!(visits.iter().sum::<u64>() as usize, tree.node_count());
        assert_eq!(visits[tree.height() - 1], 1, "root visited exactly once");
    }

    /// A tree's node ids are exactly `0..node_count()`, in order, however
    /// it came to be: inserted, packed into many nodes or one leaf,
    /// loaded, or loaded and then grown.
    #[test]
    fn node_ids_are_dense() {
        let data = random_rects(2_000, 31);
        let mut inserted = RTree::<2>::new(small_config());
        for &(r, id) in &data {
            inserted.insert(r, id);
        }
        let packed = RTree::bulk_load(small_config(), data.clone(), crate::BulkLoad::Str, 0.67);
        let one_leaf = RTree::bulk_load(
            small_config(),
            data[..5].to_vec(),
            crate::BulkLoad::Str,
            1.0,
        );
        assert_eq!(one_leaf.node_count(), 1);
        let mut store = sjcm_storage::InMemoryPageStore::with_default_page_size();
        let handle = packed.save(&mut store).unwrap();
        let loaded = RTree::load(&store, handle, *packed.config()).unwrap();
        let mut grown = loaded.clone();
        for (r, id) in random_rects(500, 32) {
            grown.insert(r, ObjectId(2_000 + id.0));
        }
        for (name, tree) in [
            ("inserted", &inserted),
            ("packed", &packed),
            ("one leaf", &one_leaf),
            ("loaded", &loaded),
            ("loaded, then grown", &grown),
        ] {
            let ids: Vec<u32> = tree.iter_nodes().map(|(id, _)| id.0).collect();
            assert_eq!(
                ids,
                (0..tree.node_count() as u32).collect::<Vec<_>>(),
                "{name}"
            );
            tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn duplicate_rects_are_supported() {
        let mut tree = RTree::<2>::new(small_config());
        let r = Rect::new([0.4, 0.4], [0.5, 0.5]).unwrap();
        for i in 0..50 {
            tree.insert(r, ObjectId(i));
        }
        assert_eq!(tree.query_window(&r).len(), 50);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn one_dimensional_tree() {
        let mut tree = RTree::<1>::new(small_config());
        for i in 0..100 {
            let lo = i as f64 / 100.0;
            tree.insert(Rect::new([lo], [lo + 0.005]).unwrap(), ObjectId(i));
        }
        tree.check_invariants().unwrap();
        let hits = tree.query_window(&Rect::new([0.25], [0.35]).unwrap());
        // Intervals starting in [0.245, 0.35]: i = 25..=35 (i=24 ends at
        // 0.245 < 0.25; i=25 starts 0.25).
        assert!(hits.len() >= 10 && hits.len() <= 12, "{}", hits.len());
    }

    #[test]
    fn paper_config_fill_factor_near_67_percent() {
        // The paper sets c = 67% as the typical average node capacity;
        // an insertion-built R*-tree should land in that neighbourhood.
        let data = random_rects(5000, 11);
        let mut tree = RTree::<2>::new(RTreeConfig::paper(2));
        for &(r, id) in &data {
            tree.insert(r, id);
        }
        tree.check_invariants().unwrap();
        let total_entries: usize = tree.iter_nodes().map(|(_, n)| n.len()).sum();
        let capacity = tree.node_count() * tree.config().max_entries;
        let fill = total_entries as f64 / capacity as f64;
        assert!(
            (0.55..0.95).contains(&fill),
            "average fill {fill:.2} far from the paper's c = 0.67"
        );
    }

    #[test]
    fn objects_returns_all_pairs() {
        let data = random_rects(80, 12);
        let mut tree = RTree::<2>::new(small_config());
        for &(r, id) in &data {
            tree.insert(r, id);
        }
        let mut got = tree.objects();
        got.sort_by_key(|&(_, id)| id);
        let mut want = data.clone();
        want.sort_by_key(|&(_, id)| id);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.1, w.1);
            assert_eq!(g.0, w.0);
        }
    }

    // ------------------------------------------------------------------
    // The pruned write path against its exhaustive references
    // ------------------------------------------------------------------

    use crate::testgen::{
        free_rect, hostile_new_rect, hostile_node_rects, leaf_entries, new_rect, node_rects,
        signed_zero_rect,
    };
    use proptest::prelude::*;

    fn r2(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::new(lo, hi).unwrap()
    }

    /// Both ChooseSubtree implementations on a node holding `rects`;
    /// `pick` below `rects.len()` inserts a copy of that sibling instead
    /// of `rect`.
    fn choose_both<const N: usize>(
        rects: &[Rect<N>],
        rect: Rect<N>,
        pick: usize,
    ) -> (usize, usize) {
        let rect = rects.get(pick).copied().unwrap_or(rect);
        let node = Node {
            level: 1,
            entries: leaf_entries(rects),
        };
        (
            RTree::<N>::choose_min_overlap(&node, &rect),
            RTree::<N>::choose_min_overlap_in_order(&node, &rect),
        )
    }

    /// What a forced reinsertion leaves in the node and what it queues,
    /// both in order.
    type Reinserted<const N: usize> = (Vec<Entry<N>>, Vec<(Entry<N>, u8)>);

    /// Both forced reinsertions on an overflowing node holding `rects`.
    fn reinsert_both<const N: usize>(rects: &[Rect<N>]) -> [Reinserted<N>; 2] {
        let config = RTreeConfig::with_capacity(rects.len() - 1);
        [false, true].map(|reference| {
            let mut tree = RTree::<N>::new(config);
            let root = tree.root;
            tree.node_mut(root).entries = leaf_entries(rects);
            let mut queue = Vec::new();
            if reference {
                tree.forced_reinsert_reference(root, &mut queue);
            } else {
                tree.forced_reinsert(root, &mut queue);
            }
            (tree.node(root).entries.clone(), queue)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn choose_min_overlap_matches_reference_2d_m50(
            rects in node_rects::<2>(50..51), rect in new_rect::<2>(), pick in 0usize..200,
        ) {
            let (got, want) = choose_both(&rects, rect, pick);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn choose_min_overlap_matches_reference_1d_m84(
            rects in node_rects::<1>(84..85), rect in new_rect::<1>(), pick in 0usize..336,
        ) {
            let (got, want) = choose_both(&rects, rect, pick);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn choose_min_overlap_matches_reference_3d(
            rects in node_rects::<3>(2..37), rect in new_rect::<3>(), pick in 0usize..144,
        ) {
            let (got, want) = choose_both(&rects, rect, pick);
            prop_assert_eq!(got, want);
        }

        // A root may hold fewer than `m` entries.
        #[test]
        fn choose_min_overlap_matches_reference_underfull_root(
            rects in node_rects::<2>(1..20), rect in new_rect::<2>(), pick in 0usize..80,
        ) {
            let (got, want) = choose_both(&rects, rect, pick);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn forced_reinsert_matches_reference(
            rects in node_rects::<2>(51..52), line in node_rects::<1>(85..86),
        ) {
            let [got, want] = reinsert_both(&rects);
            prop_assert_eq!(got, want);
            let [got, want] = reinsert_both(&line);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn choose_min_overlap_matches_reference_hostile_2d(
            rects in hostile_node_rects::<2>(1..51), rect in hostile_new_rect::<2>(),
            pick in 0usize..200,
        ) {
            let (got, want) = choose_both(&rects, rect, pick);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn choose_min_overlap_matches_reference_hostile_1d_3d(
            line in hostile_node_rects::<1>(1..85), point in hostile_new_rect::<1>(),
            boxes in hostile_node_rects::<3>(1..37), cube in hostile_new_rect::<3>(),
            pick in 0usize..200,
        ) {
            let (got, want) = choose_both(&line, point, pick);
            prop_assert_eq!(got, want);
            let (got, want) = choose_both(&boxes, cube, pick);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn forced_reinsert_matches_reference_hostile(
            rects in hostile_node_rects::<2>(51..52), boxes in hostile_node_rects::<3>(37..38),
        ) {
            let [got, want] = reinsert_both(&rects);
            prop_assert_eq!(got, want);
            let [got, want] = reinsert_both(&boxes);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn choose_min_overlap_containment_picks_first_smallest_area() {
        let inside = r2([0.5, 0.5], [0.625, 0.625]);
        let rects = [
            r2([0.0, 0.0], [0.25, 0.25]),   // does not contain it
            r2([0.0, 0.0], [1.0, 1.0]),     // contains it, area 1
            r2([0.25, 0.25], [0.75, 0.75]), // contains it, area 1/4
            r2([0.375, 0.5], [0.875, 1.0]), // contains it, area 1/4 again
            r2([0.25, 0.25], [0.75, 0.75]), // a copy of entry 2
        ];
        assert_eq!(choose_both(&rects, inside, usize::MAX), (2, 2));
        // No entry contains it: overlap enlargement decides.
        let outside = r2([0.875, 0.0], [1.0, 0.125]);
        let (got, want) = choose_both(&rects[2..], outside, usize::MAX);
        assert_eq!(got, want);
    }

    #[test]
    fn choose_min_overlap_zero_extent_entry_beats_a_containing_one() {
        // Growing the segment to the point keeps it a segment: overlap
        // enlargement 0, area enlargement 0, area 0 — less than the
        // (0, 0, 1) of the square that already contains the point.
        let point = r2([0.5, 0.5], [0.5, 0.5]);
        let rects = [
            r2([0.0, 0.0], [1.0, 1.0]),
            r2([0.125, 0.5], [0.25, 0.5]),
            r2([0.125, 0.5], [0.25, 0.5]),
        ];
        assert_eq!(choose_both(&rects, point, usize::MAX), (1, 1));
    }

    #[test]
    fn choose_min_overlap_all_terms_zero_falls_through_the_tie_breaks() {
        // Identical rects: every overlap term is x − x, every key equal.
        let same = [r2([0.25, 0.25], [0.5, 0.5]); 12];
        assert_eq!(
            choose_both(&same, r2([0.75, 0.75], [1.0, 1.0]), usize::MAX),
            (0, 0)
        );
        // Zero-extent rects overlap nothing: enlargement, then area, then
        // index decide.
        let segments = [
            r2([0.0, 0.0], [0.0, 0.5]),
            r2([0.25, 0.0], [0.25, 0.25]),
            r2([0.5, 0.0], [0.5, 0.25]),
            r2([0.75, 0.0], [0.75, 0.25]),
        ];
        let (got, want) = choose_both(&segments, r2([0.5, 0.5], [0.5, 0.75]), usize::MAX);
        assert_eq!(
            (got, want),
            (2, 2),
            "entry 2 grows along its own line: no enlargement"
        );
    }

    #[test]
    fn choose_min_overlap_keeps_a_candidate_whose_partial_sum_equals_the_best() {
        // Inserting the unit square [4,5]×[0,1]. `left` and `right` both
        // grow over it and so over `tall`'s foot: overlap enlargement 1/2
        // each. `right` has the smaller area enlargement, so it wins from
        // whichever side of `left` it sits — its partial sum *reaches*
        // the best complete one and must not be dropped for that.
        let rect = r2([4.0, 0.0], [5.0, 1.0]);
        let left = r2([1.0, 0.0], [3.5, 1.0]);
        let right = r2([5.0, 0.0], [6.0, 1.0]);
        let tall = r2([4.0, 0.0], [4.5, 8.0]);
        let tall_neighbour = r2([4.5, 2.0], [5.0, 8.0]);
        assert_eq!(
            choose_both(&[left, right, tall, tall_neighbour], rect, usize::MAX),
            (1, 1)
        );
        assert_eq!(
            choose_both(&[right, tall, tall_neighbour, left], rect, usize::MAX),
            (0, 0)
        );
        assert_eq!(
            choose_both(&[tall, left, tall_neighbour, right], rect, usize::MAX),
            (3, 3)
        );
        // A sibling in `left`'s gap pushes its sum past the best after
        // having equalled it: `left` must lose although it enlarges less.
        let left = r2([1.0, 0.0], [3.75, 1.0]);
        let right = r2([5.5, 0.0], [6.5, 1.0]);
        let gap = r2([3.75, 0.0], [4.0, 8.0]);
        assert_eq!(
            choose_both(&[right, left, tall, gap, tall_neighbour], rect, usize::MAX),
            (0, 0)
        );
        assert_eq!(
            choose_both(&[left, tall, gap, right, tall_neighbour], rect, usize::MAX),
            (3, 3)
        );
        assert_eq!(
            choose_both(&[tall, gap, right, tall_neighbour, left], rect, usize::MAX),
            (2, 2)
        );
    }

    #[test]
    fn forced_reinsert_breaks_distance_ties_like_the_reference() {
        // Four rings of equidistant entries around the center, so the cut
        // after `p` falls inside a tie and the queue holds several.
        let mut rects = Vec::new();
        for ring in 1..=4 {
            let d = f64::from(ring) / 8.0;
            for (dx, dy) in [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)] {
                let c = [0.5 + dx, 0.5 + dy];
                rects.push(r2(c, c));
            }
        }
        rects.push(r2([0.5, 0.5], [0.5, 0.5]));
        let [got, want] = reinsert_both(&rects);
        assert_eq!(got, want);
        let p = RTreeConfig::with_capacity(16).reinsert_count;
        assert_eq!((got.0.len(), got.1.len()), (17 - p, p));
    }

    // ------------------------------------------------------------------
    // Parent rectangles by union against the recompute
    // ------------------------------------------------------------------

    /// The first parent entry whose rectangle is not its child's
    /// `Node::mbr` bit for bit.
    fn inexact_parent<const N: usize>(tree: &RTree<N>) -> Option<String> {
        let bits = |r: &Rect<N>| -> Vec<(u64, u64)> {
            (0..N)
                .map(|k| (r.lo_k(k).to_bits(), r.hi_k(k).to_bits()))
                .collect()
        };
        tree.iter_nodes()
            .filter(|(_, node)| !node.is_leaf())
            .flat_map(|(id, node)| node.entries.iter().map(move |e| (id, e)))
            .find_map(|(id, e)| {
                let mbr = tree.node(e.child.node()).mbr().expect("non-empty child");
                (bits(&e.rect) != bits(&mbr)).then(|| format!("{id:?}: {:?} vs {mbr:?}", e.rect))
            })
    }

    /// Inserts `rects` at M = 8, each insert followed by the bit-exact
    /// parent check, so every union, split and forced reinsertion is
    /// covered, reinsertion at upper levels included.
    fn grow_checked<const N: usize>(rects: &[Rect<N>]) -> Result<(), String> {
        let mut tree = RTree::<N>::new(small_config());
        for (i, &r) in rects.iter().enumerate() {
            tree.insert(r, ObjectId(i as u32));
            if let Some(at) = inexact_parent(&tree) {
                return Err(format!("after insert {i}: {at}"));
            }
        }
        Ok(())
    }

    fn random_growth<const N: usize>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<Rect<N>> = (0..1_500)
            .map(|_| {
                let c = sjcm_geom::Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0)));
                Rect::centered(c, std::array::from_fn(|_| rng.gen_range(0.0..0.05)))
            })
            .collect();
        grow_checked(&rects).unwrap();
    }

    #[test]
    fn union_path_is_the_recompute_bit_for_bit_1d_2d_3d() {
        random_growth::<1>(1);
        random_growth::<2>(2);
        random_growth::<3>(3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn union_path_is_the_recompute_on_hostile_coordinates(
            plane in hostile_node_rects::<2>(100..300),
            space in hostile_node_rects::<3>(100..200),
        ) {
            prop_assert_eq!(grow_checked(&plane), Ok(()));
            prop_assert_eq!(grow_checked(&space), Ok(()));
        }
    }

    /// A tree's rectangles from any regime of the write-path tests, or
    /// all with ±0.0 corners.
    fn stored_rects<const N: usize>(len: std::ops::Range<usize>) -> BoxedStrategy<Vec<Rect<N>>> {
        let signed = prop::collection::vec(signed_zero_rect::<N>(2), len.clone());
        Box::new(prop_oneof![node_rects::<N>(len), signed])
    }

    /// The four kinds of tree the scan runs on, over `rects` with small
    /// nodes: empty, packed, insertion-built, and the latter saved then
    /// loaded (its rectangles rounded outward to `f32`).
    fn scanned_trees<const N: usize>(rects: &[Rect<N>]) -> [RTree<N>; 4] {
        let items: Vec<_> = rects
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, ObjectId(i as u32)))
            .collect();
        let mut inserted = RTree::new(small_config());
        for &(r, id) in &items {
            inserted.insert(r, id);
        }
        let mut store = sjcm_storage::InMemoryPageStore::with_default_page_size();
        let handle = inserted.save(&mut store).unwrap();
        let loaded = RTree::load(&store, handle, small_config()).unwrap();
        let packed = RTree::bulk_load(small_config(), items, crate::BulkLoad::Str, 0.67);
        [RTree::new(small_config()), packed, inserted, loaded]
    }

    /// Windows at the scan's edge cases on `tree`: `Rect::unit()`,
    /// `extra`, windows wholly outside the unit square on either side
    /// and, about the stored rectangle `pick` picks, one touching its
    /// high edge in dimension 0 from outside, a point at its high
    /// corner and a segment along its low edge.
    fn probe_windows<const N: usize>(tree: &RTree<N>, pick: usize, extra: Rect<N>) -> Vec<Rect<N>> {
        let corners = |lo: f64, hi: f64| Rect::new([lo; N], [hi; N]).unwrap();
        let mut windows = vec![Rect::unit(), extra, corners(1.5, 2.0), corners(-2.0, -1.5)];
        let stored = tree.objects();
        if let Some(&(e, _)) = stored.get(pick % stored.len().max(1)) {
            let (lo, hi) = (e.lo().coords(), e.hi().coords());
            let (mut touch_lo, mut touch_hi, mut segment_hi) = (lo, hi, lo);
            touch_lo[0] = hi[0];
            touch_hi[0] = hi[0] + 0.25;
            segment_hi[0] = hi[0];
            windows.extend([
                Rect::new(touch_lo, touch_hi).unwrap(),
                Rect::from_point(e.hi()),
                Rect::new(lo, segment_hi).unwrap(),
            ]);
        }
        windows
    }

    /// The window scan on each of `rects`' trees against the scalar
    /// pre-order descent, for every probe window: the same hits in the
    /// same order and the same visit sequence, and
    /// `query_window_counting`'s per-level visits are that sequence's
    /// tally.
    fn scan_is_the_scalar_descent<const N: usize>(
        rects: &[Rect<N>],
        pick: usize,
        extra: Rect<N>,
    ) -> Result<(), TestCaseError> {
        for tree in scanned_trees(rects) {
            for w in probe_windows(&tree, pick, extra) {
                let (mut want, mut want_levels) = (Vec::new(), Vec::new());
                tree.query_desc_scalar(tree.root, &w, &mut want, &mut |l| want_levels.push(l));
                let (mut got, mut got_levels) = (Vec::new(), Vec::new());
                tree.query_scan(&w, &mut got, &mut |l| got_levels.push(l));
                prop_assert_eq!(&got, &want, "hits in {:?}", w);
                prop_assert_eq!(&got_levels, &want_levels, "visits in {:?}", w);
                let mut visits = vec![0u64; tree.height()];
                for l in want_levels {
                    visits[l as usize] += 1;
                }
                prop_assert_eq!(tree.query_window_counting(&w), (want, visits));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // `extra` windows with ±0.0 corners, or free.
        #[test]
        fn window_scan_is_the_scalar_descent(
            line in stored_rects::<1>(0..200),
            plane in stored_rects::<2>(0..300),
            space in stored_rects::<3>(0..300),
            pick in 0usize..1_000,
            extra1 in prop_oneof![signed_zero_rect::<1>(2), free_rect::<1>(0.6)],
            extra2 in prop_oneof![signed_zero_rect::<2>(2), free_rect::<2>(0.6)],
            extra3 in prop_oneof![signed_zero_rect::<3>(2), free_rect::<3>(0.6)],
        ) {
            scan_is_the_scalar_descent(&line, pick, extra1)?;
            scan_is_the_scalar_descent(&plane, pick, extra2)?;
            scan_is_the_scalar_descent(&space, pick, extra3)?;
        }
    }

    #[test]
    fn a_tie_at_zero_takes_the_recompute() {
        // A level-1 node `mid` over two leaves: `a` at x ≥ 0.25 and `b`,
        // a segment at x = -0.0, so `mid`'s entry in the root has
        // lo x = -0.0. Inserting `rect`, whose lo x is +0.0, into `a`
        // ties that zero. The union `min(-0.0, +0.0)` and the recompute
        // `min(+0.0, -0.0)` (a's grown lo first, then b's) are equal, but
        // which zero a tie returns is not specified: Rust leaves it open,
        // and x86-64's `minsd` returns one operand by position while LLVM
        // folds constants to -0.0. So the union may differ from the
        // recompute in the sign of that zero, and would move the R* split,
        // which orders coordinates by `total_cmp`. A tie at zero takes the
        // recompute.
        let mut tree = RTree::<2>::new(small_config());
        let subtree = |tree: &mut RTree<2>, level, entries: Vec<Entry<2>>| {
            let node = Node { level, entries };
            Entry::internal(node.mbr().unwrap(), tree.alloc(node))
        };
        let a = subtree(&mut tree, 0, leaf_entries(&[r2([0.25, 0.0], [1.0, 1.0])]));
        let b = subtree(
            &mut tree,
            0,
            leaf_entries(&[Rect::new([-0.0, 5.0], [-0.0, 6.0]).unwrap()]),
        );
        let far = subtree(&mut tree, 0, leaf_entries(&[r2([9.0, 9.0], [10.0, 10.0])]));
        let mid = subtree(&mut tree, 1, vec![a, b]);
        let far = subtree(&mut tree, 1, vec![far]);
        let root = tree.root;
        *tree.node_mut(root) = Node {
            level: 2,
            entries: vec![mid, far],
        };
        tree.len = 3;
        assert!(mid.rect.lo_k(0).is_sign_negative());

        let rect = r2([0.0, 0.0], [0.25, 1.0]);
        assert!(ties_at_zero(&mid.rect, &rect));
        tree.insert(rect, ObjectId(3));
        let mid_id = mid.child.node();
        assert_eq!(tree.node(mid_id).len(), 2, "rect went into a, below mid");
        let recompute = tree.node(mid_id).mbr().unwrap();
        let mut union = mid.rect;
        union.expand_to(&rect);
        assert_eq!(union, recompute, "equal values");
        assert_eq!(union.lo_k(0), 0.0);
        assert_eq!(inexact_parent(&tree), None);
    }

    #[test]
    fn a_loose_parent_stays_covering_through_insertion() {
        let data = random_rects(3_000, 21);
        let mut tree = RTree::<2>::new(small_config());
        for &(r, id) in &data[..2_000] {
            tree.insert(r, id);
        }
        // Widen one of the root's entries by 1/16 on every side, as a
        // hand-made file may (the loader accepts any covering parent).
        let root = tree.root;
        let loose = tree.node(root).entries[0].rect;
        let (lo, hi) = (loose.lo().coords(), loose.hi().coords());
        tree.node_mut(root).entries[0].rect =
            Rect::new(lo.map(|c| c - 0.0625), hi.map(|c| c + 0.0625)).unwrap();
        assert!(inexact_parent(&tree).is_some());
        for &(r, id) in &data[2_000..] {
            tree.insert(r, id);
        }
        // Covering, at any looseness.
        tree.check_invariants_with_tolerance(f64::INFINITY).unwrap();
        let mut rng = StdRng::seed_from_u64(2121);
        for _ in 0..50 {
            let c = sjcm_geom::Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            let q = Rect::centered(c, [0.2, 0.15]);
            let mut got = tree.query_window(&q);
            got.sort();
            assert_eq!(got, brute_force_query(&data, &q));
        }
    }
}
