//! The traversal the engine's stack walk replaced, kept as the reference
//! it is pinned to — the way `RTree::query_desc_scalar` is kept for
//! `query_scan`: a recursion over the descent step as it was, which
//! returned a fresh vector of child pairs per node pair, recomputed both
//! nodes' MBRs for the restriction and routed every object pair back
//! through the [`Child`] enum. `JoinSession::reference_traversal` puts
//! every engine of a run on it; the tests below run each scheduler,
//! kernel, predicate and window placement both ways and require the
//! same pairs, per-level tallies and recorded access lanes.

use crate::engine::Engine;
use crate::executor::{JoinConfig, JoinPredicate, MatchKernel};
use sjcm_core::join::JoinWindows;
use sjcm_geom::{mbr_of, OverlapMask, Rect, RectBatch};
use sjcm_rtree::{Child, Node, NodeId, RTree};

impl<const N: usize> Engine<'_, N> {
    /// The SJ recursion `Engine::visit` replaced, from node pair
    /// `(n1, n2)` down.
    pub(crate) fn visit_reference(&mut self, n1: NodeId, n2: NodeId) {
        let mut scratch = Scratch::default();
        let children = child_pairs(
            self.r1,
            self.r2,
            (n1, n2),
            &self.config,
            &self.windows,
            &mut scratch,
        );
        for pair in children {
            match pair {
                (Child::Object(o1), Child::Object(o2)) => self.emit(o1, o2),
                (c1, c2) => {
                    let (c1, c2) = (c1.node(), c2.node());
                    if self.charge(c1, c2) {
                        self.visit_reference(c1, c2);
                    }
                }
            }
        }
    }
}

/// The matching buffers as they were: both candidate lists copied out
/// of the nodes, then R1's transposed into the batch.
#[derive(Default)]
struct Scratch<const N: usize> {
    entries1: Vec<(Rect<N>, Child)>,
    entries2: Vec<(Rect<N>, Child)>,
    batch1: RectBatch<N>,
    mask: OverlapMask,
}

/// The one descent step of SJ (\[BKS93\] Figure 2): the matched child
/// pairs of node pair `(n1, n2)`, in match order, for all four arms
/// over the pair's leaf-ness. Two leaves yield object pairs, two
/// internal nodes yield node pairs; when only one side is a leaf it is
/// pinned — paired, as a node, with every child of the other side that
/// meets its MBR — so the taller tree keeps descending against it. What
/// is done with each pair (emit, charge and recurse, queue as a work
/// unit) is the caller's business; which pairs there are is decided
/// here and nowhere else — the query windows included: an entry of a
/// windowed tree that misses its window is in no pair, at any level, so
/// the traversal never enters a subtree the window excludes and the
/// object pairs that come out are exactly the unwindowed join's whose
/// windowed objects meet their windows, in the unwindowed order.
fn child_pairs<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    (n1_id, n2_id): (NodeId, NodeId),
    config: &JoinConfig,
    windows: &JoinWindows<N>,
    scratch: &mut Scratch<N>,
) -> Vec<(Child, Child)> {
    let (n1, n2) = (r1.node(n1_id), r2.node(n2_id));
    let (pin1, pin2) = (Child::Node(n1_id), Child::Node(n2_id));
    let [w1, w2] = windows;
    match (n1.is_leaf(), n2.is_leaf()) {
        (true, true) | (false, false) => match_entries(n1, n2, config, windows, scratch),
        (false, true) => pinned_children((n1, w1), (n2, w2), config, scratch, |c1| (c1, pin2)),
        (true, false) => pinned_children((n2, w2), (n1, w1), config, scratch, |c2| (pin1, c2)),
    }
}

/// The height-mismatch arms of [`child_pairs`]: `pair(child)` for every
/// child of `node` whose rectangle satisfies the predicate against the
/// MBR of the single `pinned` leaf (and meets `node`'s window, if its
/// tree has one), in entry order. A windowed pinned leaf stands in with
/// the MBR of its entries that meet the window — what is left of it for
/// this query. The batched kernel and the scalar filter agree exactly —
/// both predicates are symmetric, so one-vs-many masking is just the
/// scalar loop with the comparisons vectorized.
fn pinned_children<const N: usize>(
    (node, window): (&Node<N>, &Option<Rect<N>>),
    (pinned, pinned_window): (&Node<N>, &Option<Rect<N>>),
    config: &JoinConfig,
    scratch: &mut Scratch<N>,
    pair: impl Fn(Child) -> (Child, Child),
) -> Vec<(Child, Child)> {
    let bound = match pinned_window {
        None => pinned.mbr(),
        Some(w) => mbr_of(
            pinned
                .entries
                .iter()
                .map(|e| e.rect)
                .filter(|r| r.intersects(w)),
        ),
    };
    let Some(mbr) = bound else {
        return Vec::new();
    };
    let (entries, predicate) = (&node.entries, config.predicate);
    let in_window = |r: &Rect<N>| window.as_ref().is_none_or(|w| r.intersects(w));
    match config.kernel {
        MatchKernel::Scalar => entries
            .iter()
            .filter(|e| predicate.holds(&e.rect, &mbr) && in_window(&e.rect))
            .map(|e| pair(e.child))
            .collect(),
        MatchKernel::Batched => {
            let Scratch { batch1, mask, .. } = scratch;
            batch1.clear();
            batch1.extend(entries.iter().map(|e| e.rect));
            match predicate {
                JoinPredicate::Overlap => batch1.overlap_mask(&mbr, 0, batch1.len(), mask),
                JoinPredicate::WithinDistance(eps) => {
                    batch1.within_mask(&mbr, eps, 0, batch1.len(), mask)
                }
            }
            mask.iter_set()
                .filter(|&i| in_window(&entries[i].rect))
                .map(|i| pair(entries[i].child))
                .collect()
        }
    }
}

/// Both nodes' entries restricted against the other node's MBR (or
/// against the MBR of the window survivors), then Figure 2's loops.
fn match_entries<const N: usize>(
    n1: &Node<N>,
    n2: &Node<N>,
    config: &JoinConfig,
    [w1, w2]: &JoinWindows<N>,
    scratch: &mut Scratch<N>,
) -> Vec<(Child, Child)> {
    let (Some(m1), Some(m2)) = (n1.mbr(), n2.mbr()) else {
        return Vec::new();
    };
    let predicate = config.predicate;
    let restrict = |node: &Node<N>,
                    other: &Rect<N>,
                    window: &Option<Rect<N>>,
                    out: &mut Vec<(Rect<N>, Child)>| {
        out.clear();
        let matching = node
            .entries
            .iter()
            .filter(|e| predicate.holds(&e.rect, other))
            .map(|e| (e.rect, e.child));
        match window {
            None => out.extend(matching),
            Some(w) => out.extend(matching.filter(|(r, _)| r.intersects(w))),
        }
    };
    let survivors = |list: &[(Rect<N>, Child)]| mbr_of(list.iter().map(|e| e.0));
    restrict(n1, &m2, w1, &mut scratch.entries1);
    let bound1 = if w1.is_some() {
        survivors(&scratch.entries1)
    } else {
        Some(m1)
    };
    let Some(bound1) = bound1 else {
        return Vec::new();
    };
    restrict(n2, &bound1, w2, &mut scratch.entries2);
    if w2.is_some() {
        let Some(bound2) = survivors(&scratch.entries2) else {
            return Vec::new();
        };
        scratch
            .entries1
            .retain(|(r, _)| predicate.holds(r, &bound2));
    }
    if scratch.entries1.is_empty() || scratch.entries2.is_empty() {
        return Vec::new();
    }
    match config.kernel {
        MatchKernel::Scalar => {
            let mut out = Vec::new();
            // Figure 2: R2's entries drive the outer loop.
            for (r2, c2) in &scratch.entries2 {
                for (r1, c1) in &scratch.entries1 {
                    if predicate.holds(r1, r2) {
                        out.push((*c1, *c2));
                    }
                }
            }
            out
        }
        MatchKernel::Batched => {
            // Same loops, inner loop vectorized: batch R1's candidates
            // once, test each R2 candidate against all of them.
            // Ascending mask bits reproduce the inner loop's entry order.
            let Scratch {
                entries1,
                entries2,
                batch1,
                mask,
            } = scratch;
            batch1.clear();
            batch1.extend(entries1.iter().map(|e| e.0));
            let mut out = Vec::new();
            for (r2, c2) in entries2.iter() {
                match predicate {
                    JoinPredicate::Overlap => batch1.overlap_mask(r2, 0, batch1.len(), mask),
                    JoinPredicate::WithinDistance(eps) => {
                        batch1.within_mask(r2, eps, 0, batch1.len(), mask)
                    }
                }
                for i in mask.iter_set() {
                    out.push((entries1[i].1, *c2));
                }
            }
            out
        }
    }
}

mod tests {
    use crate::executor::{JoinConfig, JoinPredicate, MatchKernel, Side};
    use crate::session::{JoinSession, Scheduler};
    use sjcm_geom::{Point, Rect};
    use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
    use sjcm_storage::{
        digest_term, encode_page, AccessKind, AccessStats, DiskNode, FlightRecorder,
        InMemoryPageStore, NodePage, PageId, PageStore,
    };
    use std::collections::BTreeMap;

    /// One `(corr, tree)` lane's accesses, in order.
    type Lane = Vec<(PageId, u8, AccessKind)>;

    /// Everything about a run that the traversal order decides.
    #[derive(Debug, PartialEq)]
    struct Run {
        pairs: Vec<(ObjectId, ObjectId)>,
        pair_count: u64,
        stats: [AccessStats; 2],
        lanes: BTreeMap<(u32, u8), Lane>,
    }

    fn run(
        r1: &RTree<2>,
        r2: &RTree<2>,
        config: JoinConfig,
        scheduler: Scheduler,
        windows: [Option<Rect<2>>; 2],
        reference: bool,
    ) -> Run {
        let recorder = FlightRecorder::enabled();
        let mut session = JoinSession::new(r1, r2)
            .config(config)
            .scheduler(scheduler)
            .record(&recorder);
        for (side, window) in [Side::R1, Side::R2].into_iter().zip(windows) {
            if let Some(w) = window {
                session = session.window(side, w);
            }
        }
        if reference {
            session = session.reference_traversal();
        }
        let result = session.run().expect("ungoverned join cannot fail").result;
        let mut events = recorder.drain();
        events.sort_by_key(|e| e.tick);
        let mut lanes: BTreeMap<_, Lane> = BTreeMap::new();
        for e in events {
            lanes
                .entry((e.corr, e.tree))
                .or_default()
                .push((e.page, e.level, e.kind));
        }
        Run {
            pairs: result.pairs,
            pair_count: result.pair_count,
            stats: [result.stats1, result.stats2],
            lanes,
        }
    }

    const SCHEDULERS: [Scheduler; 3] = [
        Scheduler::Sequential,
        Scheduler::CostGuided { threads: 3 },
        Scheduler::RoundRobin { threads: 2 },
    ];
    const KERNELS: [MatchKernel; 2] = [MatchKernel::Scalar, MatchKernel::Batched];

    /// Every scheduler × kernel × predicate × window placement (none,
    /// R1, R2, both), the stack walk against the reference. The
    /// predicates are the overlap and a distance join at each of
    /// `epsilons`.
    fn assert_same_as_reference(r1: &RTree<2>, r2: &RTree<2>, epsilons: &[f64]) {
        let w1 = Rect::new([0.1, 0.15], [0.6, 0.55]).unwrap();
        let w2 = Rect::new([0.3, 0.2], [0.85, 0.7]).unwrap();
        let placements = [
            [None, None],
            [Some(w1), None],
            [None, Some(w2)],
            [Some(w1), Some(w2)],
        ];
        for scheduler in SCHEDULERS {
            for kernel in KERNELS {
                let distances = epsilons
                    .iter()
                    .map(|&eps| JoinPredicate::WithinDistance(eps));
                for predicate in [JoinPredicate::Overlap].into_iter().chain(distances) {
                    for windows in placements {
                        let config = JoinConfig {
                            predicate,
                            kernel,
                            ..JoinConfig::default()
                        };
                        let got = run(r1, r2, config, scheduler, windows, false);
                        let want = run(r1, r2, config, scheduler, windows, true);
                        assert!(
                            got == want,
                            "{scheduler:?} {kernel:?} {predicate:?} windows {windows:?}"
                        );
                    }
                }
            }
        }
    }

    fn items(n: usize, density: f64, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
        sjcm_datagen::uniform::generate::<2>(sjcm_datagen::uniform::UniformConfig::new(
            n, density, seed,
        ))
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, ObjectId(i as u32)))
        .collect()
    }

    fn packed(n: usize, seed: u64) -> RTree<2> {
        RTree::bulk_load(
            RTreeConfig::paper(2),
            items(n, 0.5, seed),
            BulkLoad::Str,
            0.67,
        )
    }

    fn inserted(n: usize, seed: u64) -> RTree<2> {
        let mut tree = RTree::new(RTreeConfig::paper(2));
        for (r, id) in items(n, 0.5, seed) {
            tree.insert(r, id);
        }
        tree
    }

    /// The tree after a round trip through the page format, with
    /// `edit` applied to the saved pages first.
    /// `tree` saved and loaded back, its root page rewritten through
    /// `edit` in between — resealed, and loaded under the digest a save
    /// of the edited page would record.
    fn reloaded(tree: &RTree<2>, edit: impl FnOnce(&mut DiskNode<2>)) -> RTree<2> {
        let mut store = InMemoryPageStore::with_default_page_size();
        let mut handle = tree.save(&mut store).unwrap();
        let root = handle.root;
        let old = store.read(root).unwrap();
        let (_, old_sum) = NodePage::<2>::parse_sealed(&old, root).unwrap();
        let mut node = DiskNode::<2>::decode(&old).unwrap();
        edit(&mut node);
        let mut page = vec![0; store.page_size()];
        let new_sum = encode_page(node.level, node.entries.into_iter(), &mut page).unwrap();
        store.write(root, &page).unwrap();
        handle.digest = handle
            .digest
            .wrapping_sub(digest_term(root, old_sum))
            .wrapping_add(digest_term(root, new_sum));
        RTree::load(&store, handle, *tree.config()).unwrap()
    }

    #[test]
    fn packed_60k_pair_matches_the_reference() {
        let (t1, t2) = (packed(60_000, 4242), packed(60_000, 2424));
        assert_same_as_reference(&t1, &t2, &[0.002]);
    }

    #[test]
    fn reloaded_unequal_heights_match_the_reference() {
        let tall = reloaded(&inserted(3_000, 7), |_| {});
        let short = reloaded(&inserted(300, 8), |_| {});
        assert!(tall.height() > short.height());
        let epsilons = [0.01, 0.0];
        assert_same_as_reference(&tall, &short, &epsilons);
        assert_same_as_reference(&short, &tall, &epsilons);
    }

    /// A pair two or more levels apart, built small (capacity 8), so the
    /// pinned arm pins a leaf and keeps it pinned while the taller tree
    /// descends more than one level against it; at ε = 0 and +∞ too.
    #[test]
    fn a_leaf_pinned_over_several_levels_matches_the_reference() {
        let build = |n, seed| {
            let mut tree = RTree::new(RTreeConfig::with_capacity(8));
            for (r, id) in items(n, 0.5, seed) {
                tree.insert(r, id);
            }
            tree
        };
        let (tall, short) = (build(2_000, 13), build(40, 14));
        assert!(tall.height() >= short.height() + 2);
        let epsilons = [0.01, 0.0, f64::INFINITY];
        assert_same_as_reference(&tall, &short, &epsilons);
        assert_same_as_reference(&short, &tall, &epsilons);
    }

    #[test]
    fn single_leaf_trees_match_the_reference() {
        let leaf = |seed| {
            let tree = RTree::bulk_load(
                RTreeConfig::paper(2),
                (0..5)
                    .map(|i| {
                        let c = Point::new([0.2 + 0.1 * i as f64, 0.3 + 0.05 * seed as f64]);
                        (Rect::centered(c, [0.3, 0.3]), ObjectId(i))
                    })
                    .collect(),
                BulkLoad::Str,
                0.67,
            );
            assert_eq!(tree.height(), 1);
            tree
        };
        let tall = packed(2_000, 9);
        assert_same_as_reference(&leaf(1), &leaf(2), &[0.05]);
        assert_same_as_reference(&leaf(1), &tall, &[0.05]);
        assert_same_as_reference(&tall, &leaf(2), &[0.05]);
    }

    /// Packed, inserted and loaded trees carry rectangles that *are*
    /// their children's MBRs, so only a parent entry strictly larger than
    /// its child tells a pinned arm testing the carried rectangle from
    /// one testing the pinned leaf's own MBR: the first would pair the
    /// leaf with children the second does not, and change NA.
    #[test]
    fn a_loose_parent_rectangle_changes_no_pinned_pair() {
        let tall = packed(6_000, 11);
        let short = reloaded(&packed(400, 12), |node| node.entries[0].rect = Rect::unit());
        assert!(tall.height() > short.height() && short.height() > 1);
        let root = short.node(short.root_id());
        let loose = root.entries[0];
        let child_mbr = short.node(loose.child.node()).mbr().unwrap();
        assert!(loose.rect.contains_rect(&child_mbr) && loose.rect != child_mbr);
        // R2 is the pinned side whose rectangle is carried; R1 the
        // side that carries none.
        assert_same_as_reference(&tall, &short, &[0.01]);
        assert_same_as_reference(&short, &tall, &[0.01]);
    }
}
