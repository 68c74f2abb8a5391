//! The join oracle suite: every way to run a join — each [`Scheduler`]
//! (sequential, cost-guided and round-robin at 1–4 threads) × each
//! [`MatchKernel`] × each predicate (overlap, ε-distance) in 1, 2 and 3
//! dimensions, plus [`PbsmSession`] in cells on either side of its
//! batched-sweep gate — against one
//! brute-force reference, [`nested_loop_join`] (and its distance twin
//! below). A run must return the reference's pair multiset — every
//! scheduler in the sequential traversal's emission order — and every
//! scheduler and kernel must charge the node accesses the sequential
//! scalar run charges: NA counts visited node pairs, which neither the
//! schedule nor the kernel may change.
//!
//! Inputs: uniform, clustered, trees of unequal height, nodes wide
//! enough that a node pair's candidates span two 64-bit mask words, and
//! the degenerate shapes that break naive overlap code (empty tree,
//! single entry, all-identical rectangles, zero-extent rectangles,
//! rectangles that only touch). The distance cases include ε = 0 and
//! ε = +∞, at which every pair qualifies.
//!
//! The same matrix runs once more under query windows
//! ([`JoinSession::window`]) on either side and on both: the reference
//! is the brute-force join of the objects that meet their window, and
//! the order is the unwindowed sequential join's.
//!
//! The second half holds four session-vs-session invariants no oracle
//! can state: observability on ≡ off, an armed governor that never
//! fires ≡ no governor, a governor that gates every unit and refuses
//! none ≡ no governor, and the fixed-seed 60K gate.

use sjcm_datagen::skewed::{gaussian_clusters, ClusterConfig};
use sjcm_datagen::uniform::{generate, UniformConfig};
use sjcm_geom::{unit_grid_cell, Rect};
use sjcm_join::baselines::nested_loop_join;
use sjcm_join::{
    Governor, GovernorConfig, JoinConfig, JoinObs, JoinPredicate, JoinResultSet, JoinSession,
    MatchKernel, PbsmSession, Scheduler, Side,
};
use sjcm_obs::{ProgressTracker, Tracer};
use sjcm_rtree::{BulkLoad, Node, ObjectId, RTree, RTreeConfig};
use sjcm_storage::FlightRecorder;

type Items<const N: usize> = Vec<(Rect<N>, ObjectId)>;
type Pairs = Vec<(ObjectId, ObjectId)>;

const KERNELS: [MatchKernel; 2] = [MatchKernel::Scalar, MatchKernel::Batched];

/// Sequential, then both parallel schedulers at 1–4 threads.
fn schedulers() -> Vec<Scheduler> {
    let mut all = vec![Scheduler::Sequential];
    for threads in 1..=4 {
        all.push(Scheduler::CostGuided { threads });
        all.push(Scheduler::RoundRobin { threads });
    }
    all
}

/// The distance twin of [`nested_loop_join`].
fn nested_loop_distance_join<const N: usize>(a: &Items<N>, b: &Items<N>, eps: f64) -> Pairs {
    let mut out = Vec::new();
    for &(r1, id1) in a {
        for &(r2, id2) in b {
            if r1.within_distance(&r2, eps) {
                out.push((id1, id2));
            }
        }
    }
    out
}

fn sorted(mut pairs: Pairs) -> Pairs {
    pairs.sort_unstable();
    pairs
}

fn ided<const N: usize>(rects: Vec<Rect<N>>) -> Items<N> {
    rects
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, ObjectId(i as u32)))
        .collect()
}

/// Insertion-built, eight entries a node: a few hundred objects already
/// make a tree three or four levels high.
fn tree<const N: usize>(items: &Items<N>) -> RTree<N> {
    tree_with_capacity(items, 8)
}

/// Insertion-built, `capacity` entries a node.
fn tree_with_capacity<const N: usize>(items: &Items<N>, capacity: usize) -> RTree<N> {
    let mut tree = RTree::new(RTreeConfig::with_capacity(capacity));
    for &(r, id) in items {
        tree.insert(r, id);
    }
    tree
}

fn uniform<const N: usize>(n: usize, density: f64, seed: u64) -> Items<N> {
    ided(generate::<N>(UniformConfig::new(n, density, seed)))
}

/// Gaussian clusters; two sets drawn with the same `layout` share their
/// hot spots, so the join is as skewed as the data.
fn clustered<const N: usize>(n: usize, density: f64, seed: u64, layout: u64) -> Items<N> {
    ided(gaussian_clusters::<N>(
        ClusterConfig::new(n, density, seed)
            .with_clusters(4)
            .with_center_seed(layout),
    ))
}

/// The cube `[lo, hi]^N`.
fn cube<const N: usize>(lo: f64, hi: f64) -> Rect<N> {
    Rect::new([lo; N], [hi; N]).expect("ordered finite corners")
}

/// `[lo0, hi0]` in dimension 0, `[lo, hi]` in every other.
fn slab<const N: usize>(lo0: f64, hi0: f64, lo: f64, hi: f64) -> Rect<N> {
    let (mut los, mut his) = ([lo; N], [hi; N]);
    los[0] = lo0;
    his[0] = hi0;
    Rect::new(los, his).expect("ordered finite corners")
}

/// Every scheduler × kernel on `a × b`, for the overlap predicate and
/// one distance predicate per `eps`, against the brute-force reference.
fn assert_tree_joins_match_oracle<const N: usize>(
    name: &str,
    a: &Items<N>,
    b: &Items<N>,
    eps: &[f64],
) {
    assert_trees_match_oracle(name, (a, &tree(a)), (b, &tree(b)), eps);
}

/// [`assert_tree_joins_match_oracle`] over trees already built from
/// `a` and `b`.
fn assert_trees_match_oracle<const N: usize>(
    name: &str,
    (a, ta): (&Items<N>, &RTree<N>),
    (b, tb): (&Items<N>, &RTree<N>),
    eps: &[f64],
) {
    let mut cases = vec![(JoinPredicate::Overlap, sorted(nested_loop_join(a, b)))];
    for &e in eps {
        cases.push((
            JoinPredicate::WithinDistance(e),
            sorted(nested_loop_distance_join(a, b, e)),
        ));
    }
    for (predicate, want) in cases {
        let mut reference_na = None;
        for kernel in KERNELS {
            // `schedulers()` leads with `Sequential`: its pair vector is
            // the one every other scheduler must return, order included.
            let mut sequential_pairs = None;
            for scheduler in schedulers() {
                let tag = format!("{name} {N}-d {predicate:?} {kernel:?} {scheduler:?}");
                let got = JoinSession::new(ta, tb)
                    .config(JoinConfig {
                        predicate,
                        kernel,
                        ..JoinConfig::default()
                    })
                    .scheduler(scheduler)
                    .run()
                    .expect("ungoverned join cannot fail")
                    .result;
                assert_eq!(got.pair_count, want.len() as u64, "{tag}: pair count");
                let na = (got.stats1.na_total(), got.stats2.na_total());
                assert_eq!(*reference_na.get_or_insert(na), na, "{tag}: NA per tree");
                let emitted = sequential_pairs.get_or_insert_with(|| got.pairs.clone());
                assert_eq!(&got.pairs, emitted, "{tag}: emission order");
                assert_eq!(sorted(got.pairs), want, "{tag}: pairs");
            }
        }
    }
}

/// PBSM at each of `grids` against [`nested_loop_join`]. A cell holding
/// at least 512 entries a side takes the batched sweep, a smaller one
/// the one-candidate sweep: the other cases take either by their sizes,
/// [`large_cell_case`] only the batched one.
fn assert_pbsm_matches_oracle<const N: usize>(
    name: &str,
    a: &Items<N>,
    b: &Items<N>,
    grids: &[usize],
) {
    let want = sorted(nested_loop_join(a, b));
    for &grid in grids {
        let got = PbsmSession::new(a, b, grid, 50)
            .run()
            .expect("ungoverned PBSM cannot fail");
        assert_eq!(sorted(got.result.pairs), want, "{name} {N}-d grid {grid}");
    }
}

// ---------------------------------------------------------------------
// Input families, each in 1, 2 and 3 dimensions.
// ---------------------------------------------------------------------

fn uniform_case<const N: usize>() {
    let (a, b) = (uniform::<N>(700, 0.6, 11), uniform::<N>(500, 0.4, 12));
    assert_tree_joins_match_oracle("uniform", &a, &b, &[0.02]);
    assert_pbsm_matches_oracle("uniform", &a, &b, &[1, 2, 5]);
}

#[test]
fn uniform_inputs_match_the_oracle() {
    uniform_case::<1>();
    uniform_case::<2>();
    uniform_case::<3>();
}

fn clustered_case<const N: usize>() {
    let (a, b) = (
        clustered::<N>(600, 0.3, 21, 7),
        clustered::<N>(600, 0.3, 22, 7),
    );
    assert_tree_joins_match_oracle("clustered", &a, &b, &[0.01]);
    assert_pbsm_matches_oracle("clustered", &a, &b, &[1, 2, 5]);
}

#[test]
fn clustered_inputs_match_the_oracle() {
    clustered_case::<1>();
    clustered_case::<2>();
    clustered_case::<3>();
}

/// PBSM where every active cell, at grids 1 and 2, holds at least 512
/// entries a side, so only the batched sweep runs. The cell of an
/// entry's centre is one of the cells it is replicated into, so
/// counting centres bounds each cell's entries from below.
fn large_cell_case<const N: usize>() {
    let (a, b) = (uniform::<N>(2_600, 0.3, 61), uniform::<N>(2_400, 0.3, 62));
    for side in [&a, &b] {
        let mut per_cell = vec![0usize; 2usize.pow(N as u32)];
        for (r, _) in side {
            per_cell[unit_grid_cell(&r.center().coords(), 2)] += 1;
        }
        assert!(
            per_cell.iter().all(|&n| n >= 512),
            "{N}-d cells {per_cell:?}"
        );
    }
    assert_pbsm_matches_oracle("large cells", &a, &b, &[1, 2]);
}

#[test]
fn large_cells_match_the_oracle() {
    large_cell_case::<1>();
    large_cell_case::<2>();
}

fn unequal_height_case<const N: usize>() {
    let (tall, short) = (uniform::<N>(1_200, 0.5, 31), uniform::<N>(6, 0.2, 32));
    assert!(tree(&tall).height() > tree(&short).height() + 1);
    // Both roles: the pinned (shorter) tree on either side. At ε = +∞
    // every pair qualifies.
    let eps = [0.0, 0.05, f64::INFINITY];
    assert_tree_joins_match_oracle("tall × short", &tall, &short, &eps);
    assert_tree_joins_match_oracle("short × tall", &short, &tall, &eps);
}

#[test]
fn unequal_height_trees_match_the_oracle() {
    unequal_height_case::<1>();
    unequal_height_case::<2>();
    unequal_height_case::<3>();
}

fn degenerate_case<const N: usize>() {
    let some = uniform::<N>(150, 0.5, 41);
    let none: Items<N> = Vec::new();
    let one = ided(vec![cube::<N>(0.25, 0.5)]);
    // Forty copies of one rectangle against thirty of another that
    // shares exactly one corner with it: every node MBR on either side
    // is that same rectangle, and all 1 200 pairs qualify.
    let same_a = ided(vec![cube::<N>(0.25, 0.5); 40]);
    let same_b = ided(vec![cube::<N>(0.5, 0.75); 30]);
    // Zero extent: points on the diagonal (every other one shared
    // between the sets) and, on one side, zero-width walls that some of
    // the points lie on.
    let points = |k: u32| -> Vec<Rect<N>> {
        (0..=k)
            .map(|i| cube::<N>(f64::from(i) / f64::from(k), f64::from(i) / f64::from(k)))
            .collect()
    };
    let flat_a = ided(points(32));
    let mut flat_b = points(16);
    flat_b.extend([0.25, 0.5, 0.8].map(|x| slab::<N>(x, x, 0.0, 1.0)));
    let flat_b = ided(flat_b);
    // Sixteen tiles along dimension 0 in the lower half of the other
    // dimensions against sixteen in the upper half: neighbours share a
    // face, an edge or a corner and nothing more.
    let tiles = |lo: f64, hi: f64| -> Items<N> {
        ided(
            (0..16u32)
                .map(|i| slab::<N>(f64::from(i) / 16.0, f64::from(i + 1) / 16.0, lo, hi))
                .collect(),
        )
    };
    let (tiles_a, tiles_b) = (tiles(0.0, 0.5), tiles(0.5, 1.0));

    let cases: [(&str, &Items<N>, &Items<N>); 9] = [
        ("empty × some", &none, &some),
        ("some × empty", &some, &none),
        ("empty × empty", &none, &none),
        ("one × some", &one, &some),
        ("one × one", &one, &one),
        ("identical × identical", &same_a, &same_a),
        ("identical × corner-touching", &same_a, &same_b),
        ("zero-extent", &flat_a, &flat_b),
        ("edge-touching", &tiles_a, &tiles_b),
    ];
    for (name, a, b) in cases {
        // ε = 0 is the overlap predicate by another route (d² ≤ 0); the
        // second ε reaches across exactly one tile; at ε = +∞ every pair
        // qualifies, so a mask bit set past the last candidate would be
        // an extra pair.
        assert_tree_joins_match_oracle(name, a, b, &[0.0, 0.0625, f64::INFINITY]);
        assert_pbsm_matches_oracle(name, a, b, &[1, 2, 5]);
    }
}

#[test]
fn degenerate_inputs_match_the_oracle() {
    degenerate_case::<1>();
    degenerate_case::<2>();
    degenerate_case::<3>();
}

/// The leaves of `tree`.
fn leaves<const N: usize>(tree: &RTree<N>) -> Vec<&Node<N>> {
    let (mut stack, mut out) = (vec![tree.root_id()], Vec::new());
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        if node.is_leaf() {
            out.push(node);
        } else {
            stack.extend(node.entries.iter().map(|e| e.child.node()));
        }
    }
    out
}

/// The most entries of one leaf of `t1` that meet the MBR of one leaf
/// of `t2` — how many R1 candidates the widest leaf pair restricts to.
fn widest_restriction<const N: usize>(t1: &RTree<N>, t2: &RTree<N>) -> usize {
    let mut widest = 0;
    for l2 in leaves(t2) {
        let Some(m2) = l2.mbr() else { continue };
        for l1 in leaves(t1) {
            let meeting = l1.entries.iter().filter(|e| e.rect.intersects(&m2));
            widest = widest.max(meeting.count());
        }
    }
    widest
}

/// Nodes of 130 entries: a leaf pair's candidates span more than one
/// 64-bit mask word, on both sides, so the second word and the bits past
/// the last candidate are exercised at every ε.
fn wide_node_case<const N: usize>() {
    const CAPACITY: usize = 130;
    let (a, b) = (uniform::<N>(300, 3.0, 91), uniform::<N>(260, 3.0, 92));
    let (ta, tb) = (
        tree_with_capacity(&a, CAPACITY),
        tree_with_capacity(&b, CAPACITY),
    );
    assert!(
        widest_restriction(&ta, &tb) > 64 && widest_restriction(&tb, &ta) > 64,
        "{N}-d: no leaf pair's candidates cross a mask word"
    );
    let eps = [0.0, 0.01, f64::INFINITY];
    assert_trees_match_oracle("wide nodes", (&a, &ta), (&b, &tb), &eps);
    assert_trees_match_oracle("wide nodes (swapped)", (&b, &tb), (&a, &ta), &eps);
}

#[test]
fn wide_nodes_match_the_oracle() {
    wide_node_case::<1>();
    wide_node_case::<2>();
    wide_node_case::<3>();
}

// ---------------------------------------------------------------------
// Query windows.
// ---------------------------------------------------------------------

/// A session over `ta × tb` with the given windows set.
fn windowed<'a, const N: usize>(
    ta: &'a RTree<N>,
    tb: &'a RTree<N>,
    [w1, w2]: [Option<Rect<N>>; 2],
) -> JoinSession<'a, N> {
    let mut session = JoinSession::new(ta, tb);
    if let Some(w) = w1 {
        session = session.window(Side::R1, w);
    }
    if let Some(w) = w2 {
        session = session.window(Side::R2, w);
    }
    session
}

/// Every scheduler × kernel × predicate on `a × b` under each window
/// placement: the pairs are the brute-force join of the objects that
/// meet their window, in the order the unwindowed sequential join emits
/// them; NA per tree is the same under every scheduler and kernel, and
/// at one thread so is DA.
fn assert_windowed_joins_match_oracle<const N: usize>(
    name: &str,
    a: &Items<N>,
    b: &Items<N>,
    eps: f64,
    placements: &[[Option<Rect<N>>; 2]],
) {
    let (ta, tb) = (tree(a), tree(b));
    let meeting = |items: &Items<N>, w: &Option<Rect<N>>| -> Items<N> {
        items
            .iter()
            .filter(|(r, _)| w.as_ref().is_none_or(|w| r.intersects(w)))
            .copied()
            .collect()
    };
    for &windows in placements {
        let (in1, in2) = (meeting(a, &windows[0]), meeting(b, &windows[1]));
        let (ids1, ids2): (Vec<ObjectId>, Vec<ObjectId>) = (
            in1.iter().map(|e| e.1).collect(),
            in2.iter().map(|e| e.1).collect(),
        );
        let cases = [
            (JoinPredicate::Overlap, sorted(nested_loop_join(&in1, &in2))),
            (
                JoinPredicate::WithinDistance(eps),
                sorted(nested_loop_distance_join(&in1, &in2, eps)),
            ),
        ];
        for (predicate, want) in cases {
            let config = |kernel| JoinConfig {
                predicate,
                kernel,
                ..JoinConfig::default()
            };
            // What the window may keep, in the order it must keep it.
            let unwindowed = JoinSession::new(&ta, &tb)
                .config(config(MatchKernel::Scalar))
                .run()
                .expect("ungoverned join cannot fail")
                .result;
            let kept: Pairs = unwindowed
                .pairs
                .iter()
                .filter(|(o1, o2)| ids1.contains(o1) && ids2.contains(o2))
                .copied()
                .collect();
            let mut reference = None;
            for kernel in KERNELS {
                for scheduler in schedulers() {
                    let tag =
                        format!("{name} {N}-d {windows:?} {predicate:?} {kernel:?} {scheduler:?}");
                    let got = windowed(&ta, &tb, windows)
                        .config(config(kernel))
                        .scheduler(scheduler)
                        .run()
                        .expect("ungoverned join cannot fail")
                        .result;
                    assert_eq!(got.pair_count, want.len() as u64, "{tag}: pair count");
                    assert_eq!(got.pairs, kept, "{tag}: the unwindowed order");
                    let na = (got.stats1.na_total(), got.stats2.na_total());
                    let da = (got.stats1.da_total(), got.stats2.da_total());
                    let (ref_na, ref_da) = *reference.get_or_insert((na, da));
                    assert_eq!(na, ref_na, "{tag}: NA per tree");
                    if scheduler.threads() == 1 {
                        assert_eq!(da, ref_da, "{tag}: DA per tree");
                    }
                    assert!(
                        na.0 <= unwindowed.stats1.na_total()
                            && na.1 <= unwindowed.stats2.na_total(),
                        "{tag}: a window reads no more than the whole join"
                    );
                    if windows
                        .iter()
                        .flatten()
                        .any(|w| !w.intersects(&Rect::unit()))
                    {
                        assert_eq!(na, (0, 0), "{tag}: a window off the data reads nothing");
                    }
                    assert_eq!(sorted(got.pairs), want, "{tag}: pairs");
                }
            }
        }
    }
}

/// Window placements over a seeded set of windows: each alone on R1,
/// alone on R2, and on both sides with the next one. The set holds
/// random windows of 5–60 % of the workspace per dimension, one that
/// misses the unit workspace altogether and one that covers it.
fn window_placements<const N: usize>(seed: u64) -> Vec<[Option<Rect<N>>; 2]> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut windows: Vec<Rect<N>> = (0..3)
        .map(|_| {
            let mut lo = [0.0; N];
            let mut hi = [0.0; N];
            for k in 0..N {
                let extent = rng.gen_range(0.05..0.6);
                lo[k] = rng.gen_range(0.0..1.0 - extent);
                hi[k] = lo[k] + extent;
            }
            Rect::new(lo, hi).expect("lo < hi by construction")
        })
        .collect();
    windows.push(cube::<N>(2.0, 3.0));
    windows.push(cube::<N>(-1.0, 2.0));
    let mut out = Vec::new();
    for (i, &w) in windows.iter().enumerate() {
        let next = windows[(i + 1) % windows.len()];
        out.extend([[Some(w), None], [None, Some(w)], [Some(w), Some(next)]]);
    }
    out
}

fn windowed_case<const N: usize>() {
    let placements = window_placements::<N>(81);
    let (a, b) = (uniform::<N>(400, 0.6, 82), uniform::<N>(300, 0.4, 83));
    assert_windowed_joins_match_oracle("uniform", &a, &b, 0.02, &placements);
    // Unequal heights, both roles: the pinned leaf is windowed too.
    let (tall, short) = (uniform::<N>(600, 0.5, 84), uniform::<N>(6, 0.3, 85));
    assert!(tree(&tall).height() > tree(&short).height() + 1);
    assert_windowed_joins_match_oracle("tall × short", &tall, &short, 0.05, &placements);
    assert_windowed_joins_match_oracle("short × tall", &short, &tall, 0.05, &placements);
}

#[test]
fn windowed_joins_match_the_oracle() {
    windowed_case::<1>();
    windowed_case::<2>();
    windowed_case::<3>();
}

/// Which worker steals which unit changes from run to run; the pair
/// vector must not — it is the sequential join's, every time.
#[test]
fn cost_guided_output_is_the_same_under_any_stealing() {
    let (a, b) = (
        clustered::<2>(600, 0.3, 21, 7),
        clustered::<2>(600, 0.3, 22, 7),
    );
    let (ta, tb) = (tree(&a), tree(&b));
    let run = |scheduler| {
        JoinSession::new(&ta, &tb)
            .scheduler(scheduler)
            .run()
            .expect("ungoverned join cannot fail")
            .result
            .pairs
    };
    let sequential = run(Scheduler::Sequential);
    assert!(
        sequential.windows(2).any(|w| w[0] > w[1]),
        "emission order is not (R1, R2) order"
    );
    for threads in [4, 7] {
        for repeat in 0..20 {
            assert_eq!(
                run(Scheduler::CostGuided { threads }),
                sequential,
                "{threads} threads, repeat {repeat}"
            );
        }
    }
}

/// A governor that refuses units takes their pairs out of the output
/// and moves nothing else: what is left is the sequential vector with
/// the forfeited units' runs removed, in order. Which units an expiring
/// deadline refuses depends on the clock; that the rest stays in order
/// does not.
#[test]
fn a_refusing_governor_returns_an_in_order_subsequence() {
    use std::time::Duration;
    let t1 = packed_uniform(20_000, 0.5, 71);
    let t2 = packed_uniform(20_000, 0.5, 72);
    let sequential = JoinSession::new(&t1, &t2)
        .run()
        .expect("ungoverned join cannot fail")
        .result
        .pairs;
    // The zero deadline and the cancellation point refuse units on any
    // machine (`true`); the other deadlines may or may not.
    let deadline = |d| GovernorConfig::default().with_deadline(d);
    let refusing = [
        (deadline(Duration::ZERO), true),
        (deadline(Duration::from_micros(300)), false),
        (deadline(Duration::from_millis(2)), false),
        (GovernorConfig::default().with_cancel_after_units(5), true),
    ];
    for (config, always_refuses) in refusing {
        for scheduler in schedulers() {
            let tag = format!("{config:?} {scheduler:?}");
            let gov = Governor::new(config.clone());
            let got = JoinSession::new(&t1, &t2)
                .scheduler(scheduler)
                .govern(&gov)
                .run()
                .expect("a refused unit degrades the run, it does not fail it");
            if always_refuses {
                assert!(!got.is_exact(), "{tag}");
                assert!(got.result.pairs.len() < sequential.len(), "{tag}");
            }
            let mut rest = sequential.iter();
            for pair in &got.result.pairs {
                assert!(rest.any(|p| p == pair), "{tag}: {pair:?} out of order");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Session against session.
// ---------------------------------------------------------------------

fn packed_uniform(n: usize, density: f64, seed: u64) -> RTree<2> {
    RTree::bulk_load(
        RTreeConfig::paper(2),
        uniform::<2>(n, density, seed),
        BulkLoad::Str,
        0.67,
    )
}

/// Byte-identical: the pairs in their order, the per-level NA/DA of
/// both trees and the per-worker tallies. (Steal
/// tallies are left out: which thread steals which unit is decided by
/// the OS — see `StealTally`.)
fn assert_identical(a: &JoinResultSet, b: &JoinResultSet, tag: &str) {
    assert_eq!(a.pairs, b.pairs, "{tag}: pairs (order included)");
    assert_eq!(a.pair_count, b.pair_count, "{tag}: pair_count");
    assert_eq!(a.stats1, b.stats1, "{tag}: tree-1 per-level NA/DA");
    assert_eq!(a.stats2, b.stats2, "{tag}: tree-2 per-level NA/DA");
    assert_eq!(a.workers, b.workers, "{tag}: per-worker tallies");
}

/// One recorded page access: `(corr, tree, page, level, miss)`.
type Access = (u32, u8, u32, u8, bool);

/// A recorder's events in a form two runs of the same join can be
/// compared in.
///
/// A single-threaded run is compared in drain order, which is tick
/// order. A multi-worker run is not: lanes claim blocks of ticks as the
/// OS happens to schedule their threads, so two runs of one join
/// interleave their lanes differently. What they share is the order
/// *within* each `(corr, tree)` lane — a correlation domain runs on one
/// thread, see `CorrDomain` — so the canonical form keeps that order
/// and sorts the lanes.
fn recorded(recorder: &FlightRecorder, threads: usize) -> Vec<Access> {
    let mut events = recorder.drain();
    if threads > 1 {
        events.sort_by_key(|e| (e.corr, e.tree, e.tick));
    }
    events
        .iter()
        .map(|e| (e.corr, e.tree, e.page.0, e.level, e.kind.is_miss()))
        .collect()
}

/// One recorded run of `session` under `scheduler`: the result and the
/// recorder's events in comparable form.
fn record(session: JoinSession<'_, 2>, scheduler: Scheduler) -> (JoinResultSet, Vec<Access>) {
    let recorder = FlightRecorder::enabled();
    let out = session
        .scheduler(scheduler)
        .record(&recorder)
        .run()
        .expect("nothing armed can fire");
    assert!(out.is_exact());
    (out.result, recorded(&recorder, scheduler.threads()))
}

/// Tracing and live progress must not change a result
/// or a single recorded page access.
#[test]
fn observability_on_is_identical_to_off() {
    for seed in [1u64, 2, 3] {
        let t1 = packed_uniform(900, 0.5, 2 * seed + 31);
        let t2 = packed_uniform(900, 0.5, 2 * seed + 32);
        for kernel in KERNELS {
            let config = JoinConfig {
                kernel,
                ..JoinConfig::default()
            };
            for scheduler in schedulers() {
                let tag = format!("seed {seed} {kernel:?} {scheduler:?}");
                let (off, off_events) =
                    record(JoinSession::new(&t1, &t2).config(config), scheduler);
                let obs = JoinObs {
                    tracer: Tracer::enabled(),
                    recorder: FlightRecorder::disabled(),
                    progress: ProgressTracker::enabled(),
                };
                let (on, on_events) = record(
                    JoinSession::new(&t1, &t2).config(config).observe(&obs),
                    scheduler,
                );
                assert_identical(&on, &off, &tag);
                assert_eq!(on_events, off_events, "{tag}: recorded accesses");
                assert_eq!(
                    on_events.len() as u64,
                    on.na_total(),
                    "{tag}: one event per NA"
                );
            }
        }
    }
}

/// A governor that is armed (budgeted) but generous enough that no
/// rejection, cancellation or shed ever fires must leave every scheduler
/// on its ungoverned path.
#[test]
fn generous_governor_is_identical_to_unlimited() {
    let t1 = packed_uniform(900, 0.5, 51);
    let t2 = packed_uniform(900, 0.5, 52);
    for scheduler in schedulers() {
        let tag = format!("{scheduler:?}");
        let (unlimited, unlimited_events) = record(JoinSession::new(&t1, &t2), scheduler);
        let gov = Governor::new(GovernorConfig::default().with_na_budget(f64::MAX));
        let (governed, governed_events) =
            record(JoinSession::new(&t1, &t2).govern(&gov), scheduler);
        assert_identical(&governed, &unlimited, &tag);
        assert_eq!(
            governed_events, unlimited_events,
            "{tag}: recorded accesses"
        );
    }
}

/// A governor that gates every work unit but never refuses one — a
/// cancellation point past the last unit, a deadline an hour away —
/// moves every scheduler onto the dealt executor and must change
/// nothing an ungoverned run reports: the pairs in their order and the
/// NA of each tree always; at one thread, where the deal is the
/// sequential order, also DA and every recorded access (correlation id
/// aside — the single shard is domain 1, the sequential join domain 0).
#[test]
fn gated_but_idle_governor_is_identical_to_ungoverned() {
    let single_leaf = packed_uniform(30, 0.5, 63);
    assert_eq!(single_leaf.height(), 1);
    let (tall, short) = (
        tree(&uniform::<2>(1_200, 0.5, 64)),
        packed_uniform(300, 0.5, 65),
    );
    assert!(tall.height() > short.height() && short.height() > 1);
    let cases = [
        (
            "packed",
            packed_uniform(900, 0.5, 61),
            packed_uniform(900, 0.5, 62),
        ),
        ("unequal height", tall, short),
        ("single leaf", single_leaf, packed_uniform(5_000, 0.5, 66)),
    ];
    let idle = [
        GovernorConfig::default().with_cancel_after_units(u64::MAX),
        GovernorConfig::default().with_deadline(std::time::Duration::from_secs(3600)),
    ];
    let uncorrelated = |events: Vec<Access>| -> Vec<Access> {
        events
            .into_iter()
            .map(|(_, tree, page, level, miss)| (0, tree, page, level, miss))
            .collect()
    };
    for (name, t1, t2) in &cases {
        // Both roles: the pinned (shorter) tree on either side.
        for (t1, t2) in [(t1, t2), (t2, t1)] {
            for scheduler in schedulers() {
                let (plain, plain_events) = record(JoinSession::new(t1, t2), scheduler);
                for config in &idle {
                    let tag = format!("{name} {scheduler:?} {config:?}");
                    let gov = Governor::new(config.clone());
                    let (gated, gated_events) =
                        record(JoinSession::new(t1, t2).govern(&gov), scheduler);
                    assert_eq!(gated.pair_count, plain.pair_count, "{tag}: pair count");
                    assert_eq!(gated.pairs, plain.pairs, "{tag}: pairs, in order");
                    assert_eq!(
                        (gated.stats1.na_total(), gated.stats2.na_total()),
                        (plain.stats1.na_total(), plain.stats2.na_total()),
                        "{tag}: NA per tree"
                    );
                    if scheduler.threads() == 1 {
                        assert_identical(&gated, &plain, &tag);
                        assert_eq!(
                            uncorrelated(gated_events),
                            uncorrelated(plain_events.clone()),
                            "{tag}: recorded accesses"
                        );
                    }
                }
            }
        }
    }
}

/// The fixed-seed paper-scale gate: on packed 60K × 60K trees the three
/// schedulers find the same pairs with the same node accesses, and the
/// sequential tallies are the ones recorded here.
#[test]
fn schedulers_agree_on_the_60k_workload() {
    let t1 = packed_uniform(60_000, 0.5, 4242);
    let t2 = packed_uniform(60_000, 0.5, 2424);
    let run = |scheduler| {
        JoinSession::new(&t1, &t2)
            .config(JoinConfig {
                collect_pairs: false,
                ..JoinConfig::default()
            })
            .scheduler(scheduler)
            .run()
            .expect("ungoverned join cannot fail")
            .result
    };
    let seq = run(Scheduler::Sequential);
    assert_eq!(
        (seq.pair_count, seq.na_total(), seq.da_total()),
        (119_864, 20_076, 12_631)
    );
    for scheduler in [
        Scheduler::CostGuided { threads: 4 },
        Scheduler::RoundRobin { threads: 4 },
    ] {
        let par = run(scheduler);
        assert_eq!(par.pair_count, seq.pair_count, "{scheduler:?}");
        assert_eq!(
            par.stats1.na_total(),
            seq.stats1.na_total(),
            "{scheduler:?}"
        );
        assert_eq!(
            par.stats2.na_total(),
            seq.stats2.na_total(),
            "{scheduler:?}"
        );
        if let Scheduler::CostGuided { .. } = scheduler {
            // Per-unit cold buffers can only add misses (see `parallel`).
            assert!(par.da_total() >= seq.da_total());
        }
    }
}
