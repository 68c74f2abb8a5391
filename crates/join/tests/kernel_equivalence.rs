//! The batched-kernel fidelity suite: the SoA kernels of `sjcm-geom`
//! must be **byte-identical** to the scalar predicates they replace —
//! same qualifying pairs, same order, same NA/DA tallies — on
//! adversarial coordinates (touching boundaries, ±0.0, degenerate
//! rectangles, f32-outward-rounded values straight from the page
//! format), on batches refilled over stale lanes as PBSM refills them, at
//! every length around a group and a mask-word boundary, and on the 60K
//! fixed-seed workload under every scheduler.
//!
//! The second half checks the search-space restriction in front of the
//! kernels: `matched_entries` hands them only the entries that meet the
//! other node's MBR, and must return what the unrestricted loops kept
//! here would — same pairs, same order, same nodes visited.

use proptest::prelude::*;
use sjcm_geom::{unit_grid_cell, OverlapMask, Point, Rect, RectBatch};
use sjcm_join::baselines::nested_loop_join;
use sjcm_join::{
    matched_entries, JoinConfig, JoinError, JoinPredicate, JoinResultSet, JoinSession, MatchKernel,
    MatchScratch, PbsmSession, Scheduler,
};
use sjcm_rtree::{BulkLoad, Child, Entry, Node, ObjectId, RTree, RTreeConfig};
use sjcm_storage::{DiskEntry, DiskNode, FlightRecorder, DEFAULT_PAGE_SIZE};

/// Session-API shorthand: an ungoverned, unfaulted join.
fn join(r1: &RTree<2>, r2: &RTree<2>, config: JoinConfig, scheduler: Scheduler) -> JoinResultSet {
    JoinSession::new(r1, r2)
        .config(config)
        .scheduler(scheduler)
        .run()
        .expect("ungoverned join cannot fail")
        .result
}

/// PBSM's pairs (an ungoverned session) at each of `grids` against the
/// nested loop's, as multisets.
fn pbsm_matches_nested_loop(
    left: &[(Rect<2>, ObjectId)],
    right: &[(Rect<2>, ObjectId)],
    grids: &[usize],
) -> Result<(), TestCaseError> {
    let mut want = nested_loop_join(left, right);
    want.sort_unstable();
    for &grid in grids {
        let mut got = PbsmSession::new(left, right, grid, 50)
            .run()
            .expect("ungoverned PBSM cannot fail")
            .result
            .pairs;
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "grid {}", grid);
    }
    Ok(())
}

/// `per_side` vertical segments a side, spanning `y ∈ [0, 1]` at
/// distinct `x`, left and right interleaved so that no two segments
/// meet: added to a PBSM input, they put at least `per_side / g`
/// entries a side into every cell of a grid of `g` (for `g` dividing
/// `per_side`, exactly that many), enough for the batched sweep, while
/// each sweep run over them stays short. Ids start at `first_id`.
fn segments(per_side: u32, first_id: u32) -> [Vec<(Rect<2>, ObjectId)>; 2] {
    [0.25, 0.75].map(|offset| {
        (0..per_side)
            .map(|i| {
                let x = (f64::from(i) + offset) / f64::from(per_side);
                let r = Rect::new([x, 0.0], [x, 1.0]).unwrap();
                (r, ObjectId(first_id + i))
            })
            .collect()
    })
}

/// Tags rectangles with ids from `first`.
fn tag(rects: Vec<Rect<2>>, first: u32) -> Vec<(Rect<2>, ObjectId)> {
    rects
        .into_iter()
        .zip(first..)
        .map(|(r, i)| (r, ObjectId(i)))
        .collect()
}

// ---------------------------------------------------------------------
// Adversarial-coordinate strategies.
// ---------------------------------------------------------------------

/// One coordinate, biased toward the values that break naive overlap
/// code: exact boundary/touching values, signed zero, and coordinates
/// that went through the page format's f32 outward rounding.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => 0.0f64..1.0,
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(0.25f64),
        1 => Just(0.5f64),
        1 => Just(1.0f64),
        // f32-truncated: the same value class the page decoder returns.
        2 => (0.0f64..1.0).prop_map(|x| f64::from(x as f32).clamp(0.0, 1.0)),
    ]
}

/// A rectangle from adversarial corners; ~1 in 5 is degenerate (zero
/// extent in at least one dimension).
fn rect2() -> impl Strategy<Value = Rect<2>> {
    (coord(), coord(), coord(), coord(), 0u32..5).prop_map(|(ax, ay, bx, by, degen)| {
        let (bx, by) = if degen == 0 { (ax, ay) } else { (bx, by) };
        Rect::from_corners(Point::new([ax, ay]), Point::new([bx, by]))
    })
}

/// Round-trips a rectangle through the disk page format, returning the
/// f32-outward-rounded rectangle a reader would see.
fn page_roundtrip(r: Rect<2>) -> Rect<2> {
    let node = DiskNode::<2> {
        level: 0,
        entries: vec![DiskEntry { rect: r, child: 0 }],
    };
    let bytes = node.encode(DEFAULT_PAGE_SIZE).expect("one entry fits");
    DiskNode::<2>::decode(&bytes)
        .expect("own encoding decodes")
        .entries[0]
        .rect
}

/// Batch lengths that end a batch before, on and after a group
/// boundary (8 lanes) and a mask-word boundary (64 lanes), and one that
/// spans three words.
fn batch_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(130usize),
    ]
}

/// A rectangle every predicate admits against any rectangle the
/// strategies draw: a lane left holding it that leaked into a mask
/// would read as a hit.
fn everywhere() -> Rect<2> {
    Rect::new([-1.0, -1.0], [2.0, 2.0]).unwrap()
}

/// A batch filled the way PBSM refills one: lanes first holding 130
/// copies of [`everywhere`], cleared, then a push of each of `rects`
/// whose `keep` bit is set. Returns the batch and the kept rectangles,
/// in order.
fn refilled(rects: &[Rect<2>], keep: &[bool]) -> (RectBatch<2>, Vec<Rect<2>>) {
    let kept: Vec<Rect<2>> = rects
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(r, _)| *r)
        .collect();
    let mut batch = RectBatch::new();
    batch.extend(std::iter::repeat_n(everywhere(), 130));
    batch.clear();
    batch.extend(kept.iter().copied());
    (batch, kept)
}

/// The kernels of `batch` against the scalar predicate `holds` over
/// `kept`, the batch's rectangles: every block word, the mask over the
/// whole batch and masks over sub-ranges that start off a group and a
/// word boundary.
fn assert_kernels_agree(
    batch: &RectBatch<2>,
    kept: &[Rect<2>],
    holds: impl Fn(&Rect<2>) -> bool,
    word: impl Fn(&RectBatch<2>, usize) -> u64,
    mask_of: impl Fn(&RectBatch<2>, usize, usize, &mut OverlapMask),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batch.len(), kept.len());
    for (i, r) in kept.iter().enumerate() {
        prop_assert_eq!(batch.get(i), *r, "lane {}", i);
    }
    let want: Vec<bool> = kept.iter().map(&holds).collect();
    for block in 0..kept.len().div_ceil(64) {
        let got = word(batch, block);
        for bit in 0..64 {
            let i = block * 64 + bit;
            let expect = i < kept.len() && want[i];
            prop_assert_eq!(got >> bit & 1 == 1, expect, "block {} bit {}", block, bit);
        }
    }
    let n = kept.len();
    let mut mask = OverlapMask::new();
    for (start, end) in [(0, n), (1.min(n), n), (n / 2, n), (9.min(n), 73.min(n))] {
        mask_of(batch, start, end, &mut mask);
        prop_assert_eq!(mask.len(), end - start);
        let got: Vec<usize> = mask.iter_set().collect();
        let expect: Vec<usize> = (start..end)
            .filter(|&i| want[i])
            .map(|i| i - start)
            .collect();
        prop_assert_eq!(got, expect, "range {}..{}", start, end);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn overlap_mask_agrees_with_scalar_intersects(
        q in rect2(),
        rects in prop::collection::vec(rect2(), 130..131),
        len in batch_len(),
        keep in prop::collection::vec(any::<bool>(), 130..131),
        keep_all in any::<bool>(),
    ) {
        let keep = if keep_all { vec![true; len] } else { keep[..len].to_vec() };
        let (batch, kept) = refilled(&rects[..len], &keep);
        assert_kernels_agree(
            &batch,
            &kept,
            |r| q.intersects(r),
            |b, block| b.overlap_word(&q, block),
            |b, start, end, mask| b.overlap_mask(&q, start, end, mask),
        )?;
    }

    #[test]
    fn overlap_mask_agrees_on_page_rounded_coords(
        q in rect2(),
        rects in prop::collection::vec(rect2(), 130..131),
        len in batch_len(),
        keep in prop::collection::vec(any::<bool>(), 130..131),
    ) {
        // The exact coordinate class the join sees after reading pages:
        // f32 lows rounded down, f32 highs rounded up.
        let q = page_roundtrip(q);
        let rects: Vec<Rect<2>> = rects[..len].iter().copied().map(page_roundtrip).collect();
        let (batch, kept) = refilled(&rects, &keep[..len]);
        assert_kernels_agree(
            &batch,
            &kept,
            |r| q.intersects(r),
            |b, block| b.overlap_word(&q, block),
            |b, start, end, mask| b.overlap_mask(&q, start, end, mask),
        )?;
    }

    #[test]
    fn within_mask_agrees_with_scalar_within_distance(
        q in rect2(),
        rects in prop::collection::vec(rect2(), 130..131),
        len in batch_len(),
        keep in prop::collection::vec(any::<bool>(), 130..131),
        eps in prop_oneof![Just(0.0f64), Just(f64::INFINITY), 0.0f64..0.5],
        page_rounded in any::<bool>(),
    ) {
        let prep = |r: Rect<2>| if page_rounded { page_roundtrip(r) } else { r };
        let q = prep(q);
        let rects: Vec<Rect<2>> = rects[..len].iter().copied().map(prep).collect();
        let (batch, kept) = refilled(&rects, &keep[..len]);
        assert_kernels_agree(
            &batch,
            &kept,
            |r| q.within_distance(r, eps),
            |b, block| b.within_word(&q, eps, block),
            |b, start, end, mask| b.within_mask(&q, eps, start, end, mask),
        )?;
    }

    // PBSM's pair rule, lane by lane: a candidate is emitted exactly
    // when it meets `q` and the corner `max(q.lo, lo)` — the low corner
    // of the intersection — lies in the cell.
    #[test]
    fn sweep_ref_cells_agrees_with_intersection_cell(
        q in rect2(),
        rects in prop::collection::vec(rect2(), 1..100),
        grid in 1usize..9,
    ) {
        // The sweep's input order, and the run of candidates that start
        // no later than q ends in dimension 0.
        let mut rects = rects;
        rects.sort_by(|a, b| a.lo_k(0).total_cmp(&b.lo_k(0)));
        let batch: RectBatch<2> = rects.iter().copied().collect();
        // The fused kernel trusts its sweep caller for dimension 0, so
        // compare only candidates that overlap q there.
        let meets_dim0 = |i: &usize| q.lo_k(0) <= rects[*i].hi_k(0) && rects[*i].lo_k(0) <= q.hi_k(0);
        for cell in 0..grid.pow(2) {
            let mut got = Vec::new();
            batch.sweep_ref_cells(&q, 0, q.hi_k(0), grid, cell, |i| got.push(i));
            got.retain(meets_dim0);
            let expect: Vec<usize> = (0..rects.len())
                .filter(meets_dim0)
                .filter(|&i| {
                    let corner = [0, 1].map(|k| q.lo_k(k).max(rects[i].lo_k(k)));
                    q.intersects(&rects[i]) && unit_grid_cell(&corner, grid) == cell
                })
                .collect();
            prop_assert_eq!(got, expect, "grid={} cell={} q={:?}", grid, cell, q);
        }
    }

    // Both of PBSM's sweeps on adversarial rectangles, against the
    // nested loop: as drawn, every cell holds fewer than 512 entries a
    // side and takes the one-candidate sweep; with 512 segments added a
    // side, the one cell of grid 1 takes the batched one.
    #[test]
    fn pbsm_kernels_agree_on_adversarial_inputs(
        left in prop::collection::vec(rect2(), 0..60),
        right in prop::collection::vec(rect2(), 0..60),
        grid in 1usize..6,
    ) {
        let mut left = tag(left, 0);
        let mut right = tag(right, 10_000);
        pbsm_matches_nested_loop(&left, &right, &[grid])?;
        let [pad_left, pad_right] = segments(512, 20_000);
        left.extend(pad_left);
        right.extend(pad_right);
        pbsm_matches_nested_loop(&left, &right, &[1])?;
    }
}

// ---------------------------------------------------------------------
// Executor equivalence on deterministic workloads.
// ---------------------------------------------------------------------

fn build_uniform(n: usize, density: f64, seed: u64) -> RTree<2> {
    let rects = sjcm_datagen::uniform::generate::<2>(sjcm_datagen::uniform::UniformConfig::new(
        n, density, seed,
    ));
    let items: Vec<_> = rects
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, ObjectId(i as u32)))
        .collect();
    RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.67)
}

fn with_kernel(config: JoinConfig, kernel: MatchKernel) -> JoinConfig {
    JoinConfig { kernel, ..config }
}

/// The acceptance invariant: on the 60K fixed-seed workload the batched
/// join is byte-identical to the scalar join — pair multiset, NA and DA
/// — under all three schedulers (sequential, cost-guided, round-robin).
#[test]
fn batched_join_is_byte_identical_on_60k_workload() {
    let t1 = build_uniform(60_000, 0.5, 4242);
    let t2 = build_uniform(60_000, 0.5, 2424);
    let config = JoinConfig::default();
    // Sequential: identical pairs in identical emission order.
    let seq_s = join(
        &t1,
        &t2,
        with_kernel(config, MatchKernel::Scalar),
        Scheduler::Sequential,
    );
    let seq_b = join(
        &t1,
        &t2,
        with_kernel(config, MatchKernel::Batched),
        Scheduler::Sequential,
    );
    assert_eq!(seq_s.pairs, seq_b.pairs, "sequential pairs");
    assert_eq!(seq_s.na_total(), seq_b.na_total(), "NA");
    assert_eq!(seq_s.da_total(), seq_b.da_total(), "DA");
    assert_eq!(seq_s.stats1, seq_b.stats1, "per-level stats R1");
    assert_eq!(seq_s.stats2, seq_b.stats2, "per-level stats R2");

    // Both parallel schedulers (same emission order there).
    for sched in [
        Scheduler::CostGuided { threads: 4 },
        Scheduler::RoundRobin { threads: 4 },
    ] {
        let par_s = join(&t1, &t2, with_kernel(config, MatchKernel::Scalar), sched);
        let par_b = join(&t1, &t2, with_kernel(config, MatchKernel::Batched), sched);
        assert_eq!(par_s.pairs, par_b.pairs, "{sched:?} pairs");
        assert_eq!(par_s.na_total(), par_b.na_total(), "{sched:?} NA");
        assert_eq!(par_s.da_total(), par_b.da_total(), "{sched:?} DA");
    }
}

/// Same invariant for the distance join.
#[test]
fn batched_distance_join_is_byte_identical() {
    let t1 = build_uniform(8_000, 0.3, 77);
    let t2 = build_uniform(8_000, 0.3, 78);
    let config = JoinConfig {
        predicate: JoinPredicate::WithinDistance(0.002),
        ..JoinConfig::default()
    };
    let scalar = join(
        &t1,
        &t2,
        with_kernel(config, MatchKernel::Scalar),
        Scheduler::Sequential,
    );
    let batched = join(
        &t1,
        &t2,
        with_kernel(config, MatchKernel::Batched),
        Scheduler::Sequential,
    );
    assert_eq!(scalar.pairs, batched.pairs);
    assert_eq!(scalar.na_total(), batched.na_total());
    assert_eq!(scalar.da_total(), batched.da_total());
}

/// Pinned-node traversal (trees of different heights) goes through the
/// one-vs-many kernel; it must match the scalar filter exactly.
#[test]
fn batched_join_identical_with_height_mismatch() {
    let tall = build_uniform(20_000, 0.4, 91);
    let short = build_uniform(120, 0.4, 92);
    assert!(tall.height() > short.height());
    for (a, b) in [(&tall, &short), (&short, &tall)] {
        let scalar = join(
            a,
            b,
            with_kernel(JoinConfig::default(), MatchKernel::Scalar),
            Scheduler::Sequential,
        );
        let batched = join(
            a,
            b,
            with_kernel(JoinConfig::default(), MatchKernel::Batched),
            Scheduler::Sequential,
        );
        assert_eq!(scalar.pairs, batched.pairs);
        assert_eq!(scalar.na_total(), batched.na_total());
        assert_eq!(scalar.da_total(), batched.da_total());
    }
}

// ---------------------------------------------------------------------
// Search-space restriction: `matched_entries` against unrestricted loops.
// ---------------------------------------------------------------------

const KERNELS: [MatchKernel; 2] = [MatchKernel::Scalar, MatchKernel::Batched];

fn holds(predicate: JoinPredicate, a: &Rect<2>, b: &Rect<2>) -> bool {
    match predicate {
        JoinPredicate::Overlap => a.intersects(b),
        JoinPredicate::WithinDistance(eps) => a.within_distance(b, eps),
    }
}

/// What `matched_entries` returned before it restricted its inputs:
/// every entry of `n1` against every entry of `n2`, in Figure 2's
/// nested-loop order. The kernels are byte-identical by the first half
/// of this file, so one scalar reference serves both.
fn unrestricted(n1: &Node<2>, n2: &Node<2>, predicate: JoinPredicate) -> Vec<(Child, Child)> {
    let mut out = Vec::new();
    for e2 in &n2.entries {
        for e1 in &n1.entries {
            if holds(predicate, &e1.rect, &e2.rect) {
                out.push((e1.child, e2.child));
            }
        }
    }
    out
}

fn leaf_of(rects: &[Rect<2>], first_id: u32) -> Node<2> {
    Node {
        level: 0,
        entries: rects
            .iter()
            .enumerate()
            .map(|(i, &r)| Entry::leaf(r, ObjectId(first_id + i as u32)))
            .collect(),
    }
}

/// Both kernel arms of `matched_entries` against the unrestricted
/// reference, sharing one scratch across the arms the way an engine
/// does across node pairs.
fn assert_restriction_is_exact(n1: &Node<2>, n2: &Node<2>, predicate: JoinPredicate) {
    let mut scratch = MatchScratch::new();
    let want = unrestricted(n1, n2, predicate);
    for kernel in KERNELS {
        let config = JoinConfig {
            predicate,
            kernel,
            ..JoinConfig::default()
        };
        let got = matched_entries(n1, n2, &config, &mut scratch);
        assert_eq!(got, want, "{predicate:?} {kernel:?}");
    }
}

fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
    Rect::new(lo, hi).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn restricted_matching_equals_unrestricted_loops(
        rects1 in prop::collection::vec(rect2(), 0..70),
        rects2 in prop::collection::vec(rect2(), 0..70),
        eps in prop_oneof![Just(0.0f64), Just(0.25f64), 0.0f64..0.5],
        page_rounded in any::<bool>(),
    ) {
        let prep = |rects: Vec<Rect<2>>| -> Vec<Rect<2>> {
            if page_rounded {
                rects.into_iter().map(page_roundtrip).collect()
            } else {
                rects
            }
        };
        let n1 = leaf_of(&prep(rects1), 0);
        let n2 = leaf_of(&prep(rects2), 10_000);
        assert_restriction_is_exact(&n1, &n2, JoinPredicate::Overlap);
        assert_restriction_is_exact(&n1, &n2, JoinPredicate::WithinDistance(eps));
    }

    // Trees of unequal height: the pinned arms hand a leaf and an
    // ever-deeper node of the other tree to `matched_entries` once both
    // sides are leaves, and every pruning step above must have been
    // exact for the brute-force result to come out.
    #[test]
    fn unequal_height_joins_match_brute_force(
        tall in prop::collection::vec(rect2(), 120..260),
        short in prop::collection::vec(rect2(), 1..5),
        eps in prop_oneof![Just(0.0f64), Just(0.25f64), 0.0f64..0.3],
    ) {
        let build = |rects: &[Rect<2>]| {
            let mut tree = RTree::<2>::new(RTreeConfig::with_capacity(4));
            for (i, &r) in rects.iter().enumerate() {
                tree.insert(r, ObjectId(i as u32));
            }
            tree
        };
        let (t_tall, t_short) = (build(&tall), build(&short));
        prop_assert!(t_tall.height() > t_short.height());
        for predicate in [JoinPredicate::Overlap, JoinPredicate::WithinDistance(eps)] {
            for (a, ra, b, rb) in [
                (&t_tall, &tall, &t_short, &short),
                (&t_short, &short, &t_tall, &tall),
            ] {
                let mut want = Vec::new();
                for (i, x) in ra.iter().enumerate() {
                    for (j, y) in rb.iter().enumerate() {
                        if holds(predicate, x, y) {
                            want.push((ObjectId(i as u32), ObjectId(j as u32)));
                        }
                    }
                }
                for kernel in KERNELS {
                    let config = JoinConfig { predicate, kernel, ..JoinConfig::default() };
                    let mut got = join(a, b, config, Scheduler::Sequential).pairs;
                    got.sort();
                    prop_assert_eq!(&got, &want, "{:?} {:?}", predicate, kernel);
                }
            }
        }
    }
}

#[test]
fn restriction_keeps_boundary_cases() {
    // Touching edges and corners, zero-extent entries on the other
    // node's MBR boundary, and entries far outside it.
    let n1 = leaf_of(
        &[
            r([0.0, 0.0], [0.5, 0.5]),
            r([0.5, 0.5], [0.5, 0.5]),
            r([0.25, 0.5], [0.25, 0.75]),
            r([0.0, 0.9], [0.1, 1.0]),
        ],
        0,
    );
    let n2 = leaf_of(
        &[
            r([0.5, 0.0], [1.0, 0.5]),
            r([0.5, 0.5], [1.0, 1.0]),
            r([0.5, 0.25], [0.5, 0.25]),
            r([0.9, 0.9], [1.0, 1.0]),
        ],
        100,
    );
    assert_restriction_is_exact(&n1, &n2, JoinPredicate::Overlap);
    let touching = unrestricted(&n1, &n2, JoinPredicate::Overlap);
    assert_eq!(touching.len(), 5, "shared edges and corners are overlaps");

    // ε exactly the gap between the two nodes' nearest entries: the
    // pair is in (d² = ε² exactly), and stays in under restriction.
    let gap = 0.25;
    let n1 = leaf_of(
        &[r([0.0, 0.0], [0.25, 0.25]), r([0.0, 0.5], [0.125, 0.75])],
        0,
    );
    let n2 = leaf_of(
        &[r([0.5, 0.0], [0.75, 0.25]), r([0.875, 0.5], [1.0, 0.75])],
        100,
    );
    let predicate = JoinPredicate::WithinDistance(gap);
    assert_restriction_is_exact(&n1, &n2, predicate);
    assert_eq!(
        unrestricted(&n1, &n2, predicate),
        vec![(Child::Object(ObjectId(0)), Child::Object(ObjectId(100)))]
    );
    // One ulp less and nothing matches.
    let short = JoinPredicate::WithinDistance(f64::from_bits(gap.to_bits() - 1));
    assert_restriction_is_exact(&n1, &n2, short);
    assert!(unrestricted(&n1, &n2, short).is_empty());
}

#[test]
fn disjoint_or_empty_nodes_match_nothing() {
    let left = leaf_of(&[r([0.0, 0.0], [0.2, 0.2]), r([0.1, 0.1], [0.3, 0.3])], 0);
    let right = leaf_of(&[r([0.6, 0.6], [0.8, 0.8]), r([0.7, 0.7], [1.0, 1.0])], 100);
    let empty = Node::<2>::new(0);
    let mut scratch = MatchScratch::new();
    for predicate in [JoinPredicate::Overlap, JoinPredicate::WithinDistance(0.1)] {
        for kernel in KERNELS {
            let config = JoinConfig {
                predicate,
                kernel,
                ..JoinConfig::default()
            };
            for (a, b) in [
                (&left, &right),
                (&left, &empty),
                (&empty, &right),
                (&empty, &empty),
            ] {
                assert!(matched_entries(a, b, &config, &mut scratch).is_empty());
            }
            // A scratch that has seen a miss still serves a hit.
            assert_eq!(
                matched_entries(&left, &left, &config, &mut scratch).len(),
                4
            );
        }
    }
}

/// One NaN rule wherever rectangles are tested (the `sjcm_geom::rect`
/// module docs): a comparison with NaN fails, so a rectangle with a NaN
/// coordinate meets nothing — under `Rect::intersects`, the lane kernel
/// `RectBatch::overlap_word`, and both kernels of `matched_entries` on
/// nodes holding one beside rectangles that do meet.
#[test]
fn a_nan_rectangle_meets_nothing_under_every_kernel() {
    let nan = Rect::centered(Point::new([f64::NAN, 0.5]), [0.2, 0.2]);
    let left = leaf_of(&[everywhere(), nan, r([0.4, 0.4], [0.6, 0.6])], 0);
    let right = leaf_of(&[nan, r([0.45, 0.45], [0.55, 0.55])], 100);
    for other in [everywhere(), nan] {
        assert!(!nan.intersects(&other) && !other.intersects(&nan));
    }
    let batch: RectBatch<2> = left.entries.iter().map(|e| e.rect).collect();
    assert_eq!(batch.overlap_word(&everywhere(), 0), 0b101);
    assert_eq!(batch.overlap_word(&nan, 0), 0);
    let want = [0, 2].map(|i| (Child::Object(ObjectId(i)), Child::Object(ObjectId(101))));
    assert_eq!(unrestricted(&left, &right, JoinPredicate::Overlap), want);
    let mut scratch = MatchScratch::new();
    for kernel in KERNELS {
        let config = JoinConfig {
            kernel,
            ..JoinConfig::default()
        };
        assert_eq!(
            matched_entries(&left, &right, &config, &mut scratch),
            want,
            "{kernel:?}"
        );
    }
}

/// The restriction decides which *entries* a node pair compares, never
/// which node pairs are visited: on insertion-built 60K trees (whose
/// shape this change does not touch) every tally is the one the
/// unrestricted executor produced.
#[test]
fn restriction_leaves_every_access_tally_where_it_was() {
    let insert_uniform = |seed: u64| {
        let rects = sjcm_datagen::uniform::generate::<2>(
            sjcm_datagen::uniform::UniformConfig::new(60_000, 0.5, seed),
        );
        let mut tree = RTree::<2>::new(RTreeConfig::paper(2));
        for (i, rect) in rects.into_iter().enumerate() {
            tree.insert(rect, ObjectId(i as u32));
        }
        tree
    };
    let (t1, t2) = std::thread::scope(|s| {
        let second = s.spawn(|| insert_uniform(2424));
        (insert_uniform(4242), second.join().expect("build panicked"))
    });
    let got = join(&t1, &t2, JoinConfig::default(), Scheduler::Sequential);
    // (raw level, NA, DA) per tree, as measured before the restriction.
    assert_eq!(got.pair_count, 119_864);
    assert_eq!(
        got.stats1.per_level().collect::<Vec<_>>(),
        [(0, 7_552, 7_402), (1, 190, 190)]
    );
    assert_eq!(
        got.stats2.per_level().collect::<Vec<_>>(),
        [(0, 7_552, 2_404), (1, 190, 47)]
    );
    assert_eq!((got.na_total(), got.da_total()), (15_484, 10_043));
}

// ---------------------------------------------------------------------
// threads = 0 handling (the former `min_by_key(..).unwrap()` panic).
// ---------------------------------------------------------------------

#[test]
fn zero_threads_is_a_typed_error_on_the_fallible_path() {
    let t1 = build_uniform(500, 0.3, 11);
    let t2 = build_uniform(500, 0.3, 12);
    for sched in [
        Scheduler::CostGuided { threads: 0 },
        Scheduler::RoundRobin { threads: 0 },
    ] {
        let err = JoinSession::new(&t1, &t2)
            .scheduler(sched)
            .run()
            .expect_err("threads = 0 must not silently run");
        assert_eq!(err, JoinError::InvalidThreads, "{sched:?}");
        assert!(err.to_string().contains("at least one worker"));
    }
}

// ---------------------------------------------------------------------
// Refills over stale lanes: every keep pattern up to a group and one lane.
// ---------------------------------------------------------------------

/// Every keep pattern of up to nine rectangles — each subset of a full
/// group and of a group plus one lane — drawn from the coordinates that
/// break naive kernels (±0.0, touching, degenerate), pushed over stale
/// lanes: the batch holds exactly the kept rectangles, in order, and
/// both word kernels agree with the scalar predicates on them.
#[test]
fn refills_over_stale_lanes_agree_under_every_keep_pattern() {
    let pool = [
        r([0.0, 0.0], [0.5, 0.5]),
        r([-0.0, -0.0], [0.0, 0.0]),
        r([0.5, 0.5], [0.5, 0.5]),
        r([0.5, 0.0], [1.0, 0.5]),
        r([0.25, 0.5], [0.25, 0.75]),
        r([0.75, 0.75], [1.0, 1.0]),
        r([0.0, 0.9], [0.1, 1.0]),
        r([0.5, 0.25], [0.5, 0.25]),
        r([0.1, 0.1], [0.2, 0.2]),
    ];
    let queries = [r([0.5, 0.5], [0.75, 0.75]), r([-0.0, 0.0], [0.0, 0.0])];
    for n in 0..=pool.len() {
        for pattern in 0u32..1 << n {
            let keep: Vec<bool> = (0..n).map(|i| pattern >> i & 1 == 1).collect();
            let (batch, kept) = refilled(&pool[..n], &keep);
            for q in &queries {
                assert_kernels_agree(
                    &batch,
                    &kept,
                    |r| q.intersects(r),
                    |b, block| b.overlap_word(q, block),
                    |b, start, end, mask| b.overlap_mask(q, start, end, mask),
                )
                .unwrap_or_else(|e| panic!("overlap, pattern {pattern:0n$b}: {e}"));
                for eps in [0.0, 0.25, f64::INFINITY] {
                    assert_kernels_agree(
                        &batch,
                        &kept,
                        |r| q.within_distance(r, eps),
                        |b, block| b.within_word(q, eps, block),
                        |b, start, end, mask| b.within_mask(q, eps, start, end, mask),
                    )
                    .unwrap_or_else(|e| panic!("ε {eps}, pattern {pattern:0n$b}: {e}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Distance thresholds the session refuses, and the one it must not.
// ---------------------------------------------------------------------

/// A distance join whose ε is negative or NaN is refused with a typed
/// error before either tree is read: no scheduler records an access.
fn refused_distance(eps: f64) -> Vec<JoinError> {
    let t1 = build_uniform(500, 0.3, 11);
    let t2 = build_uniform(500, 0.3, 12);
    let mut errors = Vec::new();
    for sched in [
        Scheduler::Sequential,
        Scheduler::CostGuided { threads: 2 },
        Scheduler::RoundRobin { threads: 2 },
    ] {
        let recorder = FlightRecorder::enabled();
        let err = JoinSession::new(&t1, &t2)
            .config(JoinConfig {
                predicate: JoinPredicate::WithinDistance(eps),
                ..JoinConfig::default()
            })
            .scheduler(sched)
            .record(&recorder)
            .run()
            .expect_err("an invalid ε must not run");
        assert!(err.to_string().contains("ε ≥ 0"), "{sched:?}: {err}");
        assert!(recorder.drain().is_empty(), "{sched:?}: a page was read");
        errors.push(err);
    }
    errors
}

#[test]
fn negative_distance_is_a_typed_error() {
    for err in refused_distance(-0.01) {
        assert_eq!(err, JoinError::InvalidDistance(-0.01));
    }
}

#[test]
fn nan_distance_is_a_typed_error() {
    for err in refused_distance(f64::NAN) {
        assert!(
            matches!(err, JoinError::InvalidDistance(eps) if eps.is_nan()),
            "{err:?}"
        );
    }
}

/// `ε = +∞` stays legal, and so does `-0.0`, which is zero: the first
/// joins every pair, the second what the overlap predicate joins.
#[test]
fn infinite_and_negative_zero_distances_run() {
    let t1 = build_uniform(300, 0.3, 13);
    let t2 = build_uniform(200, 0.3, 14);
    let run = |predicate| {
        join(
            &t1,
            &t2,
            JoinConfig {
                predicate,
                collect_pairs: false,
                ..JoinConfig::default()
            },
            Scheduler::Sequential,
        )
        .pair_count
    };
    assert_eq!(run(JoinPredicate::WithinDistance(f64::INFINITY)), 300 * 200);
    assert_eq!(
        run(JoinPredicate::WithinDistance(-0.0)),
        run(JoinPredicate::Overlap)
    );
}

// ---------------------------------------------------------------------
// PBSM regressions: boundary-touching pairs in both sweeps.
// ---------------------------------------------------------------------

/// Pairs meeting exactly on a partition boundary exercise the
/// reference point's tie-breaking in both sweeps: as they are, every
/// cell takes the one-candidate sweep; with 4 096 segments added a side
/// (at least 512 a side in every cell of each grid), the batched one.
/// Against the nested loop each time, which also rules out a pair
/// reported twice despite boundary replication.
#[test]
fn pbsm_boundary_touching_pairs_identical_across_kernels() {
    let a = vec![
        (Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap(), ObjectId(1)),
        (Rect::new([0.5, 0.5], [1.0, 1.0]).unwrap(), ObjectId(2)),
        (Rect::new([0.25, 0.25], [0.25, 0.75]).unwrap(), ObjectId(3)),
    ];
    let b = vec![
        (Rect::new([0.5, 0.0], [1.0, 0.5]).unwrap(), ObjectId(7)),
        (Rect::new([0.0, 0.5], [0.5, 1.0]).unwrap(), ObjectId(8)),
        (Rect::new([0.25, 0.5], [0.75, 0.5]).unwrap(), ObjectId(9)),
    ];
    let [pad_a, pad_b] = segments(4096, 100);
    let padded = [a.clone(), pad_a].concat();
    let padded_b = [b.clone(), pad_b].concat();
    for (left, right) in [(&a, &b), (&padded, &padded_b)] {
        pbsm_matches_nested_loop(left, right, &[1, 2, 3, 4, 8]).unwrap();
    }
}
