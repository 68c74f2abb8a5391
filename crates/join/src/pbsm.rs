//! Partition Based Spatial-Merge join (PBSM) — Patel & DeWitt,
//! SIGMOD 1996 (the paper's reference \[PD96\]).
//!
//! §2.1 of the paper splits spatial-join processing into two camps:
//! joins over *pre-built indexes* (the SJ algorithm this repository
//! centers on) and joins that *build partitions on the fly* when at
//! least one input is unindexed. PBSM is the canonical representative
//! of the second camp, implemented here so the optimizer's NL slot and
//! the benchmarks have a literature-faithful no-index competitor:
//!
//! 1. Overlay the workspace with a uniform grid of `P` partitions.
//! 2. Replicate each object into every partition its MBR overlaps.
//! 3. Join each partition pair-wise with a plane sweep.
//! 4. Suppress duplicate output (an overlapping pair co-occurs in every
//!    partition both MBRs overlap) with the **reference-point method**:
//!    a pair is reported only by the partition containing the low
//!    corner of the MBR intersection, so no dedup table is needed.
//!
//! The simulated I/O cost of PBSM is the classic two-pass accounting:
//! both inputs are written into partitions once and read back once.

use sjcm_geom::{unit_grid_cell, Rect, RectBatch};
use sjcm_rtree::ObjectId;

/// Result of a PBSM join.
#[derive(Debug, Clone)]
pub struct PbsmResult {
    /// Qualifying `(left, right)` pairs (exact, duplicate-free).
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Simulated page I/O: write + read of both partitioned inputs at
    /// the given page capacity (entries per page).
    pub io_pages: u64,
    /// Average number of partitions each object was replicated into —
    /// PBSM's overhead knob (grows with object size relative to cells).
    pub replication_factor: f64,
}

/// What [`crate::PbsmSession::run`] returns: the join's result, under
/// the field name a tree join's [`crate::DegradedJoinResult`] uses, so
/// both sessions are read as `.run()?.result`. Nothing governs or
/// forfeits a PBSM cell, so there is nothing else to carry.
#[derive(Debug, Clone)]
pub struct DegradedPbsmResult {
    /// The join's pairs and simulated I/O.
    pub result: PbsmResult,
}

/// The PBSM executor body: partition both inputs, then sweep every cell
/// that holds entries of both.
///
/// Pure main-memory simulation of the algorithm's structure: partitions
/// are index runs over the borrowed inputs rather than spill files (see
/// [`Partition`]), but the partitioning, the plane-sweep per partition
/// and the duplicate-avoidance logic are the real thing.
pub(crate) fn run_pbsm<const N: usize>(
    left: &[(Rect<N>, ObjectId)],
    right: &[(Rect<N>, ObjectId)],
    grid: usize,
    page_capacity: usize,
) -> PbsmResult {
    assert!(grid >= 1, "need at least one partition per dimension");
    assert!(page_capacity >= 1, "page capacity must be positive");
    let cells = grid.pow(N as u32);
    let parts_left = Partition::build(left, grid, cells);
    let parts_right = Partition::build(right, grid, cells);
    let replicas = parts_left.slots.len() + parts_right.slots.len();
    let total_objects = left.len() + right.len();
    let replication_factor = if total_objects == 0 {
        0.0
    } else {
        replicas as f64 / total_objects as f64
    };

    let mut pairs = Vec::new();
    let mut scratch = SweepScratch::default();
    for cell in 0..cells {
        // A cell empty on either side sweeps nothing.
        sweep_cell(
            (parts_left.cell(cell), left),
            (parts_right.cell(cell), right),
            cell,
            grid,
            &mut scratch,
            &mut pairs,
        );
    }

    // Two-pass I/O: write all replicas out, read them back.
    let io_pages = 2 * replicas.div_ceil(page_capacity) as u64;

    PbsmResult {
        pairs,
        io_pages,
        replication_factor,
    }
}

/// One input partitioned by *index*: cell `c` holds
/// `slots[offsets[c]..offsets[c + 1]]`, positions into the input slice
/// in ascending `lo₀` (ties in input order). The input itself is never
/// copied, sorted or moved. A rectangle with a NaN coordinate is in no
/// cell: it meets nothing, and the sweep's `lo₀` order and run bound
/// need coordinates that compare (the `sjcm_geom::batch` module docs).
struct Partition {
    offsets: Vec<usize>,
    slots: Vec<u32>,
}

impl Partition {
    /// Counting sort of the input's replicas by cell. Sorting the input
    /// once, globally, before partitioning means every cell receives its
    /// entries already in sweep order (replication preserves order), so
    /// no cell is sorted on its own; the sort is stable, so equal-lo₀
    /// ties keep input order.
    fn build<const N: usize>(items: &[(Rect<N>, ObjectId)], grid: usize, cells: usize) -> Self {
        let n = u32::try_from(items.len()).expect("PBSM indexes its inputs with 32-bit positions");
        let mut order: Vec<u32> = (0..n).collect();
        // Only a rectangle with a NaN coordinate fails to meet itself.
        order.retain(|&i| items[i as usize].0.intersects(&items[i as usize].0));
        order.sort_by(|&a, &b| {
            let lo = |i: u32| items[i as usize].0.lo_k(0);
            lo(a).total_cmp(&lo(b))
        });
        // Count, then prefix-sum to each cell's *end*; filling from the
        // back of `order` walks every end down to its cell's start, so
        // the offsets need no second cursor array.
        let mut offsets = vec![0usize; cells + 1];
        for &i in &order {
            for cell in CellSpan::new(&items[i as usize].0, grid) {
                offsets[cell] += 1;
            }
        }
        let mut end = 0;
        for slot in &mut offsets {
            end += *slot;
            *slot = end;
        }
        let mut slots = vec![0u32; end];
        for &i in order.iter().rev() {
            for cell in CellSpan::new(&items[i as usize].0, grid) {
                offsets[cell] -= 1;
                slots[offsets[cell]] = i;
            }
        }
        Self { offsets, slots }
    }

    fn cell(&self, c: usize) -> &[u32] {
        &self.slots[self.offsets[c]..self.offsets[c + 1]]
    }
}

/// Row-major indices of all cells a rectangle overlaps (closed
/// intersection: a rectangle whose edge lies exactly on a partition
/// boundary is replicated into both neighbours, so the reference point
/// of a boundary-touching pair always lands in a cell holding both
/// operands). An iterator, not a `Vec`: partitioning walks it twice per
/// object.
struct CellSpan<const N: usize> {
    lo: [usize; N],
    hi: [usize; N],
    /// Next cell's per-dimension coordinates; `None` once exhausted.
    cursor: Option<[usize; N]>,
    grid: usize,
}

impl<const N: usize> CellSpan<N> {
    fn new(r: &Rect<N>, grid: usize) -> Self {
        let g = grid as f64;
        let mut lo = [0usize; N];
        let mut hi = [0usize; N];
        for k in 0..N {
            lo[k] = ((r.lo_k(k).clamp(0.0, 1.0) * g) as usize).min(grid - 1);
            hi[k] = ((r.hi_k(k).clamp(0.0, 1.0) * g).floor() as usize).clamp(lo[k], grid - 1);
        }
        Self {
            lo,
            hi,
            cursor: Some(lo),
            grid,
        }
    }
}

impl<const N: usize> Iterator for CellSpan<N> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let mut cursor = self.cursor?;
        let mut idx = 0usize;
        for k in (0..N).rev() {
            idx = idx * self.grid + cursor[k];
        }
        // Odometer step, dimension 0 fastest.
        let mut k = 0;
        self.cursor = loop {
            if k == N {
                break None;
            }
            if cursor[k] < self.hi[k] {
                cursor[k] += 1;
                break Some(cursor);
            }
            cursor[k] = self.lo[k];
            k += 1;
        };
        Some(idx)
    }
}

/// Reusable SoA batches for the batched per-cell sweeps.
#[derive(Debug, Default)]
struct SweepScratch<const N: usize> {
    left: RectBatch<N>,
    right: RectBatch<N>,
}

/// Plane-sweep join of one partition, with reference-point duplicate
/// suppression. Each side is the cell's slots and the input they index;
/// the slots must arrive sorted by `lo₀` (the global pre-partitioning
/// sort guarantees it — partitions inherit the order).
///
/// One pair rule: a candidate pair is reported exactly when
/// [`Rect::intersects`] holds and [`unit_grid_cell`] of the corner
/// `max(a.lo, b.lo)` — the low corner of the intersection — is `cell`.
/// A cell with at least `CELL_BATCH_MIN` entries a side evaluates it
/// with the fused [`RectBatch::sweep_ref_cells`] kernel over each
/// anchor's candidate run (dimension 0 overlap is implied by the run
/// bound — see the `sjcm_geom::batch` module docs); a smaller cell, one
/// candidate at a time. Identical pairs in identical order either way.
fn sweep_cell<const N: usize>(
    (left, left_items): (&[u32], &[(Rect<N>, ObjectId)]),
    (right, right_items): (&[u32], &[(Rect<N>, ObjectId)]),
    cell: usize,
    grid: usize,
    scratch: &mut SweepScratch<N>,
    out: &mut Vec<(ObjectId, ObjectId)>,
) {
    let l = |i: usize| &left_items[left[i] as usize];
    let r = |j: usize| &right_items[right[j] as usize];
    debug_assert!(
        (1..left.len()).all(|i| l(i - 1).0.lo_k(0) <= l(i).0.lo_k(0))
            && (1..right.len()).all(|j| r(j - 1).0.lo_k(0) <= r(j).0.lo_k(0)),
        "sweep_cell inputs must be sorted by lo_k(0)"
    );
    // Small-cell gate: the batched path pays an O(cell) SoA fill before
    // the first anchor, which only amortizes when the cell is big
    // enough to produce kernel-length candidate runs. High-resolution
    // grids (batched measured 0.91× scalar at grid 16 without this gate)
    // shred the inputs into hundreds of small cells whose sweeps are
    // over before the fill pays for itself — those cells take the
    // one-candidate sweep outright and never touch the batches.
    const CELL_BATCH_MIN: usize = 512;
    let batched = left.len().min(right.len()) >= CELL_BATCH_MIN;
    if batched {
        scratch.left.clear();
        scratch.right.clear();
        scratch.left.extend((0..left.len()).map(|i| l(i).0));
        scratch.right.extend((0..right.len()).map(|j| r(j).0));
    }
    // The pair rule, one candidate at a time.
    fn emit<const N: usize>(
        a: &(Rect<N>, ObjectId),
        b: &(Rect<N>, ObjectId),
        grid: usize,
        cell: usize,
        out: &mut Vec<(ObjectId, ObjectId)>,
    ) {
        let corner: [f64; N] = std::array::from_fn(|k| a.0.lo_k(k).max(b.0.lo_k(k)));
        if a.0.intersects(&b.0) && unit_grid_cell(&corner, grid) == cell {
            out.push((a.1, b.1));
        }
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if l(i).0.lo_k(0) <= r(j).0.lo_k(0) {
            let anchor = *l(i);
            let limit = anchor.0.hi_k(0);
            if batched {
                scratch
                    .right
                    .sweep_ref_cells(&anchor.0, j, limit, grid, cell, |k| {
                        out.push((anchor.1, r(k).1));
                    });
            } else {
                let mut k = j;
                while k < right.len() && r(k).0.lo_k(0) <= limit {
                    emit(&anchor, r(k), grid, cell, out);
                    k += 1;
                }
            }
            i += 1;
        } else {
            let anchor = *r(j);
            let limit = anchor.0.hi_k(0);
            if batched {
                scratch
                    .left
                    .sweep_ref_cells(&anchor.0, i, limit, grid, cell, |k| {
                        out.push((l(k).1, anchor.1));
                    });
            } else {
                let mut k = i;
                while k < left.len() && l(k).0.lo_k(0) <= limit {
                    emit(l(k), &anchor, grid, cell, out);
                    k += 1;
                }
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::nested_loop_join;
    use crate::session::PbsmSession;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::Point;

    fn random_items(n: usize, side: f64, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx: f64 = rng.gen_range(0.0..1.0);
                let cy: f64 = rng.gen_range(0.0..1.0);
                (
                    Rect::centered(Point::new([cx, cy]), [side, side])
                        .clamp_to_unit()
                        .unwrap(),
                    ObjectId(i as u32),
                )
            })
            .collect()
    }

    /// The PBSM join through the session — what every test here runs.
    fn pbsm_join<const N: usize>(
        left: &[(Rect<N>, ObjectId)],
        right: &[(Rect<N>, ObjectId)],
        grid: usize,
        page_capacity: usize,
    ) -> PbsmResult {
        PbsmSession::new(left, right, grid, page_capacity)
            .run()
            .expect("ungoverned PBSM cannot fail")
            .result
    }

    #[test]
    fn pbsm_matches_brute_force() {
        let a = random_items(600, 0.03, 1);
        let b = random_items(500, 0.04, 2);
        let mut expected = nested_loop_join(&a, &b);
        expected.sort();
        for grid in [1, 2, 4, 9] {
            let mut got = pbsm_join(&a, &b, grid, 50).pairs;
            got.sort();
            assert_eq!(got, expected, "grid = {grid}");
        }
    }

    #[test]
    fn no_duplicates_despite_replication() {
        // Large objects replicate into many cells; the reference-point
        // rule must still emit each pair exactly once.
        let a = random_items(150, 0.3, 3);
        let b = random_items(150, 0.3, 4);
        let result = pbsm_join(&a, &b, 8, 50);
        assert!(
            result.replication_factor > 2.0,
            "test wants heavy replication, got {}",
            result.replication_factor
        );
        let mut seen = std::collections::HashSet::new();
        for &p in &result.pairs {
            assert!(seen.insert(p), "duplicate pair {p:?}");
        }
        let mut expected = nested_loop_join(&a, &b);
        expected.sort();
        let mut got = result.pairs;
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn boundary_touching_pairs_are_reported_once() {
        // Two rects meeting exactly on a partition boundary.
        let a = vec![(Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap(), ObjectId(1))];
        let b = vec![(Rect::new([0.5, 0.0], [1.0, 0.5]).unwrap(), ObjectId(2))];
        for grid in [1, 2, 4] {
            let got = pbsm_join(&a, &b, grid, 10).pairs;
            assert_eq!(got, vec![(ObjectId(1), ObjectId(2))], "grid = {grid}");
        }
    }

    #[test]
    fn replication_grows_with_grid() {
        let a = random_items(400, 0.05, 5);
        let b = random_items(400, 0.05, 6);
        let coarse = pbsm_join(&a, &b, 2, 50).replication_factor;
        let fine = pbsm_join(&a, &b, 16, 50).replication_factor;
        assert!(fine > coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn io_accounting_scales_with_replicas() {
        let a = random_items(500, 0.01, 7);
        let b = random_items(500, 0.01, 8);
        let r = pbsm_join(&a, &b, 4, 50);
        // 1000 near-unreplicated entries at 50/page → ≥ 2·20 pages.
        assert!(r.io_pages >= 40, "io {}", r.io_pages);
        let single = pbsm_join(&a, &b, 1, 50);
        assert_eq!(single.io_pages, 2 * 20);
    }

    /// Pairs *in emission order*, `io_pages` and the replication factor,
    /// pinned from the tuple-partitioning implementation this one
    /// replaced: the index arena must reproduce all three for both
    /// sweeps (grid 2 puts ≥ 512 entries a side in each cell, the
    /// batched sweep's gate; grid 8 with large objects is the
    /// heavy-replication case, in cells of fewer).
    #[test]
    fn output_is_identical_to_the_tuple_partitioning_pbsm() {
        fn fingerprint(r: &PbsmResult) -> (u64, usize, u64, u64) {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &(a, b) in &r.pairs {
                for v in [a.0, b.0] {
                    h = (h ^ u64::from(v)).wrapping_mul(0x100_0000_01b3);
                }
            }
            (h, r.pairs.len(), r.io_pages, r.replication_factor.to_bits())
        }
        let cases = [
            (
                random_items(4000, 0.02, 21),
                random_items(3000, 0.03, 22),
                2,
            ),
            (random_items(300, 0.3, 23), random_items(300, 0.3, 24), 8),
        ];
        let expected = [
            (12283767195018657929, 28917, 294, 4607406955410010594),
            (7579940634967167264, 23035, 222, 4621389399124526585),
        ];
        for ((a, b, grid), expected) in cases.iter().zip(expected) {
            let got = pbsm_join(a, b, *grid, 50);
            assert_eq!(fingerprint(&got), expected, "grid {grid}");
        }
    }

    /// A rectangle with a NaN coordinate meets nothing, so with one in
    /// either input PBSM returns the nested loop's pairs: for `+NaN`,
    /// `−NaN` (which `total_cmp` sorts first) and a computed `0.0 / 0.0`
    /// in each dimension, in a cell of fewer and of more than 512
    /// entries a side.
    #[test]
    fn a_nan_rectangle_meets_nothing_in_either_sweep() {
        let zero = std::hint::black_box(0.0f64);
        for nan in [f64::NAN, -f64::NAN, zero / zero] {
            for k in 0..2 {
                let mut center = [0.5, 0.5];
                center[k] = nan;
                let bad = Rect::centered(Point::new(center), [0.1, 0.1]);
                for n in [100, 700] {
                    let mut a = random_items(n, 0.03, 51);
                    let b = random_items(n, 0.03, 52);
                    a.insert(n / 2, (bad, ObjectId(n as u32)));
                    for (left, right) in [(&a, &b), (&b, &a)] {
                        let mut want = nested_loop_join(left, right);
                        want.sort();
                        let mut got = pbsm_join(left, right, 1, 50).pairs;
                        got.sort();
                        assert_eq!(got, want, "{nan:?} in dimension {k}, {n} a side");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let a = random_items(10, 0.02, 9);
        let r = pbsm_join::<2>(&a, &[], 4, 10);
        assert!(r.pairs.is_empty());
        let r = pbsm_join::<2>(&[], &[], 4, 10);
        assert!(r.pairs.is_empty());
        assert_eq!(r.replication_factor, 0.0);
    }

    #[test]
    fn one_dimensional_pbsm() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut gen = |seed_off: u32| -> Vec<(Rect<1>, ObjectId)> {
            (0..300)
                .map(|i| {
                    let lo: f64 = rng.gen_range(0.0..0.99);
                    (
                        Rect::new([lo], [(lo + 0.01).min(1.0)]).unwrap(),
                        ObjectId(i + seed_off),
                    )
                })
                .collect()
        };
        let a = gen(0);
        let b = gen(1000);
        let mut expected = nested_loop_join(&a, &b);
        expected.sort();
        let mut got = pbsm_join(&a, &b, 8, 84).pairs;
        got.sort();
        assert_eq!(got, expected);
    }
}
