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
//!    a pair is reported only by the partition containing the top-left
//!    corner of the MBR intersection, so no dedup table is needed.
//!
//! The simulated I/O cost of PBSM is the classic two-pass accounting:
//! both inputs are written into partitions once and read back once.

use crate::degraded::JoinError;
use crate::executor::MatchKernel;
use crate::session::ExecContext;
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

/// Result of a governed PBSM join: the (possibly partial) result plus
/// the forfeited-cell inventory. PBSM has no R-tree priors, so unlike
/// [`crate::DegradedJoinResult`] the forfeited work is counted in
/// cells and entries, not priced in Eq-6 NA.
#[derive(Debug, Clone)]
pub struct DegradedPbsmResult {
    /// What the sweeps that ran produced.
    pub result: PbsmResult,
    /// Active cells the governor refused (deadline or cancellation).
    pub forfeited_cells: u64,
    /// Partition entries those forfeited cells held (both sides).
    pub forfeited_entries: u64,
}

impl DegradedPbsmResult {
    /// `true` when nothing was forfeited — `result` is exact.
    pub fn is_exact(&self) -> bool {
        self.forfeited_cells == 0
    }
}

/// The PBSM executor body, cross-cutting concerns supplied through the
/// one [`ExecContext`] seam (PBSM uses the progress hub and the
/// governor: [`ExecContext::checkpoint`] gates each active cell,
/// [`ExecContext::unit_done`] / [`ExecContext::forfeit_unit`] keep the
/// shed ledger honest, and the memory budget meters the replica arena).
///
/// Pure main-memory simulation of the algorithm's structure: partitions
/// are vectors rather than spill files, but the partitioning, the
/// plane-sweep per partition and the duplicate-avoidance logic are the
/// real thing. The scalar and batched kernels produce identical pairs
/// in identical order.
pub(crate) fn run_pbsm<const N: usize>(
    left: &[(Rect<N>, ObjectId)],
    right: &[(Rect<N>, ObjectId)],
    grid: usize,
    page_capacity: usize,
    kernel: MatchKernel,
    ctx: &ExecContext<'_>,
) -> Result<DegradedPbsmResult, JoinError> {
    let progress = &ctx.progress;
    let gov = ctx.gov;
    assert!(grid >= 1, "need at least one partition per dimension");
    assert!(page_capacity >= 1, "page capacity must be positive");
    gov.start_clock();
    let cells = grid.pow(N as u32);
    // Memory budget: the replica arena is the dominant allocation, and
    // its size is known before building it — count replicas in a dry
    // pass and reserve the bytes up front. Only paid when a budget is
    // actually armed.
    let entry_bytes = std::mem::size_of::<(Rect<N>, ObjectId)>() as u64;
    let mut reserved = 0u64;
    if gov.has_mem_budget() {
        let dry: usize = left
            .iter()
            .chain(right)
            .map(|(r, _)| overlapped_cells(r, grid).len())
            .sum();
        reserved = dry as u64 * entry_bytes;
        gov.reserve(reserved)?;
    }
    let mut parts_left: Vec<Vec<(Rect<N>, ObjectId)>> = vec![Vec::new(); cells];
    let mut parts_right: Vec<Vec<(Rect<N>, ObjectId)>> = vec![Vec::new(); cells];
    let mut replicas = 0usize;
    // Sort each input once, globally, before partitioning: replication
    // preserves order, so every partition receives its entries already
    // sorted by sweep dimension — the per-cell sorts the sweep used to
    // repeat for every cell vanish. (The sort is stable, so equal-lo₀
    // ties keep input order, exactly as the former per-cell stable
    // sorts left them.)
    let mut left = left.to_vec();
    let mut right = right.to_vec();
    left.sort_by(|a, b| a.0.lo_k(0).total_cmp(&b.0.lo_k(0)));
    right.sort_by(|a, b| a.0.lo_k(0).total_cmp(&b.0.lo_k(0)));
    for &(r, id) in &left {
        for cell in overlapped_cells(&r, grid) {
            parts_left[cell].push((r, id));
            replicas += 1;
        }
    }
    for &(r, id) in &right {
        for cell in overlapped_cells(&r, grid) {
            parts_right[cell].push((r, id));
            replicas += 1;
        }
    }
    let total_objects = left.len() + right.len();
    let replication_factor = if total_objects == 0 {
        0.0
    } else {
        replicas as f64 / total_objects as f64
    };

    // Unit ledger: one unit per active cell, priced by its entry count
    // (the sweep is linear in candidates, so a cell's cost share
    // approximates its share of the remaining work). Shared between the
    // progress tracker and the governor — PBSM has no R-tree priors, so
    // cells get uniform value (no pairs-per-NA shed ranking).
    let active: Vec<usize> = (0..cells)
        .filter(|&c| !parts_left[c].is_empty() && !parts_right[c].is_empty())
        .collect();
    let cell_price = |c: usize| (parts_left[c].len() + parts_right[c].len()) as u64;
    if progress.is_enabled() {
        let cost: u64 = active.iter().map(|&c| cell_price(c)).sum();
        progress.set_schedule(&[(active.len() as u64, cost)]);
    }
    if gov.is_enabled() {
        let prices: Vec<u64> = active.iter().map(|&c| cell_price(c)).collect();
        let values = vec![1.0; prices.len()];
        gov.arm_units(prices, values);
    }

    let mut pairs = Vec::new();
    let mut scratch = SweepScratch::default();
    let mut forfeited_cells = 0u64;
    let mut forfeited_entries = 0u64;
    for (ordinal, &cell) in active.iter().enumerate() {
        // Work-unit boundary: the governor's cancellation point.
        if !ctx.checkpoint(ordinal) {
            forfeited_cells += 1;
            forfeited_entries += cell_price(cell);
            ctx.forfeit_unit(ordinal);
            continue;
        }
        let before = pairs.len();
        sweep_cell(
            &parts_left[cell],
            &parts_right[cell],
            cell,
            grid,
            kernel,
            &mut scratch,
            &mut pairs,
        );
        ctx.unit_done(ordinal);
        if progress.is_enabled() {
            progress.unit_done(0, cell_price(cell));
            progress.add_pairs((pairs.len() - before) as u64);
        }
    }
    progress.finish();

    // Two-pass I/O: write all replicas out, read them back.
    let pages = |entries: usize| entries.div_ceil(page_capacity) as u64;
    let replica_entries: usize = parts_left.iter().chain(&parts_right).map(Vec::len).sum();
    let io_pages = 2 * pages(replica_entries);

    gov.release(reserved);
    gov.finish();
    Ok(DegradedPbsmResult {
        result: PbsmResult {
            pairs,
            io_pages,
            replication_factor,
        },
        forfeited_cells,
        forfeited_entries,
    })
}

/// Row-major indices of all cells a rectangle overlaps (closed
/// intersection: a rectangle whose edge lies exactly on a partition
/// boundary is replicated into both neighbours, so the reference point
/// of a boundary-touching pair always lands in a cell holding both
/// operands).
fn overlapped_cells<const N: usize>(r: &Rect<N>, grid: usize) -> Vec<usize> {
    let g = grid as f64;
    let mut lo = [0usize; N];
    let mut hi = [0usize; N];
    for k in 0..N {
        lo[k] = ((r.lo_k(k).clamp(0.0, 1.0) * g) as usize).min(grid - 1);
        hi[k] = ((r.hi_k(k).clamp(0.0, 1.0) * g).floor() as usize).clamp(lo[k], grid - 1);
    }
    let mut out = Vec::new();
    let mut cursor = lo;
    loop {
        let mut idx = 0usize;
        for k in (0..N).rev() {
            idx = idx * grid + cursor[k];
        }
        out.push(idx);
        let mut k = 0;
        loop {
            if k == N {
                return out;
            }
            if cursor[k] < hi[k] {
                cursor[k] += 1;
                break;
            }
            cursor[k] = lo[k];
            k += 1;
        }
    }
}

/// Reusable SoA batches for the batched per-cell sweeps.
#[derive(Debug, Default)]
struct SweepScratch<const N: usize> {
    left: RectBatch<N>,
    right: RectBatch<N>,
}

/// Plane-sweep join of one partition, with reference-point duplicate
/// suppression. Both inputs must arrive sorted by `lo₀` (the global
/// pre-partitioning sort guarantees it — partitions inherit the order).
///
/// The scalar kernel evaluates each candidate with a single
/// `intersection` pass (`None` ⇒ disjoint — no pre-check, no
/// `expect`); the batched kernel consumes each anchor's candidate run
/// with the sweep-fused [`RectBatch::sweep_ref_cells`] kernel, which
/// folds the run bound into its vectorized lanes and emits exactly
/// "intersects **and** reference point in this cell" (dimension 0
/// overlap is implied by the run bound — see the `sjcm_geom::batch`
/// module docs).
#[allow(clippy::too_many_arguments)]
fn sweep_cell<const N: usize>(
    left: &[(Rect<N>, ObjectId)],
    right: &[(Rect<N>, ObjectId)],
    cell: usize,
    grid: usize,
    kernel: MatchKernel,
    scratch: &mut SweepScratch<N>,
    out: &mut Vec<(ObjectId, ObjectId)>,
) {
    debug_assert!(
        left.windows(2).all(|w| w[0].0.lo_k(0) <= w[1].0.lo_k(0))
            && right.windows(2).all(|w| w[0].0.lo_k(0) <= w[1].0.lo_k(0)),
        "sweep_cell inputs must be sorted by lo_k(0)"
    );
    // Small-cell gate: the batched path pays an O(cell) SoA fill before
    // the first anchor, which only amortizes when the cell is big
    // enough to produce kernel-length candidate runs. High-resolution
    // grids (batched measured 0.91× scalar at grid 16 without this gate)
    // shred the inputs into hundreds of small cells whose sweeps are
    // over before the fill pays for itself — those cells take the
    // scalar sweep outright and never touch the batches. Identical
    // pairs in identical order either way, so the gate is invisible in
    // the output.
    const CELL_BATCH_MIN: usize = 512;
    let kernel = if kernel == MatchKernel::Batched && left.len().min(right.len()) < CELL_BATCH_MIN {
        MatchKernel::Scalar
    } else {
        kernel
    };
    if kernel == MatchKernel::Batched {
        scratch.left.clear();
        scratch.right.clear();
        scratch.left.extend(left.iter().map(|e| e.0));
        scratch.right.extend(right.iter().map(|e| e.0));
    }
    // Scalar reference point: the low corner of the MBR intersection.
    // Only the partition containing it reports the pair.
    fn emit<const N: usize>(
        a: &(Rect<N>, ObjectId),
        b: &(Rect<N>, ObjectId),
        grid: usize,
        cell: usize,
        out: &mut Vec<(ObjectId, ObjectId)>,
    ) {
        if let Some(inter) = a.0.intersection(&b.0) {
            if unit_grid_cell(&inter.lo().coords(), grid) == cell {
                out.push((a.1, b.1));
            }
        }
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i].0.lo_k(0) <= right[j].0.lo_k(0) {
            let anchor = left[i];
            let limit = anchor.0.hi_k(0);
            match kernel {
                MatchKernel::Scalar => {
                    let mut k = j;
                    while k < right.len() && right[k].0.lo_k(0) <= limit {
                        emit(&anchor, &right[k], grid, cell, out);
                        k += 1;
                    }
                }
                MatchKernel::Batched => {
                    scratch
                        .right
                        .sweep_ref_cells(&anchor.0, j, limit, grid, cell, |k| {
                            out.push((anchor.1, right[k].1));
                        });
                }
            }
            i += 1;
        } else {
            let anchor = right[j];
            let limit = anchor.0.hi_k(0);
            match kernel {
                MatchKernel::Scalar => {
                    let mut k = i;
                    while k < left.len() && left[k].0.lo_k(0) <= limit {
                        emit(&left[k], &anchor, grid, cell, out);
                        k += 1;
                    }
                }
                MatchKernel::Batched => {
                    scratch
                        .left
                        .sweep_ref_cells(&anchor.0, i, limit, grid, cell, |k| {
                            out.push((left[k].1, anchor.1));
                        });
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

    /// The default-kernel PBSM join through the session — what every
    /// test here runs.
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
