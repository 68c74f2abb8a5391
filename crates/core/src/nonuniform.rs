//! Non-uniform data support: the §4.2 global→local transformation.
//!
//! The uniform model assumes objects are spread evenly over the
//! workspace. For skewed data, \[TS96\] (and §4.2 of the join paper)
//! proposes reducing the uniformity assumption from *global* to *local*:
//! partition the workspace into a grid, measure a local cardinality and
//! density per cell (in a real system, by sampling), and evaluate the
//! cost formula per cell with local parameters.
//!
//! Consistency requirement (tested): on uniform data the per-cell sum
//! reproduces the global formula, because local node counts scale with
//! the cell volume while local extents stay put.

use crate::config::{DataProfile, ModelConfig};
use crate::join::level_schedule;
use crate::params::predict_height;
use sjcm_geom::{unit_grid_cell, Rect};

/// Local statistics of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellStats {
    /// Objects assigned to the cell (fractional: each object contributes
    /// to a cell proportionally to its overlap with it).
    pub count: f64,
    /// Local density: covered measure within the cell / cell measure.
    pub density: f64,
}

/// A grid histogram of local cardinality and density — the "density
/// surface" of \[TS96\] §4.2.
#[derive(Debug, Clone, PartialEq)]
pub struct DensitySurface<const N: usize> {
    grid: usize,
    cells: Vec<CellStats>,
    total_count: f64,
}

impl<const N: usize> DensitySurface<N> {
    /// Builds the surface from object MBRs on a `grid^N` partition of the
    /// unit workspace.
    ///
    /// Each object distributes its unit of count across the cells it
    /// overlaps, weighted by overlap share; degenerate (zero-measure)
    /// objects count fully toward the cell containing their center.
    pub fn from_rects(rects: &[Rect<N>], grid: usize) -> Self {
        assert!(grid >= 1, "grid must have at least one cell per side");
        let cell_count = grid.pow(N as u32);
        let mut cells = vec![CellStats::default(); cell_count];
        let cell_measure = (1.0 / grid as f64).powi(N as i32);
        for r in rects {
            let clipped = match r.clamp_to_unit() {
                Some(c) => c,
                None => continue,
            };
            let measure = clipped.measure();
            if measure > 0.0 {
                // Distribute count and coverage over overlapped cells.
                for_each_overlap(&clipped, grid, |idx, inter| {
                    if inter > 0.0 {
                        cells[idx].count += inter / measure;
                        cells[idx].density += inter / cell_measure;
                    }
                });
            } else {
                let idx = unit_grid_cell(&clipped.center().coords(), grid);
                cells[idx].count += 1.0;
            }
        }
        let total_count = cells.iter().map(|c| c.count).sum();
        Self {
            grid,
            cells,
            total_count,
        }
    }

    /// Cells per dimension.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of cells, `grid^N`.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Statistics of cell `idx` (row-major).
    pub fn cell(&self, idx: usize) -> CellStats {
        self.cells[idx]
    }

    /// Total (fractional) object count over all cells.
    pub fn total_count(&self) -> f64 {
        self.total_count
    }

    /// Global density recovered from the surface:
    /// `Σ_c density_c · cell_measure`.
    pub fn global_density(&self) -> f64 {
        let cell_measure = (1.0 / self.grid as f64).powi(N as i32);
        self.cells.iter().map(|c| c.density * cell_measure).sum()
    }

    /// A skew indicator: the coefficient of variation of per-cell counts.
    /// 0 for perfectly uniform data, growing with clustering.
    pub fn count_cv(&self) -> f64 {
        let n = self.cells.len() as f64;
        let mean = self.total_count / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .cells
            .iter()
            .map(|c| (c.count - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

/// Calls `visit(idx, inter)` for each cell `r` overlaps, in the order
/// of the cell index with dimension 0 fastest, where `inter` is the
/// measure `r` shares with the cell — `r.intersection_measure` of the
/// cell's rectangle, computed in place.
fn for_each_overlap<const N: usize>(r: &Rect<N>, grid: usize, mut visit: impl FnMut(usize, f64)) {
    let g = grid as f64;
    let side = 1.0 / g;
    let mut lo_cell = [0usize; N];
    let mut hi_cell = [0usize; N];
    for k in 0..N {
        lo_cell[k] = ((r.lo_k(k) * g) as usize).min(grid - 1);
        // A rect touching a cell boundary from below should not be
        // attributed to the next cell; nudge the upper index inward.
        let hi = (r.hi_k(k) * g).ceil() as usize;
        hi_cell[k] = hi.saturating_sub(1).clamp(lo_cell[k], grid - 1);
    }
    let mut cursor = lo_cell;
    loop {
        let mut idx = 0usize;
        let mut inter = 1.0;
        for k in (0..N).rev() {
            idx = idx * grid + cursor[k];
        }
        for (k, &i) in cursor.iter().enumerate() {
            let cell_lo = i as f64 * side;
            let lo = r.lo_k(k).max(cell_lo);
            let hi = r.hi_k(k).min(cell_lo + side);
            if lo >= hi {
                inter = 0.0;
                break;
            }
            inter *= hi - lo;
        }
        visit(idx, inter);
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == N {
                return;
            }
            if cursor[k] < hi_cell[k] {
                cursor[k] += 1;
                break;
            }
            cursor[k] = lo_cell[k];
            k += 1;
        }
    }
}

/// Per-cell level parameters derived from a surface for one level `j`:
/// local node count and extent inside one cell.
fn cell_level_params<const N: usize>(
    cell: CellStats,
    total: f64,
    global_nodes: f64,
    local_density_at_level: f64,
    cell_measure: f64,
) -> Option<(f64, f64)> {
    if total <= 0.0 || cell.count <= 0.0 {
        return None;
    }
    let nodes = global_nodes * cell.count / total;
    if nodes <= 0.0 {
        return None;
    }
    // Local Eq 4: the level's local coverage (density · cell volume) is
    // shared by the cell's share of nodes.
    let s = (local_density_at_level * cell_measure / nodes).powf(1.0 / N as f64);
    Some((nodes, s))
}

/// Propagates a local data density through Eq 5 up to `levels` levels.
fn propagate_density<const N: usize>(d0: f64, fanout: f64, levels: usize) -> Vec<f64> {
    let n_inv = 1.0 / N as f64;
    let mut out = Vec::with_capacity(levels);
    let mut d = d0;
    for _ in 0..levels {
        d = (1.0 + (d.powf(n_inv) - 1.0) / fanout.powf(n_inv)).powi(N as i32);
        out.push(d);
    }
    out
}

/// Join cost estimate for non-uniform data: evaluates the join formulas
/// per grid cell with local parameters and sums. Returns `(NA, DA)`.
///
/// `profile1` / `profile2` supply the global cardinalities (tree heights
/// and global node counts stay global properties of the indexes); the
/// surfaces supply the local structure.
pub fn join_cost_nonuniform<const N: usize>(
    profile1: DataProfile,
    surface1: &DensitySurface<N>,
    profile2: DataProfile,
    surface2: &DensitySurface<N>,
    config: &ModelConfig,
) -> (f64, f64) {
    assert_eq!(
        surface1.grid(),
        surface2.grid(),
        "surfaces must share a grid for cell-wise combination"
    );
    let f = config.fanout();
    let h1 = predict_height(profile1.cardinality, config);
    let h2 = predict_height(profile2.cardinality, config);
    let schedule = level_schedule(h1, h2);
    let delta = h1.abs_diff(h2);
    let grid = surface1.grid();
    let cell_measure = (1.0 / grid as f64).powi(N as i32);
    let cell_side = 1.0 / grid as f64;

    // Global node counts per level (Eq 3).
    let nodes_at = |cardinality: u64, j: usize| -> f64 {
        (cardinality as f64 / f.powi(j as i32)).ceil().max(1.0)
    };

    let mut na = 0.0;
    let mut da = 0.0;
    for idx in 0..surface1.cell_count() {
        let c1 = surface1.cell(idx);
        let c2 = surface2.cell(idx);
        if c1.count <= 0.0 || c2.count <= 0.0 {
            continue;
        }
        let d1_levels = propagate_density::<N>(c1.density, f, h1);
        let d2_levels = propagate_density::<N>(c2.density, f, h2);
        // Per-dimension overlap probability within the cell.
        let pair_factor =
            |s1: f64, s2: f64| -> f64 { ((s1 + s2).min(cell_side) / cell_side).powi(N as i32) };
        for (step, pair) in schedule.iter().enumerate() {
            let j = step + 1;
            let p1 = cell_level_params::<N>(
                c1,
                surface1.total_count(),
                nodes_at(profile1.cardinality, pair.j1),
                d1_levels[pair.j1 - 1],
                cell_measure,
            );
            let p2 = cell_level_params::<N>(
                c2,
                surface2.total_count(),
                nodes_at(profile2.cardinality, pair.j2),
                d2_levels[pair.j2 - 1],
                cell_measure,
            );
            let (Some((n1, s1)), Some((n2, s2))) = (p1, p2) else {
                continue;
            };
            let pairs = n1 * n2 * pair_factor(s1, s2);
            na += 2.0 * pairs;

            // DA mirrors join::join_cost_da_by_level's Eq 12 branches.
            let parent_j1 = (pair.j1 + 1).min(h1);
            let (np, sp) = cell_level_params::<N>(
                c1,
                surface1.total_count(),
                nodes_at(profile1.cardinality, parent_j1),
                d1_levels[parent_j1 - 1],
                cell_measure,
            )
            .unwrap_or((n1, s1));
            let da_query = n2 * np * pair_factor(sp, s2);
            if h1 >= h2 {
                if j > delta {
                    da += pairs + da_query;
                } else {
                    da += pairs;
                }
            } else if j > delta {
                da += pairs + da_query;
            } else {
                da += 2.0 * da_query;
            }
        }
    }
    (na, da)
}

/// Join **selectivity** for non-uniform data — the second §5 future-work
/// item: expected overlapping object pairs evaluated per cell with local
/// cardinalities and local average object sizes, then summed.
///
/// On uniform data this reduces to
/// [`crate::selectivity::join_selectivity`]; on clustered data it
/// captures the co-location that the global formula misses (the global
/// estimate can be off by integer factors — see the selectivity
/// experiment).
pub fn join_selectivity_nonuniform<const N: usize>(
    surface1: &DensitySurface<N>,
    surface2: &DensitySurface<N>,
) -> f64 {
    assert_eq!(
        surface1.grid(),
        surface2.grid(),
        "surfaces must share a grid for cell-wise combination"
    );
    let grid = surface1.grid();
    let cell_measure = (1.0 / grid as f64).powi(N as i32);
    let cell_side = 1.0 / grid as f64;
    let n_inv = 1.0 / N as f64;
    let mut pairs = 0.0;
    for idx in 0..surface1.cell_count() {
        let c1 = surface1.cell(idx);
        let c2 = surface2.cell(idx);
        if c1.count <= 0.0 || c2.count <= 0.0 {
            continue;
        }
        // Local average object extent: local coverage shared by the
        // cell's objects.
        let s1 = (c1.density * cell_measure / c1.count).powf(n_inv);
        let s2 = (c2.density * cell_measure / c2.count).powf(n_inv);
        let p = ((s1 + s2).min(cell_side) / cell_side).powi(N as i32);
        pairs += c1.count * c2.count * p;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{join_cost_da, join_cost_na};
    use crate::params::TreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::Point;

    /// `DensitySurface::from_rects`'s cells as they were computed before
    /// the cells were walked in place — one `Vec` of indices per
    /// rectangle, one validated `Rect` per cell: the reference the
    /// surface must match bit for bit.
    fn reference_cells<const N: usize>(rects: &[Rect<N>], grid: usize) -> Vec<CellStats> {
        let mut cells = vec![CellStats::default(); grid.pow(N as u32)];
        let cell_measure = (1.0 / grid as f64).powi(N as i32);
        for r in rects {
            let Some(clipped) = r.clamp_to_unit() else {
                continue;
            };
            let measure = clipped.measure();
            if measure > 0.0 {
                for idx in overlapped_cells::<N>(&clipped, grid) {
                    let inter = clipped.intersection_measure(&cell_rect::<N>(idx, grid));
                    if inter > 0.0 {
                        cells[idx].count += inter / measure;
                        cells[idx].density += inter / cell_measure;
                    }
                }
            } else {
                let idx = unit_grid_cell(&clipped.center().coords(), grid);
                cells[idx].count += 1.0;
            }
        }
        cells
    }

    fn cell_rect<const N: usize>(idx: usize, grid: usize) -> Rect<N> {
        let side = 1.0 / grid as f64;
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        let mut rem = idx;
        for k in 0..N {
            let i = rem % grid;
            rem /= grid;
            lo[k] = i as f64 * side;
            hi[k] = lo[k] + side;
        }
        Rect::new(lo, hi).expect("grid cells are well-formed")
    }

    /// Indices of cells a rectangle overlaps.
    fn overlapped_cells<const N: usize>(r: &Rect<N>, grid: usize) -> Vec<usize> {
        let g = grid as f64;
        let mut lo_cell = [0usize; N];
        let mut hi_cell = [0usize; N];
        for k in 0..N {
            lo_cell[k] = ((r.lo_k(k) * g) as usize).min(grid - 1);
            // A rect touching a cell boundary from below should not be
            // attributed to the next cell; nudge the upper index inward.
            let hi = (r.hi_k(k) * g).ceil() as usize;
            hi_cell[k] = hi.saturating_sub(1).clamp(lo_cell[k], grid - 1);
        }
        let mut out = Vec::new();
        let mut cursor = lo_cell;
        loop {
            let mut idx = 0usize;
            for k in (0..N).rev() {
                idx = idx * grid + cursor[k];
            }
            out.push(idx);
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == N {
                    return out;
                }
                if cursor[k] < hi_cell[k] {
                    cursor[k] += 1;
                    break;
                }
                cursor[k] = lo_cell[k];
                k += 1;
            }
        }
    }

    fn assert_reference_surface<const N: usize>(rects: &[Rect<N>], grid: usize) {
        let surface = DensitySurface::<N>::from_rects(rects, grid);
        let bits = |c: CellStats| (c.count.to_bits(), c.density.to_bits());
        for (idx, want) in reference_cells(rects, grid).into_iter().enumerate() {
            assert_eq!(
                bits(surface.cell(idx)),
                bits(want),
                "cell {idx} of {grid}^{N}"
            );
        }
    }

    fn random_rects<const N: usize>(n: usize, max_side: f64, seed: u64) -> Vec<Rect<N>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Centers a little outside the workspace too, so that
                // clamping and whole misses are exercised.
                let c = Point::new(std::array::from_fn(|_| rng.gen_range(-0.1..1.1)));
                let sides = std::array::from_fn(|_| rng.gen_range(0.0..max_side));
                Rect::centered(c, sides)
            })
            .collect()
    }

    #[test]
    fn surface_is_the_reference_walks_bit_for_bit() {
        for grid in [1, 3, 8, 10, 16] {
            assert_reference_surface(&random_rects::<1>(500, 0.3, 1), grid);
            assert_reference_surface(&random_rects::<2>(2_000, 0.3, 2), grid);
            assert_reference_surface(&random_rects::<2>(2_000, 0.01, 3), grid);
            assert_reference_surface(&random_rects::<3>(500, 0.4, 4), grid);
            assert_reference_surface(&clustered_rects(1_000, 0.02, 5), grid);
        }
        // Zero-extent objects and objects on cell boundaries.
        let lattice: Vec<Rect<2>> = (0..=16)
            .flat_map(|i| (0..=16).map(move |j| (i, j)))
            .map(|(i, j)| {
                let (x, y) = (f64::from(i) / 16.0, f64::from(j) / 16.0);
                let (w, h) = (f64::from(j % 3) / 8.0, f64::from(i % 2) / 16.0);
                Rect::new([x, y], [x + w, y + h]).unwrap()
            })
            .collect();
        assert_reference_surface(&lattice, 8);
        assert_reference_surface(&[Rect::<2>::unit(), Rect::unit()], 8);
    }

    fn uniform_rects(n: usize, side: f64, seed: u64) -> Vec<Rect<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
                Rect::centered(c, [side, side])
                    .clamp_to_unit()
                    .expect("centered in unit space")
            })
            .collect()
    }

    fn clustered_rects(n: usize, side: f64, seed: u64) -> Vec<Rect<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Two tight clusters.
                let (cx, cy) = if rng.gen_bool(0.5) {
                    (
                        0.2 + rng.gen_range(-0.05..0.05),
                        0.2 + rng.gen_range(-0.05..0.05),
                    )
                } else {
                    (
                        0.8 + rng.gen_range(-0.05..0.05),
                        0.7 + rng.gen_range(-0.05..0.05),
                    )
                };
                Rect::centered(Point::new([cx, cy]), [side, side])
                    .clamp_to_unit()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn cell_indexing_roundtrip() {
        let grid = 4;
        for idx in 0..16usize {
            let r = cell_rect::<2>(idx, grid);
            let back = unit_grid_cell(&r.center().coords(), grid);
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn overlapped_cells_spans_rect() {
        let r = Rect::new([0.1, 0.1], [0.6, 0.3]).unwrap();
        let cells = overlapped_cells::<2>(&r, 4);
        // x spans cells 0..2 (0.1..0.6 → cells 0,1,2), y spans 0..1.
        assert_eq!(cells.len(), 6);
        for idx in cells {
            assert!(cell_rect::<2>(idx, 4).intersects(&r));
        }
    }

    #[test]
    fn boundary_touching_rect_stays_in_lower_cell() {
        // Rect exactly [0, 0.25]² on a 4-grid overlaps only cell 0 with
        // positive measure.
        let r = Rect::new([0.0, 0.0], [0.25, 0.25]).unwrap();
        let cells = overlapped_cells::<2>(&r, 4);
        assert_eq!(cells, vec![0]);
    }

    #[test]
    fn surface_recovers_global_statistics() {
        let rects = uniform_rects(5_000, 0.01, 1);
        let global_d = sjcm_geom::density(rects.iter());
        let surf = DensitySurface::<2>::from_rects(&rects, 8);
        assert!((surf.total_count() - 5_000.0).abs() < 1e-6);
        assert!(
            (surf.global_density() - global_d).abs() < 1e-9,
            "surface density {} vs global {global_d}",
            surf.global_density()
        );
    }

    #[test]
    fn uniform_data_has_low_cv_clustered_high() {
        let u = DensitySurface::<2>::from_rects(&uniform_rects(5_000, 0.01, 2), 8);
        let c = DensitySurface::<2>::from_rects(&clustered_rects(5_000, 0.01, 3), 8);
        assert!(u.count_cv() < 0.2, "uniform cv {}", u.count_cv());
        assert!(c.count_cv() > 1.0, "clustered cv {}", c.count_cv());
    }

    #[test]
    fn nonuniform_model_agrees_with_uniform_model_on_uniform_data() {
        // On uniform data, the per-cell evaluation must reproduce the
        // global formula closely.
        let n = 30_000;
        let side = (0.4f64 / n as f64).sqrt();
        let rects = uniform_rects(n, side, 4);
        let d = sjcm_geom::density(rects.iter());
        let cfg = ModelConfig::paper(2);
        let prof = DataProfile::new(n as u64, d);
        let surf = DensitySurface::<2>::from_rects(&rects, 4);
        let (na_nu, da_nu) = join_cost_nonuniform(prof, &surf, prof, &surf, &cfg);
        let p = TreeParams::<2>::from_data(prof, &cfg);
        let na_u = join_cost_na(&p, &p);
        let da_u = join_cost_da(&p, &p);
        let na_err = (na_nu - na_u).abs() / na_u;
        let da_err = (da_nu - da_u).abs() / da_u;
        assert!(na_err < 0.15, "NA mismatch {na_err:.3}: {na_nu} vs {na_u}");
        assert!(da_err < 0.15, "DA mismatch {da_err:.3}: {da_nu} vs {da_u}");
    }

    #[test]
    fn clustered_data_costs_more_than_uniform_assumption() {
        // Clustering concentrates both data sets in the same cells, so
        // the locally-evaluated cost exceeds the global-uniform estimate.
        let n = 30_000;
        let side = (0.4f64 / n as f64).sqrt();
        let rects1 = clustered_rects(n, side, 5);
        let rects2 = clustered_rects(n, side, 6);
        let cfg = ModelConfig::paper(2);
        let prof1 = DataProfile::new(n as u64, sjcm_geom::density(rects1.iter()));
        let prof2 = DataProfile::new(n as u64, sjcm_geom::density(rects2.iter()));
        let s1 = DensitySurface::<2>::from_rects(&rects1, 8);
        let s2 = DensitySurface::<2>::from_rects(&rects2, 8);
        let (na_nu, _) = join_cost_nonuniform(prof1, &s1, prof2, &s2, &cfg);
        let p1 = TreeParams::<2>::from_data(prof1, &cfg);
        let p2 = TreeParams::<2>::from_data(prof2, &cfg);
        let na_u = join_cost_na(&p1, &p2);
        assert!(
            na_nu > na_u,
            "clustered estimate {na_nu} should exceed uniform {na_u}"
        );
    }

    #[test]
    fn disjoint_clusters_cost_less_than_uniform_assumption() {
        // Data sets clustered in *different* regions rarely meet; the
        // local model sees that, the global-uniform one cannot.
        let n = 30_000;
        let side = (0.4f64 / n as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(7);
        let left: Vec<Rect<2>> = (0..n)
            .map(|_| {
                let c = Point::new([rng.gen_range(0.0..0.3), rng.gen_range(0.0..1.0)]);
                Rect::centered(c, [side, side]).clamp_to_unit().unwrap()
            })
            .collect();
        let right: Vec<Rect<2>> = (0..n)
            .map(|_| {
                let c = Point::new([rng.gen_range(0.7..1.0), rng.gen_range(0.0..1.0)]);
                Rect::centered(c, [side, side]).clamp_to_unit().unwrap()
            })
            .collect();
        let cfg = ModelConfig::paper(2);
        let prof1 = DataProfile::new(n as u64, sjcm_geom::density(left.iter()));
        let prof2 = DataProfile::new(n as u64, sjcm_geom::density(right.iter()));
        let s1 = DensitySurface::<2>::from_rects(&left, 8);
        let s2 = DensitySurface::<2>::from_rects(&right, 8);
        let (na_nu, da_nu) = join_cost_nonuniform(prof1, &s1, prof2, &s2, &cfg);
        let p1 = TreeParams::<2>::from_data(prof1, &cfg);
        let p2 = TreeParams::<2>::from_data(prof2, &cfg);
        assert!(na_nu < join_cost_na(&p1, &p2));
        assert!(da_nu < join_cost_da(&p1, &p2));
    }

    #[test]
    fn nonuniform_selectivity_reduces_to_uniform_on_uniform_data() {
        let n = 20_000;
        let side = (0.3f64 / n as f64).sqrt();
        let a = uniform_rects(n, side, 20);
        let b = uniform_rects(n, side, 21);
        let sa = DensitySurface::<2>::from_rects(&a, 4);
        let sb = DensitySurface::<2>::from_rects(&b, 4);
        let local = join_selectivity_nonuniform(&sa, &sb);
        let uniform = crate::selectivity::join_selectivity::<2>(
            DataProfile::new(n as u64, sjcm_geom::density(a.iter())),
            DataProfile::new(n as u64, sjcm_geom::density(b.iter())),
        );
        let err = (local - uniform).abs() / uniform;
        assert!(err < 0.10, "local {local:.0} vs uniform {uniform:.0}");
    }

    #[test]
    fn nonuniform_selectivity_sees_co_location() {
        // Both sets clustered in the same spots: the local estimate must
        // exceed the global-uniform one substantially.
        let n = 20_000;
        let side = (0.3f64 / n as f64).sqrt();
        let a = clustered_rects(n, side, 22);
        let b = clustered_rects(n, side, 23);
        let sa = DensitySurface::<2>::from_rects(&a, 8);
        let sb = DensitySurface::<2>::from_rects(&b, 8);
        let local = join_selectivity_nonuniform(&sa, &sb);
        let uniform = crate::selectivity::join_selectivity::<2>(
            DataProfile::new(n as u64, sjcm_geom::density(a.iter())),
            DataProfile::new(n as u64, sjcm_geom::density(b.iter())),
        );
        assert!(
            local > uniform * 2.0,
            "local {local:.0} should dwarf uniform {uniform:.0} on co-located clusters"
        );
    }

    #[test]
    fn empty_surface_is_free() {
        let cfg = ModelConfig::paper(2);
        let empty = DensitySurface::<2>::from_rects(&[], 4);
        let some = DensitySurface::<2>::from_rects(&uniform_rects(1000, 0.01, 8), 4);
        let (na, da) = join_cost_nonuniform(
            DataProfile::new(0, 0.0),
            &empty,
            DataProfile::new(1000, 0.1),
            &some,
            &cfg,
        );
        assert_eq!(na, 0.0);
        assert_eq!(da, 0.0);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_grids_rejected() {
        let cfg = ModelConfig::paper(2);
        let a = DensitySurface::<2>::from_rects(&[], 4);
        let b = DensitySurface::<2>::from_rects(&[], 8);
        join_cost_nonuniform(
            DataProfile::new(1, 0.0),
            &a,
            DataProfile::new(1, 0.0),
            &b,
            &cfg,
        );
    }
}
