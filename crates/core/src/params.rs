//! R-tree parameter prediction (Eqs 2–5 of the paper, from \[TS96\]).
//!
//! Given only `(N, D)` and the index constants `(M, c)`, these formulas
//! predict everything the cost model needs about the tree that *would*
//! be built over the data:
//!
//! * **Eq 2** — height: `h = 1 + ⌈log_{cM}(N / cM)⌉`
//! * **Eq 3** — nodes per level: `N_j = ⌈N / (cM)^j⌉`
//! * **Eq 5** — node-rectangle density per level:
//!   `D_j = (1 + (D_{j-1}^{1/n} − 1) / (cM)^{1/n})^n`, with `D_0 = D`
//! * **Eq 4** — average node extent (square-node assumption):
//!   `s_{j,k} = (D_j / N_j)^{1/n}`
//!
//! Levels use the **paper's numbering**: leaves are level `j = 1`, the
//! root is level `j = h`.

use crate::config::{DataProfile, ModelConfig};

/// Predicted (or measured) parameters of one tree level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelParams<const N: usize> {
    /// Number of nodes at this level, `N_j`. Kept as `f64`: the measured
    /// variant is integral, but intermediate analytic values are not.
    pub nodes: f64,
    /// Average node extent per dimension, `s_{j,k}`.
    pub extents: [f64; N],
    /// Density of node rectangles at this level, `D_j`.
    pub density: f64,
}

/// Predicted or measured per-level parameters of an R-tree, the common
/// input format of the range- and join-cost formulas.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams<const N: usize> {
    levels: Vec<LevelParams<N>>,
}

impl<const N: usize> TreeParams<N> {
    /// Predicts the parameters from primitive data properties (Eqs 2–5).
    /// This is the paper's headline mode: no index inspection.
    pub fn from_data(profile: DataProfile, config: &ModelConfig) -> Self {
        let f = config.fanout();
        assert!(f > 1.0, "effective fanout must exceed 1");
        let n_objects = profile.cardinality as f64;
        let h = predict_height(profile.cardinality, config);
        let n_inv = 1.0 / N as f64;
        let mut levels = Vec::with_capacity(h);
        let mut density = profile.density; // D_0
        for j in 1..=h {
            // Eq 5: density propagates from the level below.
            density = (1.0 + (density.powf(n_inv) - 1.0) / f.powf(n_inv)).powi(N as i32);
            // Eq 3.
            let nodes = (n_objects / f.powi(j as i32)).ceil().max(1.0);
            // Eq 4.
            let s = (density / nodes).powf(n_inv);
            levels.push(LevelParams {
                nodes,
                extents: [s; N],
                density,
            });
        }
        Self { levels }
    }

    /// Builds parameters from explicit per-level values — the "measured
    /// parameters" mode: a built tree's `TreeStats` (the ablation
    /// experiments, EXPLAIN ANALYZE's post-hoc re-estimate) and a
    /// subtree's shape (the governor's admission price, the parallel
    /// join's unit prices).
    /// `levels[0]` is the leaf level `j = 1`.
    pub fn from_levels(levels: Vec<LevelParams<N>>) -> Self {
        assert!(!levels.is_empty(), "a tree has at least one level");
        Self { levels }
    }

    /// Height `h` (number of levels, root included).
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Parameters of paper level `j ∈ [1, h]`.
    #[inline]
    pub fn level(&self, j: usize) -> &LevelParams<N> {
        assert!(j >= 1 && j <= self.levels.len(), "level {j} out of range");
        &self.levels[j - 1]
    }

    /// All levels, leaf first.
    pub fn levels(&self) -> &[LevelParams<N>] {
        &self.levels
    }
}

/// Eq 2: `h = 1 + ⌈log_{cM}(N / cM)⌉`, clamped to at least 1.
///
/// A small relative epsilon absorbs floating-point fuzz at exact powers
/// of the fanout (e.g. `N = f²` must give `h = 2`, not 3).
pub fn height_eq2(cardinality: u64, fanout: f64) -> usize {
    if cardinality == 0 {
        return 1;
    }
    let n = cardinality as f64;
    if n <= fanout {
        return 1;
    }
    let raw = (n / fanout).ln() / fanout.ln();
    1 + (raw - 1e-9).ceil().max(1.0) as usize
}

/// Root-aware height: the smallest `h` with `N ≤ M · (cM)^{h−1}` — like
/// Eq 2 but letting the root fill to its hard capacity `M` instead of
/// the average `c·M`. See [`crate::config::HeightFormula::RootAware`].
pub fn height_root_aware(cardinality: u64, fanout: f64, max_entries: usize) -> usize {
    if cardinality == 0 {
        return 1;
    }
    let n = cardinality as f64;
    if n <= max_entries as f64 {
        return 1;
    }
    let raw = (n / max_entries as f64).ln() / fanout.ln();
    1 + (raw - 1e-9).ceil().max(1.0) as usize
}

/// Predicted height under the configured formula.
pub fn predict_height(cardinality: u64, config: &ModelConfig) -> usize {
    match config.height_formula {
        crate::config::HeightFormula::Eq2 => height_eq2(cardinality, config.fanout()),
        crate::config::HeightFormula::RootAware => {
            height_root_aware(cardinality, config.fanout(), config.max_entries)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper2() -> ModelConfig {
        ModelConfig::paper(2)
    }

    #[test]
    fn height_small_sets_fit_in_root() {
        assert_eq!(height_eq2(0, 33.5), 1);
        assert_eq!(height_eq2(1, 33.5), 1);
        assert_eq!(height_eq2(33, 33.5), 1);
        assert_eq!(height_eq2(34, 33.5), 2);
    }

    #[test]
    fn height_exact_powers() {
        // N = f² packs into h = 2 exactly (f leaves under one root); the
        // epsilon guard must keep ceil from jumping to 3 on fp fuzz. One
        // more object than f² forces h = 3.
        let f = 32.0;
        assert_eq!(height_eq2(1024, f), 2);
        assert_eq!(height_eq2(1025, f), 3);
        assert_eq!(height_eq2(32 * 1024, f), 3);
        assert_eq!(height_eq2(32 * 1024 + 1, f), 4);
    }

    #[test]
    fn paper_heights_one_dimensional() {
        // §4: all 1-D indexes of 20K ≤ N ≤ 80K have h = 3 (f = 56.28).
        let f = ModelConfig::paper(1).fanout();
        for n in [20_000u64, 40_000, 60_000, 80_000] {
            assert_eq!(height_eq2(n, f), 3, "N = {n}");
        }
    }

    #[test]
    fn paper_heights_two_dimensional() {
        // §4 / Figure 6b: h = 3 for small N, h = 4 for 60K–80K. With the
        // paper's c = 0.67 the analytic boundary falls at
        // f³ = 33.5³ ≈ 37.6K, so 20K gives 3 and 60K/80K give 4. (40K is
        // a documented boundary case: the built R*-trees have h = 3, the
        // analytic height is 4 — see EXPERIMENTS.md.)
        let f = paper2().fanout();
        assert_eq!(height_eq2(20_000, f), 3);
        assert_eq!(height_eq2(60_000, f), 4);
        assert_eq!(height_eq2(80_000, f), 4);
    }

    #[test]
    fn eq3_node_counts_decay_by_fanout() {
        let p = TreeParams::<2>::from_data(DataProfile::new(60_000, 0.4), &paper2());
        assert_eq!(p.height(), 4);
        let f = paper2().fanout();
        assert_eq!(p.level(1).nodes, (60_000.0 / f).ceil());
        assert_eq!(p.level(2).nodes, (60_000.0 / f / f).ceil());
        assert_eq!(p.level(p.height()).nodes, 1.0, "root is a single node");
        // Monotone decreasing.
        for j in 1..p.height() {
            assert!(p.level(j).nodes >= p.level(j + 1).nodes);
        }
    }

    #[test]
    fn eq5_density_grows_toward_one_from_below() {
        // For D < 1, node density increases with level but stays < 1.
        let p = TreeParams::<2>::from_data(DataProfile::new(60_000, 0.5), &paper2());
        let mut prev = 0.5;
        for j in 1..=p.height() {
            let d = p.level(j).density;
            assert!(d > prev, "D_{j} = {d} should exceed {prev}");
            assert!(d < 1.0);
            prev = d;
        }
    }

    #[test]
    fn eq5_density_shrinks_toward_one_from_above() {
        // For D > 1 the same recurrence decreases toward 1.
        let p = TreeParams::<2>::from_data(DataProfile::new(60_000, 3.0), &paper2());
        let mut prev = 3.0;
        for j in 1..=p.height() {
            let d = p.level(j).density;
            assert!(d < prev);
            assert!(d > 1.0);
            prev = d;
        }
    }

    #[test]
    fn eq5_zero_density_points() {
        // Point data (D = 0) still yields positive node densities: nodes
        // must cover their entries' spread.
        let p = TreeParams::<2>::from_data(DataProfile::new(60_000, 0.0), &paper2());
        for j in 1..=p.height() {
            assert!(p.level(j).density > 0.0);
            assert!(p.level(j).extents[0] > 0.0);
        }
    }

    #[test]
    fn eq4_extents_are_square_and_consistent() {
        let p = TreeParams::<2>::from_data(DataProfile::new(40_000, 0.5), &paper2());
        for j in 1..=p.height() {
            let l = p.level(j);
            assert_eq!(l.extents[0], l.extents[1], "square-node assumption");
            let s = (l.density / l.nodes).sqrt();
            assert!((l.extents[0] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn extents_grow_with_level() {
        let p = TreeParams::<2>::from_data(DataProfile::new(80_000, 0.5), &paper2());
        for j in 1..p.height() {
            assert!(
                p.level(j + 1).extents[0] > p.level(j).extents[0],
                "node extents must grow toward the root"
            );
        }
    }

    #[test]
    fn one_dimensional_params() {
        let cfg = ModelConfig::paper(1);
        let p = TreeParams::<1>::from_data(DataProfile::new(20_000, 0.5), &cfg);
        assert_eq!(p.height(), 3);
        // In 1-D, Eq 4 degenerates to s = D_j / N_j.
        let l = p.level(1);
        assert!((l.extents[0] - l.density / l.nodes).abs() < 1e-15);
    }

    #[test]
    fn from_levels_roundtrip() {
        let levels = vec![
            LevelParams::<2> {
                nodes: 100.0,
                extents: [0.01, 0.02],
                density: 0.3,
            },
            LevelParams::<2> {
                nodes: 1.0,
                extents: [0.9, 0.8],
                density: 0.72,
            },
        ];
        let p = TreeParams::from_levels(levels.clone());
        assert_eq!(p.height(), 2);
        assert_eq!(p.level(1), &levels[0]);
        assert_eq!(p.level(2), &levels[1]);
        assert_eq!(p.levels(), &levels[..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_zero_is_invalid() {
        let p = TreeParams::<2>::from_data(DataProfile::new(1000, 0.1), &paper2());
        p.level(0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn from_levels_rejects_empty() {
        TreeParams::<2>::from_levels(vec![]);
    }
}
