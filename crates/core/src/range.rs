//! Range-query cost (Eq 1) and the shared `intsect` primitive.

use crate::params::TreeParams;
use sjcm_geom::Rect;

/// The `intsect` function of the paper:
/// `intsect(N, s, q) = N · Π_k min{1, (s_k + q_k)}` — the expected number
/// of rectangles (average extents `s`) out of `N` uniformly placed in the
/// unit workspace that intersect a query window of extents `q`.
///
/// The `min{1, ·}` clamp keeps each per-dimension intersection
/// probability a probability; Eq 1 as printed omits it, `intsect` has it,
/// and \[TS96\] clamps — this crate clamps everywhere.
pub fn intsect<const N: usize>(count: f64, s: &[f64; N], q: &[f64; N]) -> f64 {
    let mut p = count;
    for k in 0..N {
        p *= (s[k] + q[k]).min(1.0);
    }
    p
}

/// Eq 1: expected node accesses of a range query with window extents `q`
/// over a tree with parameters `params`:
/// `NA(q) = Σ_{j=1}^{h−1} N_j · Π_k min{1, (s_{j,k} + q_k)}`.
///
/// The sum stops below the root (level `h`) because the root is assumed
/// memory-resident; a height-1 tree therefore costs 0.
pub fn range_query_cost<const N: usize>(params: &TreeParams<N>, q: &[f64; N]) -> f64 {
    let h = params.height();
    let mut total = 0.0;
    for j in 1..h {
        let l = params.level(j);
        total += intsect(l.nodes, &l.extents, q);
    }
    total
}

/// Eq 1's per-node factor for a window whose *position* is known: the
/// probability that a node of average extents `s`, somewhere in the unit
/// workspace, meets `window`. A node meets the window iff its centre lies
/// within `s_k / 2` of it in every dimension, so the factor is the
/// measure of the window grown by `s / 2` — `Π_k (s_k + q_k)`, exactly
/// `intsect`'s — except that the part of that margin falling outside
/// the workspace, where no node can be centred, does not count. For a
/// window at least `s / 2` inside the workspace this *is* Eq 1's factor;
/// for one on the boundary ("west of the 7th meridian") Eq 1 as printed
/// overcounts by up to `s_k / 2` per clipped side, which at the upper
/// levels of a tree is a large share of `s_k + q_k`.
pub fn window_probability<const N: usize>(s: &[f64; N], window: &Rect<N>) -> f64 {
    s.iter()
        .enumerate()
        .map(|(k, s_k)| {
            let lo = (window.lo_k(k) - s_k / 2.0).max(0.0);
            let hi = (window.hi_k(k) + s_k / 2.0).min(1.0);
            (hi - lo).clamp(0.0, 1.0)
        })
        .product()
}

/// Eq 1 for a window whose position is known: [`range_query_cost`] with
/// each level's `Π_k min{1, s_{j,k} + q_k}` replaced by
/// [`window_probability`] — the same number for a window in the
/// interior of the workspace.
pub fn range_query_cost_at<const N: usize>(params: &TreeParams<N>, window: &Rect<N>) -> f64 {
    (1..params.height())
        .map(|j| {
            let l = params.level(j);
            l.nodes * window_probability(&l.extents, window)
        })
        .sum()
}

/// Expected number of *objects* a range query retrieves (the range-query
/// selectivity of \[TS96\]): `N · Π_k min{1, (s_k + q_k)}` with `s` the
/// average object extent `(D/N)^{1/n}`.
pub fn range_selectivity<const N: usize>(cardinality: u64, density: f64, q: &[f64; N]) -> f64 {
    if cardinality == 0 {
        return 0.0;
    }
    let s = (density / cardinality as f64).powf(1.0 / N as f64);
    intsect(cardinality as f64, &[s; N], q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataProfile, ModelConfig};

    fn params(n_obj: u64, d: f64) -> TreeParams<2> {
        TreeParams::from_data(DataProfile::new(n_obj, d), &ModelConfig::paper(2))
    }

    #[test]
    fn intsect_hand_computed() {
        // 100 nodes of extent 0.1 × 0.1, window 0.2 × 0.3:
        // 100 · 0.3 · 0.4 = 12.
        let v = intsect(100.0, &[0.1, 0.1], &[0.2, 0.3]);
        assert!((v - 12.0).abs() < 1e-12);
    }

    #[test]
    fn intsect_clamps_each_dimension() {
        // s + q > 1 in dim 0 clamps to probability 1.
        let v = intsect(10.0, &[0.8, 0.1], &[0.5, 0.1]);
        assert!((v - 10.0 * 1.0 * 0.2).abs() < 1e-12);
        // Whole-space window touches everything.
        let all = intsect(10.0, &[0.01, 0.01], &[1.0, 1.0]);
        assert!((all - 10.0).abs() < 1e-12);
    }

    #[test]
    fn point_query_cost_positive() {
        // A point query (q = 0) still pays s_j per level.
        let p = params(60_000, 0.5);
        let cost = range_query_cost(&p, &[0.0, 0.0]);
        assert!(cost > 0.0);
        // And it is the minimum over window sizes.
        assert!(cost < range_query_cost(&p, &[0.1, 0.1]));
    }

    #[test]
    fn whole_space_query_touches_every_nonroot_node() {
        let p = params(60_000, 0.5);
        let cost = range_query_cost(&p, &[1.0, 1.0]);
        let expected: f64 = (1..p.height()).map(|j| p.level(j).nodes).sum();
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn cost_monotone_in_window() {
        let p = params(40_000, 0.3);
        let mut prev = 0.0;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let c = range_query_cost(&p, &[q, q]);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn cost_monotone_in_cardinality() {
        let q = [0.05, 0.05];
        let c20 = range_query_cost(&params(20_000, 0.5), &q);
        let c80 = range_query_cost(&params(80_000, 0.5), &q);
        assert!(c80 > c20);
    }

    #[test]
    fn height_one_tree_costs_nothing() {
        let p = TreeParams::<2>::from_data(DataProfile::new(20, 0.01), &ModelConfig::paper(2));
        assert_eq!(p.height(), 1);
        assert_eq!(range_query_cost(&p, &[0.5, 0.5]), 0.0);
    }

    #[test]
    fn positioned_window_is_eq_1_in_the_interior_and_clipped_at_the_boundary() {
        let p = params(20_000, 0.5);
        // At least half a node extent inside at every level: identical
        // to Eq 1 on the window's extents.
        let inner = Rect::new([0.35, 0.35], [0.6, 0.65]).unwrap();
        assert!((1..p.height()).all(|j| p.level(j).extents[0] / 2.0 < 0.35));
        let eq1 = range_query_cost(&p, &inner.extents());
        assert!((range_query_cost_at(&p, &inner) - eq1).abs() < 1e-9);
        // The same window pushed into the corner loses half a node
        // extent per clipped side, level by level.
        let corner = Rect::new([0.0, 0.0], [0.2, 0.3]).unwrap();
        let manual: f64 = (1..p.height())
            .map(|j| {
                let l = p.level(j);
                l.nodes * (0.2 + l.extents[0] / 2.0).min(1.0) * (0.3 + l.extents[1] / 2.0).min(1.0)
            })
            .sum();
        assert!((range_query_cost_at(&p, &corner) - manual).abs() < 1e-9);
        assert!(range_query_cost_at(&p, &corner) < eq1);
        // Covering the workspace touches every node; missing it, none.
        let all = Rect::new([-1.0, -1.0], [2.0, 2.0]).unwrap();
        assert_eq!(window_probability(&[0.1, 0.1], &all), 1.0);
        let none = Rect::new([2.0, 2.0], [3.0, 3.0]).unwrap();
        assert_eq!(window_probability(&[0.1, 0.1], &none), 0.0);
    }

    #[test]
    fn selectivity_bounds() {
        let q = [0.1, 0.1];
        let sel = range_selectivity::<2>(10_000, 0.5, &q);
        assert!(sel > 0.0);
        assert!(sel <= 10_000.0);
        assert_eq!(range_selectivity::<2>(0, 0.0, &q), 0.0);
        // Whole-space query returns everything.
        let all = range_selectivity::<2>(10_000, 0.5, &[1.0, 1.0]);
        assert!((all - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn one_dimensional_range_cost() {
        let p = TreeParams::<1>::from_data(DataProfile::new(20_000, 0.5), &ModelConfig::paper(1));
        let c = range_query_cost(&p, &[0.01]);
        assert!(c > 0.0);
        // h = 3 → two levels contribute.
        let manual: f64 = (1..3)
            .map(|j| p.level(j).nodes * (p.level(j).extents[0] + 0.01).min(1.0))
            .sum();
        assert!((c - manual).abs() < 1e-9);
    }
}
