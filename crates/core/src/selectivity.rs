//! Join selectivity estimation — the §5 "future work" item, implemented
//! as an extension.
//!
//! The paper's conclusion sketches the approach: apply the range-query
//! selectivity formula of \[TS96\] with one data set playing the query
//! role. Under the uniform model, two objects with average extents `s1`
//! and `s2` overlap with probability `Π_k min{1, s1_k + s2_k}`, so the
//! expected number of overlapping pairs at the leaf level is
//! `N1 · N2 · Π_k min{1, s1_k + s2_k}`.

use crate::config::DataProfile;

/// Expected number of overlapping `(object1, object2)` pairs of a spatial
/// join between two data sets, from their primitive properties only.
///
/// ```
/// use sjcm_core::{selectivity::join_selectivity, DataProfile};
/// let pairs = join_selectivity::<2>(
///     DataProfile::new(10_000, 0.25),
///     DataProfile::new(10_000, 0.25),
/// );
/// assert!(pairs > 0.0);
/// assert!(pairs <= 10_000.0 * 10_000.0);
/// ```
pub fn join_selectivity<const N: usize>(d1: DataProfile, d2: DataProfile) -> f64 {
    let s1 = d1.avg_extent(N);
    let s2 = d2.avg_extent(N);
    let mut pairs = d1.cardinality as f64 * d2.cardinality as f64;
    for _ in 0..N {
        pairs *= (s1 + s2).min(1.0);
    }
    pairs
}

/// Expected number of pairs of a **distance join** (objects within
/// Euclidean distance ε, modeled through the L∞ Minkowski window of
/// \[PT97\]): each per-dimension factor grows by `2ε`.
pub fn distance_join_selectivity<const N: usize>(
    d1: DataProfile,
    d2: DataProfile,
    eps: f64,
) -> f64 {
    assert!(eps >= 0.0, "distance must be non-negative");
    let s1 = d1.avg_extent(N);
    let s2 = d2.avg_extent(N);
    let mut pairs = d1.cardinality as f64 * d2.cardinality as f64;
    for _ in 0..N {
        pairs *= (s1 + s2 + 2.0 * eps).min(1.0);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_selectivity() {
        // s1 = s2 = sqrt(0.25/10_000) = 0.005 → factor 0.01 per dim.
        let d = DataProfile::new(10_000, 0.25);
        let pairs = join_selectivity::<2>(d, d);
        assert!((pairs - 1e8 * 1e-4).abs() < 1e-3); // 10 000 pairs
    }

    #[test]
    fn fraction_in_unit_interval() {
        let a = DataProfile::new(5_000, 0.4);
        let b = DataProfile::new(20_000, 0.1);
        let pairs = join_selectivity::<2>(a, b);
        assert!((0.0..=5_000.0 * 20_000.0).contains(&pairs));
    }

    #[test]
    fn empty_sets_yield_zero() {
        let a = DataProfile::new(0, 0.0);
        let b = DataProfile::new(1_000, 0.5);
        assert_eq!(join_selectivity::<2>(a, b), 0.0);
    }

    #[test]
    fn selectivity_monotone_in_density() {
        let n = 10_000;
        let lo = join_selectivity::<2>(DataProfile::new(n, 0.1), DataProfile::new(n, 0.1));
        let hi = join_selectivity::<2>(DataProfile::new(n, 0.8), DataProfile::new(n, 0.8));
        assert!(hi > lo);
    }

    #[test]
    fn huge_objects_clamp_to_cartesian_product() {
        // Density so high that every pair overlaps.
        let d = DataProfile::new(100, 10_000.0);
        let pairs = join_selectivity::<2>(d, d);
        assert!((pairs - 100.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn distance_join_reduces_to_overlap_at_zero_eps() {
        let a = DataProfile::new(3_000, 0.2);
        let b = DataProfile::new(7_000, 0.3);
        assert_eq!(
            distance_join_selectivity::<2>(a, b, 0.0),
            join_selectivity::<2>(a, b)
        );
    }

    #[test]
    fn distance_join_monotone_in_eps() {
        let a = DataProfile::new(3_000, 0.2);
        let b = DataProfile::new(7_000, 0.3);
        let mut prev = 0.0;
        for i in 0..=10 {
            let eps = i as f64 / 20.0;
            let v = distance_join_selectivity::<2>(a, b, eps);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn distance_join_rejects_negative_eps() {
        let d = DataProfile::new(10, 0.1);
        distance_join_selectivity::<2>(d, d, -0.1);
    }

    #[test]
    fn one_dimensional_selectivity() {
        // Intervals: s = D/N directly.
        let a = DataProfile::new(1_000, 0.5); // s = 5e-4
        let pairs = join_selectivity::<1>(a, a);
        assert!((pairs - 1_000.0 * 1_000.0 * 1e-3).abs() < 1e-6);
    }
}
