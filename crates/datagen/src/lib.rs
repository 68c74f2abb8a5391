//! Seeded synthetic data generators for the spatial-join cost-model
//! experiments.
//!
//! §4 of the paper evaluates on three families of data, all reproduced
//! here:
//!
//! * [`uniform`] — "random" data sets: `N ∈ [20K, 80K]` rectangles of
//!   exact target density `D ∈ [0.2, 0.8]`, uniformly placed in the unit
//!   workspace.
//! * [`skewed`] — non-uniform synthetic data: Gaussian cluster fields
//!   and power-law (Zipf-like) coordinate skew.
//! * [`tiger`] — a **substitution** for the TIGER/Line census files used
//!   in the paper (real U.S. road/hydrography data, not redistributable
//!   here): seeded random-walk polyline networks whose segment MBRs have
//!   the same statistical character — many small, thin, spatially
//!   correlated rectangles with highly non-uniform local density. See
//!   DESIGN.md ("Substitutions") for the rationale.
//!
//! Every generator is a deterministic function of its seed, so every
//! experiment in the repository is bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod skewed;
pub mod tiger;
pub mod uniform;

use sjcm_geom::Rect;

/// The `N`-th root of `x`, the same in every build profile. For `N = 2`
/// it is `sqrt`: an optimized build lowers `powf(x, 0.5)` to `sqrt`,
/// while a debug build calls the platform `pow`, which differs from it in
/// the last ulp on about one input in 1 200 — so debug tests and the
/// release benchmark and `results/` drew different rectangles. For other
/// `N` both profiles call `pow`, and `N = 1` is exact.
pub(crate) fn nth_root<const N: usize>(x: f64) -> f64 {
    if N == 2 {
        x.sqrt()
    } else {
        x.powf(1.0 / N as f64)
    }
}

/// Attaches sequential raw object ids (0, 1, 2, …) to a rectangle list;
/// callers wrap them in `sjcm_rtree::ObjectId` (this crate sits below the
/// tree crate in the dependency graph).
pub fn with_ids<const N: usize>(rects: Vec<Rect<N>>) -> Vec<(Rect<N>, u32)> {
    rects
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u32))
        .collect()
}

/// Uniformly placed query windows of fixed extents, for range-query
/// experiments. Windows are fully contained in the unit workspace.
pub fn query_windows<const N: usize>(count: usize, extents: [f64; N], seed: u64) -> Vec<Rect<N>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut lo = [0.0; N];
            let mut hi = [0.0; N];
            for k in 0..N {
                let e = extents[k].clamp(0.0, 1.0);
                let start = rng.gen_range(0.0..=(1.0 - e));
                lo[k] = start;
                hi[k] = start + e;
            }
            Rect::new(lo, hi).expect("window construction is well-formed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_ids_is_sequential() {
        let rects = vec![Rect::<2>::unit(); 3];
        let items = with_ids(rects);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].1, 0);
        assert_eq!(items[2].1, 2);
    }

    #[test]
    fn query_windows_in_unit_space() {
        let windows = query_windows::<2>(100, [0.25, 0.1], 7);
        assert_eq!(windows.len(), 100);
        for w in &windows {
            assert!(w.in_unit_space());
            assert!((w.extent(0) - 0.25).abs() < 1e-12);
            assert!((w.extent(1) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn query_windows_deterministic_per_seed() {
        let a = query_windows::<2>(10, [0.1, 0.1], 42);
        let b = query_windows::<2>(10, [0.1, 0.1], 42);
        let c = query_windows::<2>(10, [0.1, 0.1], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn full_extent_window_is_workspace() {
        let w = query_windows::<1>(1, [1.0], 1);
        assert_eq!(w[0], Rect::unit());
    }
}
