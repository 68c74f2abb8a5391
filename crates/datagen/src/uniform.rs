//! Uniform ("random") rectangle sets with exact target density.
//!
//! The paper's synthetic workloads are specified by `(N, D)` only. For a
//! target density `D`, the average object measure must be `D / N`; the
//! generator draws square objects of exactly that measure (optionally
//! jittering the aspect ratio while preserving the measure) and places
//! their centers so the object stays inside the unit workspace, which
//! keeps the realized density exactly `D`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm_geom::{Point, Rect};

/// Configuration of the uniform generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformConfig {
    /// Number of rectangles, the paper's `N`.
    pub cardinality: usize,
    /// Target density `D` (sum of measures over the unit workspace).
    pub density: f64,
    /// Aspect-ratio jitter in `[0, 1)`: 0 draws squares; larger values
    /// scale each dimension by a random factor in `[1−j, 1+j]` …
    /// renormalized so the measure (hence the density) is unchanged.
    pub aspect_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UniformConfig {
    /// Squares of exact density, the paper's baseline workload.
    pub fn new(cardinality: usize, density: f64, seed: u64) -> Self {
        assert!(density >= 0.0 && density.is_finite());
        Self {
            cardinality,
            density,
            aspect_jitter: 0.0,
            seed,
        }
    }

    /// Enables aspect-ratio jitter.
    pub fn with_aspect_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter));
        self.aspect_jitter = jitter;
        self
    }
}

/// Generates the rectangle set described by `config` in `N` dimensions.
pub fn generate<const N: usize>(config: UniformConfig) -> Vec<Rect<N>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let count = config.cardinality;
    if count == 0 {
        return Vec::new();
    }
    let avg_measure = config.density / count as f64;
    let base_side = crate::nth_root::<N>(avg_measure);
    assert!(
        base_side <= 1.0,
        "density {} over {count} objects needs sides > 1",
        config.density
    );
    (0..count)
        .map(|_| {
            let mut sides = [base_side; N];
            if config.aspect_jitter > 0.0 {
                let mut measure = 1.0;
                for s in sides.iter_mut() {
                    let f = rng.gen_range(1.0 - config.aspect_jitter..=1.0 + config.aspect_jitter);
                    *s *= f;
                    measure *= f;
                }
                // Renormalize so the object's measure is exactly
                // avg_measure again.
                let fix = crate::nth_root::<N>(measure);
                for s in sides.iter_mut() {
                    *s /= fix;
                    // Jitter must never push a side past the workspace.
                    *s = s.min(1.0);
                }
            }
            let mut center = [0.0; N];
            for k in 0..N {
                let half = sides[k] / 2.0;
                center[k] = rng.gen_range(half..=1.0 - half);
            }
            Rect::centered(Point::new(center), sides)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcm_geom::density;

    #[test]
    fn exact_density_squares() {
        let rects = generate::<2>(UniformConfig::new(10_000, 0.5, 1));
        assert_eq!(rects.len(), 10_000);
        let d = density(rects.iter());
        assert!((d - 0.5).abs() < 1e-9, "density {d}");
        for r in &rects {
            assert!(r.in_unit_space());
            assert!((r.extent(0) - r.extent(1)).abs() < 1e-12, "squares");
        }
    }

    #[test]
    fn exact_density_with_jitter() {
        let rects = generate::<2>(UniformConfig::new(5_000, 0.3, 2).with_aspect_jitter(0.5));
        let d = density(rects.iter());
        assert!((d - 0.3).abs() < 1e-9, "density {d}");
        // Jitter actually varies the aspect.
        let distinct_aspects = rects
            .iter()
            .filter(|r| (r.extent(0) - r.extent(1)).abs() > 1e-9)
            .count();
        assert!(distinct_aspects > 4_000);
        for r in &rects {
            assert!(r.in_unit_space());
        }
    }

    /// The rectangle whose x-interval a debug build once drew one ulp
    /// away from a release build's; the pin holds in both profiles.
    #[test]
    fn jittered_draws_are_the_release_builds_in_every_profile() {
        let rects = generate::<2>(UniformConfig::new(60_000, 0.5, 7).with_aspect_jitter(0.5));
        let r = rects[49_988];
        let bits = [r.lo_k(0), r.hi_k(0), r.lo_k(1), r.hi_k(1)].map(f64::to_bits);
        let want = [
            0x3fd7_9854_e166_2481,
            0x3fd7_d3f1_61f1_360f,
            0x3fb4_4ce9_b1a9_7503,
            0x3fb4_e304_18c7_6633,
        ];
        assert_eq!(bits, want, "{bits:#018x?}");
    }

    #[test]
    fn one_dimensional_intervals() {
        let rects = generate::<1>(UniformConfig::new(20_000, 0.5, 3));
        let d = density(rects.iter());
        assert!((d - 0.5).abs() < 1e-9);
        // Interval length = D/N.
        assert!((rects[0].extent(0) - 2.5e-5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate::<2>(UniformConfig::new(100, 0.2, 9));
        let b = generate::<2>(UniformConfig::new(100, 0.2, 9));
        let c = generate::<2>(UniformConfig::new(100, 0.2, 10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_density_gives_points() {
        let rects = generate::<2>(UniformConfig::new(100, 0.0, 4));
        for r in &rects {
            assert_eq!(r.measure(), 0.0);
        }
    }

    #[test]
    fn empty_set() {
        assert!(generate::<2>(UniformConfig::new(0, 0.5, 5)).is_empty());
    }

    #[test]
    fn centers_cover_the_workspace() {
        // Spot-check the placement is not degenerate: all four quadrants
        // are populated.
        let rects = generate::<2>(UniformConfig::new(2_000, 0.1, 6));
        let mut quadrants = [0usize; 4];
        for r in &rects {
            let c = r.center();
            let q = usize::from(c[0] > 0.5) * 2 + usize::from(c[1] > 0.5);
            quadrants[q] += 1;
        }
        for (i, &q) in quadrants.iter().enumerate() {
            assert!(q > 300, "quadrant {i} only has {q} rects");
        }
    }

    #[test]
    #[should_panic(expected = "sides > 1")]
    fn rejects_impossible_density() {
        generate::<2>(UniformConfig::new(1, 2.0, 7));
    }
}
