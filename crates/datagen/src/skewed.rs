//! Skewed (non-uniform) synthetic data.
//!
//! The paper's §4.2 evaluates the model on "skewed distributions …
//! constructed by using random number generators" without further
//! detail. Two standard skew families are provided:
//!
//! * [`gaussian_clusters`] — a cluster field: object centers are drawn
//!   from a mixture of isotropic Gaussians with uniformly placed means.
//! * [`power_law`] — coordinate skew: each center coordinate is
//!   `u^θ` for uniform `u`, concentrating mass near the origin for
//!   `θ > 1` (a Zipf-like marginal).
//!
//! Both clamp objects into the unit workspace and draw square objects of
//! a given *average* measure, so the realized density is close to (but,
//! unlike the uniform generator, not exactly) the target — matching how
//! real skewed data behaves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_normal::sample_normal;
use sjcm_geom::{Point, Rect};

// A tiny Box–Muller shim: `rand` (without rand_distr, which is not in
// the approved crate list) only gives uniform samples.
mod rand_distr_normal {
    use rand::Rng;

    /// One standard-normal sample via Box–Muller.
    pub fn sample_normal(rng: &mut impl Rng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Configuration of the Gaussian-cluster generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of rectangles.
    pub cardinality: usize,
    /// Target density (approximate; see module docs).
    pub density: f64,
    /// Number of cluster centers.
    pub clusters: usize,
    /// Standard deviation of each cluster, in workspace units.
    pub sigma: f64,
    /// RNG seed for the object draws.
    pub seed: u64,
    /// RNG seed for the cluster-center placement (defaults to `seed`).
    /// Two datasets generated with the same `center_seed` but different
    /// `seed`s share a cluster layout while drawing disjoint objects —
    /// the "co-located hot spots" scenario that makes clustered joins
    /// produce far more pairs than a uniform model predicts.
    pub center_seed: u64,
}

impl ClusterConfig {
    /// A reasonable default cluster field: 10 clusters of σ = 0.05.
    pub fn new(cardinality: usize, density: f64, seed: u64) -> Self {
        Self {
            cardinality,
            density,
            clusters: 10,
            sigma: 0.05,
            seed,
            center_seed: seed,
        }
    }

    /// Overrides the cluster count.
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        assert!(clusters >= 1);
        self.clusters = clusters;
        self
    }

    /// Overrides the cluster spread.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma > 0.0);
        self.sigma = sigma;
        self
    }

    /// Overrides the cluster-center seed (see [`ClusterConfig::center_seed`]).
    pub fn with_center_seed(mut self, center_seed: u64) -> Self {
        self.center_seed = center_seed;
        self
    }
}

/// Generates a Gaussian cluster field.
pub fn gaussian_clusters<const N: usize>(config: ClusterConfig) -> Vec<Rect<N>> {
    // Centers and objects use independent streams so that `center_seed`
    // alone determines the cluster layout.
    let mut center_rng = StdRng::seed_from_u64(config.center_seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut rng = StdRng::seed_from_u64(config.seed);
    if config.cardinality == 0 {
        return Vec::new();
    }
    let side = crate::nth_root::<N>(config.density / config.cardinality as f64);
    let centers: Vec<[f64; N]> = (0..config.clusters)
        .map(|_| {
            let mut c = [0.0; N];
            for ck in c.iter_mut() {
                *ck = center_rng.gen_range(0.1..0.9);
            }
            c
        })
        .collect();
    (0..config.cardinality)
        .map(|_| {
            let cluster = &centers[rng.gen_range(0..centers.len())];
            let mut center = [0.0; N];
            for k in 0..N {
                let offset = sample_normal(&mut rng) * config.sigma;
                center[k] = (cluster[k] + offset).clamp(side / 2.0, 1.0 - side / 2.0);
            }
            Rect::centered(Point::new(center), [side; N])
        })
        .collect()
}

/// Generates power-law coordinate skew: centers at `u^θ` per dimension.
/// `theta = 1` reduces to uniform; larger values skew harder toward the
/// origin.
pub fn power_law<const N: usize>(
    cardinality: usize,
    density: f64,
    theta: f64,
    seed: u64,
) -> Vec<Rect<N>> {
    assert!(theta >= 1.0, "theta < 1 would skew away from the origin");
    let mut rng = StdRng::seed_from_u64(seed);
    if cardinality == 0 {
        return Vec::new();
    }
    let side = crate::nth_root::<N>(density / cardinality as f64);
    (0..cardinality)
        .map(|_| {
            let mut center = [0.0; N];
            for ck in center.iter_mut() {
                let u: f64 = rng.gen_range(0.0..1.0);
                *ck = u.powf(theta).clamp(side / 2.0, 1.0 - side / 2.0);
            }
            Rect::centered(Point::new(center), [side; N])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcm_geom::density;

    #[test]
    fn clusters_are_clustered() {
        let rects = gaussian_clusters::<2>(
            ClusterConfig::new(5_000, 0.2, 1)
                .with_clusters(3)
                .with_sigma(0.02),
        );
        assert_eq!(rects.len(), 5_000);
        // With 3 tight clusters, a 10×10 grid should leave most cells
        // empty.
        let mut occupied = std::collections::HashSet::new();
        for r in &rects {
            let c = r.center();
            occupied.insert((
                (c[0] * 10.0).min(9.0) as usize,
                (c[1] * 10.0).min(9.0) as usize,
            ));
        }
        assert!(
            occupied.len() < 40,
            "{} of 100 cells occupied — not clustered",
            occupied.len()
        );
    }

    #[test]
    fn cluster_density_close_to_target() {
        let rects = gaussian_clusters::<2>(ClusterConfig::new(10_000, 0.4, 2));
        let d = density(rects.iter());
        assert!((d - 0.4).abs() < 0.02, "density {d}");
        for r in &rects {
            assert!(r.in_unit_space());
        }
    }

    #[test]
    fn power_law_skews_toward_origin() {
        let rects = power_law::<2>(10_000, 0.1, 3.0, 3);
        let near_origin = rects
            .iter()
            .filter(|r| r.center()[0] < 0.25 && r.center()[1] < 0.25)
            .count();
        // Uniform would give ~625; θ = 3 concentrates the majority there
        // (P[u³ < 0.25] = 0.25^(1/3) ≈ 0.63 per axis → ~0.4 jointly).
        assert!(near_origin > 3_000, "only {near_origin} near origin");
    }

    #[test]
    fn power_law_theta_one_is_roughly_uniform() {
        let rects = power_law::<2>(10_000, 0.1, 1.0, 4);
        let near_origin = rects
            .iter()
            .filter(|r| r.center()[0] < 0.25 && r.center()[1] < 0.25)
            .count();
        assert!((400..900).contains(&near_origin), "{near_origin}");
    }

    #[test]
    fn shared_center_seed_colocates_clusters() {
        let base = ClusterConfig::new(2_000, 0.1, 70)
            .with_clusters(3)
            .with_sigma(0.02);
        let a = gaussian_clusters::<2>(base);
        let b = gaussian_clusters::<2>(ClusterConfig { seed: 71, ..base });
        assert_ne!(a, b, "different object seeds must draw different objects");
        // Same layout: the occupied coarse-grid cells largely coincide.
        let cells = |rects: &[Rect<2>]| {
            rects
                .iter()
                .map(|r| {
                    let c = r.center();
                    (
                        (c[0] * 10.0).min(9.0) as usize,
                        (c[1] * 10.0).min(9.0) as usize,
                    )
                })
                .collect::<std::collections::HashSet<_>>()
        };
        let (ca, cb) = (cells(&a), cells(&b));
        let shared = ca.intersection(&cb).count();
        assert!(
            2 * shared >= ca.len().max(cb.len()),
            "layouts diverge: {} shared of {}/{}",
            shared,
            ca.len(),
            cb.len()
        );
    }

    #[test]
    fn generators_deterministic() {
        let a = gaussian_clusters::<2>(ClusterConfig::new(100, 0.1, 5));
        let b = gaussian_clusters::<2>(ClusterConfig::new(100, 0.1, 5));
        assert_eq!(a, b);
        let p = power_law::<1>(100, 0.1, 2.0, 6);
        let q = power_law::<1>(100, 0.1, 2.0, 6);
        assert_eq!(p, q);
    }

    #[test]
    fn normal_shim_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn power_law_rejects_theta_below_one() {
        power_law::<2>(10, 0.1, 0.5, 8);
    }

    #[test]
    fn empty_sets() {
        assert!(gaussian_clusters::<2>(ClusterConfig::new(0, 0.0, 9)).is_empty());
        assert!(power_law::<2>(0, 0.0, 2.0, 9).is_empty());
    }
}
