//! What the four workloads have in common: their names, the interface
//! the run loops drive them through, and the span scope a pass runs in.

use sjcm::geom::Rect;
use sjcm::obs::{Span, Tracer};
use sjcm::optimizer::Catalog;
use sjcm::rtree::{ObjectId, RTree};
use std::path::{Path, PathBuf};

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "uniform60k-seq",
    "cluster60k-par2",
    "tiger80k-insert",
    "query-mix",
];

/// Everything a workload is built from. The program under test receives
/// only inputs generated from `seed`.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// 1.0, or 0.05 under `--smoke`.
    pub scale: f64,
    /// Worker threads for the parallel joins: `min(cores, 2)`.
    pub threads: usize,
    /// Scratch directory for persisted trees, below `benchmark/out/`.
    pub dir: PathBuf,
}

impl Params {
    /// `n` objects at this run's scale.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(64)
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Where a pass records its spans: `stage` opens a child of the pass's
/// span around one call into a layer. With a disabled tracer (every
/// untraced run) each stage costs one `Option` check.
pub struct Scope<'a> {
    pub tracer: &'a Tracer,
    pub span: &'a Span,
}

impl Scope<'_> {
    pub fn stage<T>(&self, name: &str, f: impl FnOnce(&mut Span) -> T) -> T {
        let mut span = self.span.child(name);
        f(&mut span)
    }

    /// Runs `f` in a scope of its own: a child span called `name` that
    /// the stages `f` opens nest under.
    pub fn nested<T>(&self, name: &str, f: impl FnOnce(&Scope) -> T) -> T {
        let span = self.span.child(name);
        f(&Scope {
            tracer: self.tracer,
            span: &span,
        })
    }
}

/// Counts a workload's set-up establishes; each repeats exactly for a
/// given seed.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Bytes of every file a build pass persists.
    pub disk_bytes: u64,
    /// Objects those files index.
    pub objects: u64,
    /// Predicted and measured NA / DA of the workload's main join (for
    /// `query-mix`, one entry per `join2` template).
    pub na: Vec<(f64, f64)>,
    pub da: Vec<(f64, f64)>,
}

/// How well a prediction fits a measurement, in percent: the smaller of
/// the two over the larger, so 100 is exact, a prediction off by a
/// factor of two either way reads 50, and the value is never 0.
pub fn fit_pct(predicted: f64, measured: f64) -> f64 {
    let (lo, hi) = if predicted < measured {
        (predicted, measured)
    } else {
        (measured, predicted)
    };
    if hi <= 0.0 {
        100.0
    } else {
        100.0 * lo / hi
    }
}

/// Mean of [`fit_pct`] over `(predicted, measured)` pairs.
pub fn mean_fit_pct(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|&(p, m)| fit_pct(p, m)).sum::<f64>() / pairs.len() as f64
}

/// The paper's error measure, |predicted − measured| ÷ measured, in
/// percent, averaged over `pairs`.
pub fn mean_err_pct(pairs: &[(f64, f64)]) -> f64 {
    pairs
        .iter()
        .map(|&(p, m)| (p - m).abs() / m * 100.0)
        .sum::<f64>()
        / pairs.len() as f64
}

/// The data the per-layer probes run on: the workload's own two main
/// sets and their indexes as its queries see them, plus a third set so
/// that three-way plans can be enumerated.
pub struct LayerInputs<'a> {
    pub names: [&'a str; 3],
    pub sets: [&'a [Rect<2>]; 3],
    pub trees: [&'a RTree<2>; 3],
    pub catalog: &'a Catalog<2>,
    pub dir: &'a Path,
    pub threads: usize,
    pub seed: u64,
}

/// One workload, as the run loops see it. A pass that returns `Err`
/// counts as a failed operation.
pub trait Workload {
    /// First build, oracle, one warm-up query pass. Everything the timed
    /// passes verify against is established here.
    fn set_up(&mut self, scope: &Scope) -> Result<(), String>;
    /// One timed build pass: generate, index, persist.
    fn build_pass(&mut self, scope: &Scope) -> Result<(), String>;
    /// One timed query pass, verified against the set-up's oracle. With
    /// `again`, the query of the previous pass is run once more (the
    /// traced run times each query with tracing off and on); otherwise
    /// the next query of the workload's stream.
    fn query_pass(&mut self, scope: &Scope, again: bool) -> Result<(), String>;
    /// Share of the measured seconds the build loop gets.
    fn build_share(&self) -> f64;
    fn facts(&self) -> &Facts;
    /// Runs `f` on the inputs the per-layer probes use.
    fn with_layer_inputs(&self, f: &mut dyn FnMut(&LayerInputs)) -> Result<(), String>;
    /// Removes the files the workload persisted.
    fn clean_up(&mut self);
}

/// `(rect, id)` pairs with ids 0, 1, 2, … — the form the tree builders
/// and the index-free join take.
pub fn with_ids(rects: &[Rect<2>]) -> Vec<(Rect<2>, ObjectId)> {
    rects
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, ObjectId(i as u32)))
        .collect()
}

/// An order-independent 64-bit checksum of result pairs: the wrapping
/// sum of a mixed hash of each pair, so any permutation of the same
/// multiset agrees and a lost, extra or altered pair does not.
pub fn pair_checksum(pairs: &[(ObjectId, ObjectId)]) -> u64 {
    pairs.iter().fold(0u64, |acc, &(a, b)| {
        acc.wrapping_add(crate::stats::mix64(
            (u64::from(a.0) << 32 | u64::from(b.0)) ^ 0xA076_1D64_78BD_642F,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(raw: &[(u32, u32)]) -> Vec<(ObjectId, ObjectId)> {
        raw.iter()
            .map(|&(a, b)| (ObjectId(a), ObjectId(b)))
            .collect()
    }

    #[test]
    fn checksum_ignores_order_and_sees_every_change() {
        let base = pairs(&[(1, 2), (3, 4), (5, 6), (0, 0)]);
        let mut shuffled = base.clone();
        shuffled.reverse();
        shuffled.swap(0, 2);
        assert_eq!(pair_checksum(&base), pair_checksum(&shuffled));
        // Swapped sides, a lost pair, a duplicate and an altered id all show.
        assert_ne!(
            pair_checksum(&base),
            pair_checksum(&pairs(&[(2, 1), (3, 4), (5, 6), (0, 0)]))
        );
        assert_ne!(pair_checksum(&base), pair_checksum(&base[..3]));
        let mut dup = base.clone();
        dup.push((ObjectId(1), ObjectId(2)));
        assert_ne!(pair_checksum(&base), pair_checksum(&dup));
        assert_ne!(
            pair_checksum(&base),
            pair_checksum(&pairs(&[(1, 2), (3, 4), (5, 7), (0, 0)]))
        );
        // (0, 0) contributes: the empty result has its own checksum.
        assert_ne!(pair_checksum(&pairs(&[(0, 0)])), pair_checksum(&[]));
    }

    #[test]
    fn fit_is_symmetric_exact_at_100_and_never_zero() {
        assert_eq!(fit_pct(100.0, 100.0), 100.0);
        assert_eq!(fit_pct(50.0, 100.0), 50.0);
        assert_eq!(fit_pct(200.0, 100.0), 50.0);
        assert!(fit_pct(1.0, 1e9) > 0.0);
        assert_eq!(mean_fit_pct(&[(50.0, 100.0), (100.0, 100.0)]), 75.0);
        assert_eq!(mean_err_pct(&[(90.0, 100.0), (130.0, 100.0)]), 20.0);
    }

    #[test]
    fn smoke_scale_keeps_inputs_usable() {
        let p = Params {
            seed: 1,
            scale: 0.05,
            threads: 2,
            dir: PathBuf::from("x"),
        };
        assert_eq!(p.scaled(60_000), 3_000);
        assert_eq!(p.scaled(100), 64);
    }
}
