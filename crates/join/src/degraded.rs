//! Graceful degradation: typed join errors, forfeited-subtree records,
//! and the model-priced degraded result.
//!
//! When the run's [`crate::Governor`] refuses a work unit at its
//! checkpoint — a deadline expired, or the unit was refused when the
//! units were armed (a cancellation point or a `Degrade` admission's
//! cap) — the join does **not** abort. The unit's node *pair*
//! is forfeited — that one subtree-vs-subtree sub-join is skipped — and
//! the rest of the traversal continues, on every other shard too. The
//! result comes back as a [`DegradedJoinResult`] carrying one
//! [`SkippedSubtree`] per forfeited pair, each priced with the paper's
//! own machinery so the caller can tell how much of the answer is
//! missing:
//!
//! * **`est_pairs`** — the result pairs forfeited: a localized Eq-3
//!   selectivity estimate, computed once, when the units are armed —
//!   the same number a `Degrade` cap ranks the unit by. Eq 3 gives the
//!   expected number of qualifying pairs for objects spread uniformly
//!   over the *whole* workspace; here the same product-of-per-dimension-overlap
//!   probabilities is evaluated over the two subtrees' MBRs, with the
//!   object centers taken uniform over each MBR shrunk by the
//!   subtree's average object extent (so objects stay inside their
//!   MBR, as they must). The per-dimension overlap probability
//!   `P(|X − Y| ≤ (s₁ + s₂)/2)` for independent uniform centers has a
//!   closed form — a clamped-linear band integral — evaluated exactly
//!   by the private `overlap_probability` helper.
//!
//! A run that forfeits nothing — every ungoverned run — comes back with
//! `skips` empty and [`DegradedJoinResult::is_exact`] true.

use crate::executor::JoinResultSet;
use sjcm_geom::Rect;
use sjcm_rtree::{NodeId, RTree};
use std::fmt;

/// Why a join could not produce a result at all.
///
/// Forfeited subtrees do *not* raise this — they are [`SkippedSubtree`]
/// records on an `Ok` result. An `Err` means the run itself is
/// unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// A worker thread of the parallel join panicked; the payload
    /// message is preserved.
    WorkerPanicked(String),
    /// A parallel join was requested with `threads = 0`:
    /// [`crate::session::JoinSession::run`] refuses it before touching
    /// either tree.
    InvalidThreads,
    /// A distance join was requested with an ε that is negative or NaN
    /// (the payload): [`crate::session::JoinSession::run`] refuses it
    /// before touching either tree. `ε = +∞` is legal and joins every
    /// pair.
    InvalidDistance(f64),
    /// The governor refused to admit the query: its Eq-6-predicted node
    /// accesses exceed the configured budget and the admission policy
    /// is [`crate::governor::AdmissionPolicy::Reject`].
    Rejected {
        /// Eq-6-predicted node accesses for the full join.
        predicted_na: f64,
        /// The configured admission budget.
        budget: f64,
    },
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            JoinError::InvalidThreads => {
                write!(f, "parallel join needs at least one worker (threads = 0)")
            }
            JoinError::InvalidDistance(eps) => {
                write!(f, "distance join needs ε ≥ 0, got ε = {eps}")
            }
            JoinError::Rejected {
                predicted_na,
                budget,
            } => write!(
                f,
                "query rejected at admission: predicted {predicted_na:.1} node accesses \
                 exceeds the budget of {budget:.1}"
            ),
        }
    }
}

impl std::error::Error for JoinError {}

impl JoinError {
    /// Converts a worker thread's panic payload into a typed error.
    pub(crate) fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        JoinError::WorkerPanicked(msg)
    }
}

/// One forfeited sub-join: the node pair the governor refused, with
/// the model-priced estimate of what the skip cost the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedSubtree {
    /// R1-side subtree root of the forfeited pair.
    pub n1: NodeId,
    /// R2-side subtree root of the forfeited pair.
    pub n2: NodeId,
    /// Localized Eq-3 estimate of the result pairs forfeited.
    pub est_pairs: f64,
}

/// Result of a fallible join: the (possibly degraded) answer plus the
/// priced inventory of everything that was forfeited.
#[derive(Debug, Clone)]
pub struct DegradedJoinResult {
    /// The join result actually computed. With nothing forfeited this
    /// is the exact answer.
    pub result: JoinResultSet,
    /// Forfeited sub-joins, sorted by node pair so the inventory is
    /// deterministic across schedulers and thread counts.
    pub skips: Vec<SkippedSubtree>,
}

impl DegradedJoinResult {
    /// `true` when nothing was forfeited: `result` is the exact answer.
    pub fn is_exact(&self) -> bool {
        self.skips.is_empty()
    }

    /// Total estimated result pairs forfeited across all skips.
    ///
    /// Distinct skips forfeit disjoint pair sets (each subtree pair
    /// covers different objects), so the per-skip estimates sum.
    pub fn forfeited_pairs(&self) -> f64 {
        self.skips.iter().map(|s| s.est_pairs).sum()
    }

    /// Estimated fraction of the *full* answer that was forfeited:
    /// `forfeited / (returned + forfeited)`. 0.0 for an exact result.
    pub fn forfeited_fraction(&self) -> f64 {
        let est = self.forfeited_pairs();
        let total = self.result.pair_count as f64 + est;
        if total == 0.0 {
            0.0
        } else {
            est / total
        }
    }
}

/// Object-level statistics of one subtree: how many objects it holds
/// and their average extent per dimension. [`sjcm_rtree::TreeStats`]
/// exposes *node*-rectangle extents per level; the pair estimator needs
/// the *object* rectangles, so this walks the subtree's leaves.
pub(crate) struct SubtreeObjects<const N: usize> {
    pub(crate) count: f64,
    pub(crate) extent: [f64; N],
}

pub(crate) fn subtree_objects<const N: usize>(tree: &RTree<N>, root: NodeId) -> SubtreeObjects<N> {
    let mut count = 0f64;
    let mut sums = [0f64; N];
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        if node.is_leaf() {
            for e in &node.entries {
                count += 1.0;
                for (k, sum) in sums.iter_mut().enumerate() {
                    *sum += e.rect.extent(k);
                }
            }
        } else {
            stack.extend(node.entries.iter().map(|e| e.child.node()));
        }
    }
    let extent = std::array::from_fn(|k| if count > 0.0 { sums[k] / count } else { 0.0 });
    SubtreeObjects { count, extent }
}

/// Localized Eq 3: expected qualifying pairs between two object
/// populations confined to their subtree MBRs. `n₁·n₂·Π_k P(|X_k − Y_k|
/// ≤ t_k)` with `t_k = (s₁ₖ + s₂ₖ)/2 + slack` (average object
/// half-extents meet exactly when the centers are `t_k` apart) and the
/// centers uniform over each MBR shrunk by the average object extent.
pub(crate) fn localized_pairs<const N: usize>(
    o1: &SubtreeObjects<N>,
    m1: &Rect<N>,
    o2: &SubtreeObjects<N>,
    m2: &Rect<N>,
    slack: f64,
) -> f64 {
    if o1.count == 0.0 || o2.count == 0.0 {
        return 0.0;
    }
    let mut pairs = o1.count * o2.count;
    for k in 0..N {
        let t = 0.5 * (o1.extent[k] + o2.extent[k]) + slack;
        let (a1, b1) = center_range(m1.lo_k(k), m1.hi_k(k), o1.extent[k]);
        let (a2, b2) = center_range(m2.lo_k(k), m2.hi_k(k), o2.extent[k]);
        pairs *= overlap_probability(a1, b1, a2, b2, t);
    }
    pairs
}

/// Range the object *centers* can occupy inside an MBR `[lo, hi]` given
/// the average object extent `e`. Collapses to the midpoint when the
/// objects are as wide as the MBR itself.
fn center_range(lo: f64, hi: f64, e: f64) -> (f64, f64) {
    let a = lo + 0.5 * e;
    let b = hi - 0.5 * e;
    if b < a {
        let mid = 0.5 * (lo + hi);
        (mid, mid)
    } else {
        (a, b)
    }
}

/// `P(|X − Y| ≤ t)` for independent `X ~ U[a1, b1]`, `Y ~ U[a2, b2]`,
/// exactly. Degenerate (zero-width) intervals are point masses. The
/// non-degenerate case is the area of the band `{|x − y| ≤ t}` inside
/// the rectangle `[a1, b1] × [a2, b2]`, normalized — computed as the
/// difference of two half-plane areas, each a clamped-linear integral.
fn overlap_probability(a1: f64, b1: f64, a2: f64, b2: f64, t: f64) -> f64 {
    const EPS: f64 = 1e-12;
    let w1 = (b1 - a1).max(0.0);
    let w2 = (b2 - a2).max(0.0);
    if w1 <= EPS && w2 <= EPS {
        return if (a1 - a2).abs() <= t { 1.0 } else { 0.0 };
    }
    if w1 <= EPS {
        // X is a point: the fraction of [a2, b2] within t of it.
        let span = (a1 + t).min(b2) - (a1 - t).max(a2);
        return (span.max(0.0) / w2).min(1.0);
    }
    if w2 <= EPS {
        let span = (a2 + t).min(b1) - (a2 - t).max(a1);
        return (span.max(0.0) / w1).min(1.0);
    }
    // Area({y − x ≤ t}) − Area({y − x ≤ −t}) = Area({|x − y| ≤ t}).
    let area = halfplane_area(a1, b1, a2, b2, t) - halfplane_area(a1, b1, a2, b2, -t);
    (area / (w1 * w2)).clamp(0.0, 1.0)
}

/// Area of `{(x, y) ∈ [a1, b1] × [a2, b2] : y − x ≤ c}`, i.e.
/// `∫ clamp(c + x − a2, 0, b2 − a2) dx` over `[a1, b1]` — the integrand
/// is linear in `x` with slope 1, so the integral splits into a zero
/// piece, a trapezoid, and a saturated piece at the two crossings.
fn halfplane_area(a1: f64, b1: f64, a2: f64, b2: f64, c: f64) -> f64 {
    let h = b2 - a2;
    let u0 = c + a1 - a2; // integrand value at x = a1
    let xa = (a1 - u0).clamp(a1, b1); // where the integrand crosses 0
    let xb = (a1 + (h - u0)).clamp(a1, b1); // where it saturates at h
    let ua = (u0 + (xa - a1)).clamp(0.0, h);
    let ub = (u0 + (xb - a1)).clamp(0.0, h);
    0.5 * (ua + ub) * (xb - xa) + h * (b1 - xb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_probability_handles_the_closed_forms() {
        // Identical unit intervals: P(|X − Y| ≤ t) = 2t − t² for t ≤ 1.
        for t in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            let p = overlap_probability(0.0, 1.0, 0.0, 1.0, t);
            assert!((p - (2.0 * t - t * t)).abs() < 1e-12, "t={t}: p={p}");
        }
        // Beyond the interval span the event is certain.
        assert_eq!(overlap_probability(0.0, 1.0, 0.0, 1.0, 1.5), 1.0);
        // Disjoint far-apart intervals: impossible.
        assert_eq!(overlap_probability(0.0, 1.0, 5.0, 6.0, 1.0), 0.0);
        // Point vs point.
        assert_eq!(overlap_probability(2.0, 2.0, 2.5, 2.5, 0.4), 0.0);
        assert_eq!(overlap_probability(2.0, 2.0, 2.5, 2.5, 0.6), 1.0);
        // Point vs interval: plain length fraction.
        let p = overlap_probability(0.5, 0.5, 0.0, 2.0, 0.25);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overlap_probability_matches_grid_enumeration() {
        // Exhaustive midpoint-grid approximation of the band area, as an
        // independent check of the closed form on asymmetric intervals.
        let cases = [
            (0.0, 1.0, 0.5, 3.0, 0.4),
            (-1.0, 2.0, 0.0, 0.5, 0.7),
            (0.0, 4.0, 1.0, 2.0, 0.3),
            (0.2, 0.9, 0.1, 1.1, 0.05),
        ];
        for (a1, b1, a2, b2, t) in cases {
            let exact = overlap_probability(a1, b1, a2, b2, t);
            let steps = 800;
            let mut hits = 0u64;
            for i in 0..steps {
                let x = a1 + (b1 - a1) * (i as f64 + 0.5) / steps as f64;
                for j in 0..steps {
                    let y = a2 + (b2 - a2) * (j as f64 + 0.5) / steps as f64;
                    if (x - y).abs() <= t {
                        hits += 1;
                    }
                }
            }
            let approx = hits as f64 / (steps * steps) as f64;
            assert!(
                (exact - approx).abs() < 5e-3,
                "({a1},{b1})×({a2},{b2}) t={t}: exact {exact} vs grid {approx}"
            );
        }
    }

    #[test]
    fn overlap_probability_is_monotone_in_t() {
        let mut last = 0.0;
        for i in 0..50 {
            let t = i as f64 * 0.05;
            let p = overlap_probability(0.0, 2.0, 1.0, 4.0, t);
            assert!(p >= last - 1e-12);
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn localized_pairs_is_bounded_and_symmetric_in_sides() {
        let o1 = SubtreeObjects::<2> {
            count: 30.0,
            extent: [0.01, 0.02],
        };
        let o2 = SubtreeObjects::<2> {
            count: 50.0,
            extent: [0.015, 0.01],
        };
        let m1 = Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap();
        let m2 = Rect::new([0.25, 0.25], [0.75, 0.75]).unwrap();
        let est = localized_pairs(&o1, &m1, &o2, &m2, 0.0);
        assert!(est > 0.0, "overlapping clouds must expect some pairs");
        assert!(est <= 30.0 * 50.0, "cannot exceed the cross product");
        let flipped = localized_pairs(&o2, &m2, &o1, &m1, 0.0);
        assert!((est - flipped).abs() < 1e-9, "estimator must be symmetric");
        // Empty population ⇒ nothing to forfeit.
        let none = SubtreeObjects::<2> {
            count: 0.0,
            extent: [0.0, 0.0],
        };
        assert_eq!(localized_pairs(&none, &m1, &o2, &m2, 0.0), 0.0);
    }

    #[test]
    fn degraded_result_accounting() {
        let mk = |est_pairs| SkippedSubtree {
            n1: NodeId(3),
            n2: NodeId(4),
            est_pairs,
        };
        let mut d = DegradedJoinResult {
            result: JoinResultSet {
                pair_count: 90,
                ..JoinResultSet::default()
            },
            skips: vec![mk(6.0), mk(4.0)],
        };
        assert!(!d.is_exact());
        assert_eq!(d.forfeited_pairs(), 10.0);
        assert!((d.forfeited_fraction() - 0.1).abs() < 1e-12);
        d.skips.clear();
        assert!(d.is_exact());
        assert_eq!(d.forfeited_fraction(), 0.0);
    }
}
