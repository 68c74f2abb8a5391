//! Axis-aligned `N`-dimensional rectangles (minimum bounding rectangles).
//!
//! The rectangle algebra in this module is the computational core of both
//! the R-tree implementation and the analytical cost model: node extents,
//! query windows and object MBRs are all [`Rect`]s, and the paper's
//! formulas are products over per-dimension extents of such rectangles.
//!
//! # Predicates
//!
//! `intersects`, `contains_rect`, `contains_point`, `intersection_measure`
//! and `min_dist2` test every dimension and combine the results with `&`
//! or a select: an early return per dimension is a branch the CPU
//! mispredicts about half the time on random data. They are the one
//! definition the join and the R-tree call. A comparison with NaN fails,
//! as in [`RectBatch`](crate::RectBatch)'s lanes, so a rectangle with a
//! NaN coordinate meets and contains nothing, and [`Rect::intersection`]
//! is `None` for it; `min` and `max` pass over a NaN operand, so
//! [`Rect::intersection_measure`] counts a side empty only when the side
//! itself is NaN.

use crate::Point;
use std::fmt;

/// Errors produced by rectangle constructors and workspace checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// A low corner coordinate exceeded the corresponding high coordinate.
    InvertedCorners {
        /// Dimension index at which `lo[k] > hi[k]` was detected.
        dim: usize,
    },
    /// A coordinate was NaN or infinite.
    NotFinite,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::InvertedCorners { dim } => {
                write!(f, "inverted rectangle corners in dimension {dim}")
            }
            GeomError::NotFinite => write!(f, "rectangle coordinates must be finite"),
        }
    }
}

impl std::error::Error for GeomError {}

/// An axis-aligned rectangle in `N` dimensions, stored as its low and high
/// corners. For `N = 1` this is an interval; the paper's 1-D experiments
/// use exactly that degenerate case.
///
/// Invariant: `lo[k] <= hi[k]` for every dimension `k`, and all
/// coordinates are finite. The checked constructor [`Rect::new`] enforces
/// this; [`Rect::from_corners`] normalizes instead of failing.
///
/// ```
/// use sjcm_geom::Rect;
/// let a = Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap();
/// let b = Rect::new([0.25, 0.25], [1.0, 1.0]).unwrap();
/// assert!(a.intersects(&b));
/// assert_eq!(a.measure(), 0.25);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Rect<const N: usize> {
    lo: [f64; N],
    hi: [f64; N],
}

impl<const N: usize> Rect<N> {
    /// Creates a rectangle, validating that corners are finite and ordered.
    pub fn new(lo: [f64; N], hi: [f64; N]) -> Result<Self, GeomError> {
        // One chain of comparisons on the common path — the page decoder
        // validates every entry it reads: `MIN ≤ lo ≤ hi ≤ MAX` is finite
        // and ordered at once (NaN fails every comparison). The failures
        // are told apart below.
        if (0..N).all(|k| f64::MIN <= lo[k] && lo[k] <= hi[k] && hi[k] <= f64::MAX) {
            return Ok(Self { lo, hi });
        }
        if !lo.iter().chain(hi.iter()).all(|c| c.is_finite()) {
            return Err(GeomError::NotFinite);
        }
        for k in 0..N {
            if lo[k] > hi[k] {
                return Err(GeomError::InvertedCorners { dim: k });
            }
        }
        Ok(Self { lo, hi })
    }

    /// Creates a rectangle from two arbitrary corner points, normalizing
    /// the coordinate order per dimension. Panics on non-finite input in
    /// debug builds only (the coordinates are then kept as-is).
    pub fn from_corners(a: Point<N>, b: Point<N>) -> Self {
        debug_assert!(a.is_finite() && b.is_finite(), "non-finite corner");
        Self {
            lo: a.component_min(&b).coords(),
            hi: a.component_max(&b).coords(),
        }
    }

    /// A degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point<N>) -> Self {
        Self {
            lo: p.coords(),
            hi: p.coords(),
        }
    }

    /// A rectangle centered at `center` with the given per-dimension
    /// side lengths (clamped to be non-negative).
    pub fn centered(center: Point<N>, sides: [f64; N]) -> Self {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for k in 0..N {
            let half = sides[k].max(0.0) / 2.0;
            lo[k] = center[k] - half;
            hi[k] = center[k] + half;
        }
        Self { lo, hi }
    }

    /// The unit workspace `[0,1]^N` (closed; the half-open convention of
    /// the paper only matters for point *placement*, not for extents).
    #[inline]
    pub fn unit() -> Self {
        Self {
            lo: [0.0; N],
            hi: [1.0; N],
        }
    }

    /// Low corner.
    #[inline]
    pub fn lo(&self) -> Point<N> {
        Point::new(self.lo)
    }

    /// High corner.
    #[inline]
    pub fn hi(&self) -> Point<N> {
        Point::new(self.hi)
    }

    /// Low coordinate in dimension `k`.
    #[inline]
    pub fn lo_k(&self, k: usize) -> f64 {
        self.lo[k]
    }

    /// High coordinate in dimension `k`.
    #[inline]
    pub fn hi_k(&self, k: usize) -> f64 {
        self.hi[k]
    }

    /// Side length in dimension `k` — the paper's `s_k` when applied to a
    /// node rectangle, or `q_k` when applied to a query window.
    #[inline]
    pub fn extent(&self, k: usize) -> f64 {
        self.hi[k] - self.lo[k]
    }

    /// All side lengths.
    #[inline]
    pub fn extents(&self) -> [f64; N] {
        let mut out = [0.0; N];
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.hi[k] - self.lo[k];
        }
        out
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point<N> {
        let mut out = [0.0; N];
        for (k, o) in out.iter_mut().enumerate() {
            *o = 0.5 * (self.lo[k] + self.hi[k]);
        }
        Point::new(out)
    }

    /// The `N`-dimensional Lebesgue measure (length, area, volume, …).
    /// This is the quantity the *density* statistic sums over a data set.
    #[inline]
    pub fn measure(&self) -> f64 {
        let mut m = 1.0;
        for k in 0..N {
            m *= self.extent(k);
        }
        m
    }

    /// Sum of side lengths — half the perimeter in 2-D. The R*-tree split
    /// heuristic minimizes this "margin" value.
    #[inline]
    pub fn margin(&self) -> f64 {
        let mut m = 0.0;
        for k in 0..N {
            m += self.extent(k);
        }
        m
    }

    /// `true` when the two rectangles share at least one point (closed
    /// intersection — touching boundaries count, matching the `overlap`
    /// predicate the paper uses for its joins).
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        (0..N).fold(true, |acc, k| {
            acc & (self.lo[k] <= other.hi[k]) & (other.lo[k] <= self.hi[k])
        })
    }

    /// The intersection rectangle, or `None` exactly when
    /// [`Rect::intersects`] is false (so whenever a coordinate is NaN).
    #[inline]
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let lo = std::array::from_fn(|k| self.lo[k].max(other.lo[k]));
        let hi = std::array::from_fn(|k| self.hi[k].min(other.hi[k]));
        self.intersects(other).then_some(Self { lo, hi })
    }

    /// Measure of the intersection (0 when disjoint or touching). The
    /// R*-tree ChooseSubtree heuristic minimizes the *increase* of this
    /// quantity. A select, not a factor of 0, zeroes the product when a
    /// side is not positive: an overflowed `∞` times 0 is NaN.
    #[inline]
    pub fn intersection_measure(&self, other: &Self) -> f64 {
        let (mut m, mut meets) = (1.0, true);
        for k in 0..N {
            let side = self.hi[k].min(other.hi[k]) - self.lo[k].max(other.lo[k]);
            m *= side;
            meets &= side > 0.0;
        }
        if meets {
            m
        } else {
            0.0
        }
    }

    /// The smallest rectangle covering both operands (MBR union).
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for k in 0..N {
            lo[k] = self.lo[k].min(other.lo[k]);
            hi[k] = self.hi[k].max(other.hi[k]);
        }
        Self { lo, hi }
    }

    /// Grows `self` in place to cover `other`.
    #[inline]
    pub fn expand_to(&mut self, other: &Self) {
        for k in 0..N {
            self.lo[k] = self.lo[k].min(other.lo[k]);
            self.hi[k] = self.hi[k].max(other.hi[k]);
        }
    }

    /// How much `self.measure()` would grow if enlarged to cover `other`
    /// (Guttman's insertion criterion).
    #[inline]
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).measure() - self.measure()
    }

    /// `true` when `other` lies entirely inside `self` (closed containment).
    #[inline]
    pub fn contains_rect(&self, other: &Self) -> bool {
        (0..N).fold(true, |acc, k| {
            acc & (self.lo[k] <= other.lo[k]) & (other.hi[k] <= self.hi[k])
        })
    }

    /// `true` when the point lies inside `self` (closed containment).
    #[inline]
    pub fn contains_point(&self, p: &Point<N>) -> bool {
        (0..N).fold(true, |acc, k| {
            acc & (self.lo[k] <= p[k]) & (p[k] <= self.hi[k])
        })
    }

    /// Minkowski enlargement: grows the rectangle by `delta` on *each*
    /// side in every dimension (total extent growth `2·delta` per
    /// dimension). This is the transformed-window construction used for
    /// the distance (ε-)join: `a` is within distance ε of `b` under the
    /// L∞ metric iff `a.minkowski(ε)` intersects `b`.
    pub fn minkowski(&self, delta: f64) -> Self {
        let mut lo = [0.0; N];
        let mut hi = [0.0; N];
        for k in 0..N {
            lo[k] = self.lo[k] - delta;
            hi[k] = self.hi[k] + delta;
            if lo[k] > hi[k] {
                // Negative delta larger than the half-extent collapses the
                // rectangle to its center in this dimension.
                let c = 0.5 * (self.lo[k] + self.hi[k]);
                lo[k] = c;
                hi[k] = c;
            }
        }
        Self { lo, hi }
    }

    /// Minimum squared Euclidean distance between the two rectangles
    /// (0 when they intersect), over the gaps `max(other.lo − self.hi,
    /// self.lo − other.hi, 0)`: for ordered corners at most one
    /// difference is positive. [`RectBatch::within_word`](crate::RectBatch::within_word)
    /// sums the same gaps.
    #[inline]
    pub fn min_dist2(&self, other: &Self) -> f64 {
        (0..N).fold(0.0, |acc, k| {
            let gap = (other.lo[k] - self.hi[k])
                .max(self.lo[k] - other.hi[k])
                .max(0.0);
            acc + gap * gap
        })
    }

    /// `true` when the rectangles are within Euclidean distance `eps` of
    /// each other — the predicate of the distance join.
    #[inline]
    pub fn within_distance(&self, other: &Self, eps: f64) -> bool {
        self.min_dist2(other) <= eps * eps
    }

    /// Clamps the rectangle to the unit workspace `[0,1]^N`, returning
    /// `None` when it lies entirely outside.
    pub fn clamp_to_unit(&self) -> Option<Self> {
        self.intersection(&Self::unit())
    }

    /// `true` when the rectangle lies inside the unit workspace.
    #[inline]
    pub fn in_unit_space(&self) -> bool {
        Self::unit().contains_rect(self)
    }

    /// Validates the internal invariant. Always `true` for rectangles
    /// produced by this crate's constructors; exposed so the storage layer
    /// can check deserialized rectangles.
    pub fn is_valid(&self) -> bool {
        (0..N).all(|k| self.lo[k] <= self.hi[k] && self.lo[k].is_finite() && self.hi[k].is_finite())
    }
}

impl<const N: usize> fmt::Debug for Rect<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{:?} .. {:?}]", self.lo, self.hi)
    }
}

/// Computes the minimum bounding rectangle of a non-empty iterator of
/// rectangles; `None` for an empty iterator.
pub fn mbr_of<const N: usize>(rects: impl IntoIterator<Item = Rect<N>>) -> Option<Rect<N>> {
    let mut it = rects.into_iter();
    let mut acc = it.next()?;
    for r in it {
        acc.expand_to(&r);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r2(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::new(lo, hi).unwrap()
    }

    // The branching predicates the branch-free ones replaced, each
    // returning at the first dimension that decides, kept as the
    // reference the rewrite is held to. One change: every test is a
    // comparison that must hold, so a NaN fails it (module docs) — the
    // replaced `intersects`, `contains_*` and `intersection_measure`
    // tested the negation, which a NaN passed. On input without NaN each
    // is the replaced code.

    fn intersects_reference<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> bool {
        for k in 0..N {
            if !(a.lo[k] <= b.hi[k] && b.lo[k] <= a.hi[k]) {
                return false;
            }
        }
        true
    }

    fn contains_rect_reference<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> bool {
        for k in 0..N {
            if !(a.lo[k] <= b.lo[k] && b.hi[k] <= a.hi[k]) {
                return false;
            }
        }
        true
    }

    fn contains_point_reference<const N: usize>(a: &Rect<N>, p: &Point<N>) -> bool {
        for k in 0..N {
            if !(a.lo[k] <= p[k] && p[k] <= a.hi[k]) {
                return false;
            }
        }
        true
    }

    // The replaced `intersection` tested the corners it had built,
    // `lo > hi`, where `max` and `min` had already passed over a NaN
    // operand; here every dimension's operands are tested.
    fn intersection_reference<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> Option<Rect<N>> {
        let mut r = Rect {
            lo: [0.0; N],
            hi: [0.0; N],
        };
        for k in 0..N {
            if !(a.lo[k] <= b.hi[k] && b.lo[k] <= a.hi[k]) {
                return None;
            }
            r.lo[k] = a.lo[k].max(b.lo[k]);
            r.hi[k] = a.hi[k].min(b.hi[k]);
        }
        Some(r)
    }

    fn intersection_measure_reference<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> f64 {
        let mut m = 1.0;
        for k in 0..N {
            let lo = a.lo[k].max(b.lo[k]);
            let hi = a.hi[k].min(b.hi[k]);
            if lo < hi {
                m *= hi - lo;
            } else {
                return 0.0;
            }
        }
        m
    }

    fn min_dist2_reference<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> f64 {
        let mut acc = 0.0;
        for k in 0..N {
            let gap = if b.lo[k] > a.hi[k] {
                b.lo[k] - a.hi[k]
            } else if a.lo[k] > b.hi[k] {
                a.lo[k] - b.hi[k]
            } else {
                0.0
            };
            acc += gap * gap;
        }
        acc
    }

    /// A coordinate from one of the families where the rewrite could
    /// part from the reference: unit-interval values, a coarse lattice
    /// (touching and equal corners), ±0.0, subnormals, ±1e200-scale
    /// values (products overflow to ±∞), NaN and ±∞.
    fn coordinate() -> impl Strategy<Value = f64> {
        (0u8..16, any::<u64>()).prop_map(|(family, bits)| {
            let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
            match family {
                0..=3 => (bits >> 11) as f64 / (1u64 << 53) as f64,
                4..=6 => (bits % 9) as f64 / 8.0,
                7 | 8 => sign * 0.0,
                9 => sign * f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
                10 | 11 => sign * 1e200 * (1 + bits % 4) as f64,
                12 => f64::NAN,
                13 => sign * f64::INFINITY,
                _ => sign * (bits >> 11) as f64 / (1u64 << 53) as f64,
            }
        })
    }

    /// A rectangle built without validation from `2N` coordinates, each
    /// dimension's pair ordered unless one of them is NaN.
    fn unvalidated<const N: usize>(c: &[f64]) -> Rect<N> {
        let mut r = Rect {
            lo: [0.0; N],
            hi: [0.0; N],
        };
        for k in 0..N {
            let (a, b) = (c[2 * k], c[2 * k + 1]);
            (r.lo[k], r.hi[k]) = if b < a { (b, a) } else { (a, b) };
        }
        r
    }

    fn agrees_with_reference<const N: usize>(c: &[f64]) -> Result<(), TestCaseError> {
        let a = unvalidated::<N>(&c[..2 * N]);
        let b = unvalidated::<N>(&c[2 * N..4 * N]);
        let p = Point::new(std::array::from_fn(|k| c[4 * N + k]));
        for (x, y) in [(a, b), (b, a), (a, a)] {
            prop_assert_eq!(x.intersects(&y), intersects_reference(&x, &y));
            prop_assert_eq!(x.contains_rect(&y), contains_rect_reference(&x, &y));
            let corners =
                |r: Option<Rect<N>>| r.map(|r| (r.lo.map(f64::to_bits), r.hi.map(f64::to_bits)));
            prop_assert_eq!(
                corners(x.intersection(&y)),
                corners(intersection_reference(&x, &y)),
                "intersection {:?} {:?}",
                x,
                y
            );
            prop_assert_eq!(
                x.intersection_measure(&y).to_bits(),
                intersection_measure_reference(&x, &y).to_bits(),
                "intersection_measure {:?} {:?}",
                x,
                y
            );
            prop_assert_eq!(
                x.min_dist2(&y).to_bits(),
                min_dist2_reference(&x, &y).to_bits(),
                "min_dist2 {:?} {:?}",
                x,
                y
            );
            prop_assert_eq!(x.contains_point(&p), contains_point_reference(&x, &p));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn branch_free_predicates_match_the_branching_references(
            c in prop::collection::vec(coordinate(), 15..16)
        ) {
            agrees_with_reference::<1>(&c)?;
            agrees_with_reference::<2>(&c)?;
            agrees_with_reference::<3>(&c)?;
        }
    }

    #[test]
    fn a_nan_coordinate_meets_and_contains_nothing() {
        let unit = Rect::<2>::unit();
        let nan = Rect::centered(Point::new([f64::NAN, 0.5]), [0.1, 0.1]);
        assert!(!nan.intersects(&unit) && !unit.intersects(&nan));
        assert!(!nan.intersects(&nan));
        assert!(!unit.contains_rect(&nan) && !nan.contains_rect(&unit));
        assert!(!unit.contains_point(&Point::new([f64::NAN, 0.5])));
        assert_eq!(nan.intersection(&unit), None);
        assert_eq!(unit.intersection(&nan), None);
        assert_eq!(nan.clamp_to_unit(), None);
        // `min`/`max` pass over one NaN operand; two make a NaN side,
        // which is empty.
        assert!((nan.intersection_measure(&unit) - 0.1).abs() < 1e-12);
        assert_eq!(nan.intersection_measure(&nan).to_bits(), 0.0f64.to_bits());
        // A NaN difference is passed over; the gap is the other one.
        let far = Rect::new([3.0, 0.0], [4.0, 1.0]).unwrap();
        let half_nan = Rect {
            lo: [f64::NAN, 0.0],
            hi: [1.0, 1.0],
        };
        assert_eq!(half_nan.min_dist2(&far), 4.0);
    }

    #[test]
    fn overflowing_products_are_zeroed_by_select() {
        // 1e200 · 1e200 overflows to ∞ in dimension 0 and dimension 1 is
        // empty: a factor of 0 would make ∞ · 0 = NaN.
        let a = Rect::new([0.0, 0.0, 0.0], [1e200, 1e200, 1.0]).unwrap();
        let b = Rect::new([-1e200, -1e200, 1.0], [1e200, 1e200, 2.0]).unwrap();
        assert_eq!(a.intersection_measure(&b).to_bits(), 0.0f64.to_bits());
        let c = Rect::new([0.0, 0.0, 0.5], [1e200, 1e200, 2.0]).unwrap();
        assert_eq!(a.intersection_measure(&c), f64::INFINITY);
    }

    #[test]
    fn new_rejects_inverted_corners() {
        assert_eq!(
            Rect::new([1.0, 0.0], [0.0, 1.0]),
            Err(GeomError::InvertedCorners { dim: 0 })
        );
    }

    #[test]
    fn new_rejects_nan() {
        assert_eq!(Rect::new([f64::NAN], [1.0]), Err(GeomError::NotFinite));
        assert_eq!(Rect::new([0.0], [f64::INFINITY]), Err(GeomError::NotFinite));
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new([1.0, 0.0]), Point::new([0.0, 1.0]));
        assert_eq!(r.lo().coords(), [0.0, 0.0]);
        assert_eq!(r.hi().coords(), [1.0, 1.0]);
    }

    #[test]
    fn centered_constructor() {
        let r = Rect::centered(Point::new([0.5, 0.5]), [0.2, 0.4]);
        assert!((r.lo_k(0) - 0.4).abs() < 1e-12);
        assert!((r.hi_k(1) - 0.7).abs() < 1e-12);
        assert!((r.measure() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn measure_and_margin() {
        let r = r2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(r.measure(), 6.0);
        assert_eq!(r.margin(), 5.0);
    }

    #[test]
    fn degenerate_interval_has_zero_measure_but_extent_margin() {
        let r = Rect::<1>::new([0.25], [0.75]).unwrap();
        assert_eq!(r.measure(), 0.5); // 1-D measure is length
        let point_rect = Rect::from_point(Point::new([0.5, 0.5]));
        assert_eq!(point_rect.measure(), 0.0);
    }

    #[test]
    fn intersects_includes_touching_boundaries() {
        let a = r2([0.0, 0.0], [0.5, 0.5]);
        let b = r2([0.5, 0.0], [1.0, 0.5]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_measure(&b), 0.0);
    }

    #[test]
    fn disjoint_rects_do_not_intersect() {
        let a = r2([0.0, 0.0], [0.4, 0.4]);
        let b = r2([0.5, 0.5], [1.0, 1.0]);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.intersection_measure(&b), 0.0);
    }

    #[test]
    fn intersection_measure_matches_intersection() {
        let a = r2([0.0, 0.0], [0.6, 0.6]);
        let b = r2([0.4, 0.2], [1.0, 0.5]);
        let i = a.intersection(&b).unwrap();
        assert!((i.measure() - a.intersection_measure(&b)).abs() < 1e-12);
        assert!((a.intersection_measure(&b) - 0.2 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn union_covers_both() {
        let a = r2([0.0, 0.1], [0.3, 0.2]);
        let b = r2([0.5, 0.0], [0.9, 0.4]);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u.lo().coords(), [0.0, 0.0]);
        assert_eq!(u.hi().coords(), [0.9, 0.4]);
    }

    #[test]
    fn enlargement_is_zero_for_contained() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([0.2, 0.2], [0.4, 0.4]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn containment_is_closed() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        assert!(a.contains_rect(&a));
        assert!(a.contains_point(&Point::new([1.0, 0.0])));
        assert!(!a.contains_point(&Point::new([1.0001, 0.0])));
    }

    #[test]
    fn minkowski_grows_each_side() {
        let a = r2([0.4, 0.4], [0.6, 0.6]);
        let g = a.minkowski(0.1);
        assert!((g.extent(0) - 0.4).abs() < 1e-12);
        assert!(g.contains_rect(&a));
    }

    #[test]
    fn minkowski_negative_collapses_to_center() {
        let a = r2([0.4, 0.4], [0.6, 0.6]);
        let g = a.minkowski(-0.5);
        assert_eq!(g.lo().coords(), [0.5, 0.5]);
        assert_eq!(g.hi().coords(), [0.5, 0.5]);
    }

    #[test]
    fn min_dist2_zero_when_intersecting() {
        let a = r2([0.0, 0.0], [0.5, 0.5]);
        let b = r2([0.25, 0.25], [1.0, 1.0]);
        assert_eq!(a.min_dist2(&b), 0.0);
    }

    #[test]
    fn min_dist2_diagonal_gap() {
        let a = r2([0.0, 0.0], [0.1, 0.1]);
        let b = r2([0.4, 0.5], [1.0, 1.0]);
        // gaps: 0.3 in x, 0.4 in y
        assert!((a.min_dist2(&b) - 0.25).abs() < 1e-12);
        assert!(a.within_distance(&b, 0.5 + 1e-9));
        assert!(!a.within_distance(&b, 0.49));
    }

    #[test]
    fn distance_predicate_agrees_with_minkowski_under_linf() {
        // Under L∞, within_distance(eps) == minkowski(eps).intersects.
        let a = r2([0.0, 0.0], [0.1, 0.1]);
        let b = r2([0.25, 0.05], [0.3, 0.6]);
        let eps = 0.2;
        // Here the gap is axis-aligned, so L2 and L∞ agree.
        assert_eq!(a.within_distance(&b, eps), a.minkowski(eps).intersects(&b));
    }

    #[test]
    fn clamp_to_unit() {
        let r = r2([-0.5, 0.5], [0.5, 1.5]);
        let c = r.clamp_to_unit().unwrap();
        assert_eq!(c.lo().coords(), [0.0, 0.5]);
        assert_eq!(c.hi().coords(), [0.5, 1.0]);
        let outside = r2([1.5, 1.5], [2.0, 2.0]);
        assert_eq!(outside.clamp_to_unit(), None);
    }

    #[test]
    fn mbr_of_iterator() {
        let rects = vec![
            r2([0.1, 0.1], [0.2, 0.2]),
            r2([0.5, 0.0], [0.6, 0.9]),
            r2([0.0, 0.3], [0.05, 0.4]),
        ];
        let m = mbr_of(rects).unwrap();
        assert_eq!(m.lo().coords(), [0.0, 0.0]);
        assert_eq!(m.hi().coords(), [0.6, 0.9]);
        assert_eq!(mbr_of(Vec::<Rect<2>>::new()), None);
    }

    #[test]
    fn one_dimensional_interval_algebra() {
        let a = Rect::<1>::new([0.0], [0.5]).unwrap();
        let b = Rect::<1>::new([0.4], [0.9]).unwrap();
        assert!(a.intersects(&b));
        assert!((a.intersection(&b).unwrap().measure() - 0.1).abs() < 1e-12);
        assert!((a.union(&b).measure() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn four_dimensional_measure() {
        let r = Rect::<4>::new([0.0; 4], [0.5; 4]).unwrap();
        assert!((r.measure() - 0.0625).abs() < 1e-12);
        assert_eq!(r.margin(), 2.0);
    }
}
