//! Property-based tests for the geometry kernel: the algebraic laws the
//! R-tree and the cost model silently rely on.

use proptest::prelude::*;
use sjcm_geom::{mbr_of, Point, Rect};

/// Strategy: a rectangle with corners in [0, 1]^2.
fn rect2() -> impl Strategy<Value = Rect<2>> {
    ((0.0f64..1.0, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0)).prop_map(|((ax, ay), (bx, by))| {
        Rect::from_corners(Point::new([ax, ay]), Point::new([bx, by]))
    })
}

fn rect1() -> impl Strategy<Value = Rect<1>> {
    (0.0f64..1.0, 0.0f64..1.0)
        .prop_map(|(a, b)| Rect::from_corners(Point::new([a]), Point::new([b])))
}

proptest! {
    #[test]
    fn union_contains_both(a in rect2(), b in rect2()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn union_is_commutative(a in rect2(), b in rect2()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn union_is_associative(a in rect2(), b in rect2(), c in rect2()) {
        let left = a.union(&b).union(&c);
        let right = a.union(&b.union(&c));
        for k in 0..2 {
            prop_assert!((left.lo_k(k) - right.lo_k(k)).abs() < 1e-12);
            prop_assert!((left.hi_k(k) - right.hi_k(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn intersection_is_commutative(a in rect2(), b in rect2()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert!((a.intersection_measure(&b) - b.intersection_measure(&a)).abs() < 1e-12);
    }

    #[test]
    fn intersection_contained_in_both(a in rect2(), b in rect2()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn intersects_iff_positive_or_touching(a in rect2(), b in rect2()) {
        // intersection_measure > 0 implies intersects, and the measure is
        // never larger than either operand's measure.
        let m = a.intersection_measure(&b);
        prop_assert!(m >= 0.0);
        prop_assert!(m <= a.measure() + 1e-12);
        prop_assert!(m <= b.measure() + 1e-12);
        if m > 0.0 {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn enlargement_nonnegative(a in rect2(), b in rect2()) {
        prop_assert!(a.enlargement(&b) >= -1e-12);
    }

    #[test]
    fn measure_monotone_under_union(a in rect2(), b in rect2()) {
        let u = a.union(&b);
        prop_assert!(u.measure() + 1e-12 >= a.measure());
        prop_assert!(u.measure() + 1e-12 >= b.measure());
        prop_assert!(u.margin() + 1e-12 >= a.margin());
    }

    #[test]
    fn minkowski_contains_original(a in rect2(), d in 0.0f64..0.5) {
        prop_assert!(a.minkowski(d).contains_rect(&a));
        // Extent grows by exactly 2d per dimension.
        for k in 0..2 {
            prop_assert!((a.minkowski(d).extent(k) - (a.extent(k) + 2.0 * d)).abs() < 1e-12);
        }
    }

    #[test]
    fn min_dist_zero_iff_intersecting(a in rect2(), b in rect2()) {
        if a.intersects(&b) {
            prop_assert_eq!(a.min_dist2(&b), 0.0);
        } else {
            prop_assert!(a.min_dist2(&b) > 0.0);
        }
    }

    #[test]
    fn within_distance_implied_by_minkowski_intersection(
        a in rect2(), b in rect2(), eps in 0.0f64..0.5
    ) {
        // L2 ball is contained in the L∞ ball, so within_distance(eps)
        // implies minkowski(eps) intersection (but not conversely).
        if a.within_distance(&b, eps) {
            prop_assert!(a.minkowski(eps + 1e-12).intersects(&b));
        }
    }

    #[test]
    fn mbr_of_covers_all(rects in prop::collection::vec(rect2(), 1..20)) {
        let m = mbr_of(rects.iter().copied()).unwrap();
        for r in &rects {
            prop_assert!(m.contains_rect(r));
        }
    }

    #[test]
    fn interval_algebra_consistent(a in rect1(), b in rect1()) {
        // 1-D: intersects iff the intervals overlap as computed by hand.
        let overlap = a.lo_k(0) <= b.hi_k(0) && b.lo_k(0) <= a.hi_k(0);
        prop_assert_eq!(a.intersects(&b), overlap);
    }
}
