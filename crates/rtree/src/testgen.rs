//! Random node contents for the differential tests that hold the pruned
//! ChooseSubtree, the R\* split and forced reinsertion to their exhaustive
//! references.

use crate::node::{Entry, ObjectId};
use proptest::prelude::*;
use sjcm_geom::{Point, Rect};
use std::ops::Range;

/// Rectangles with corners on a lattice of `grid` steps per axis (a power
/// of two, so coordinates and their products are exact). A coarse lattice
/// makes identical rectangles, equal areas, shared edges, containment and
/// zero extents common — every tie the pruning argument has to survive.
pub(crate) fn lattice_rect<const N: usize>(grid: u32) -> impl Strategy<Value = Rect<N>> {
    prop::collection::vec((0..=grid, 0..=grid), N..N + 1).prop_map(move |corners| {
        let coord = |c: u32| f64::from(c) / f64::from(grid);
        Rect::from_corners(
            Point::new(std::array::from_fn(|k| coord(corners[k].0))),
            Point::new(std::array::from_fn(|k| coord(corners[k].1))),
        )
    })
}

/// Rectangles with sides up to `max_side` centered anywhere in the unit
/// workspace; large sides give heavily overlapping siblings.
pub(crate) fn free_rect<const N: usize>(max_side: f64) -> impl Strategy<Value = Rect<N>> {
    prop::collection::vec((0.0..1.0f64, 0.0..max_side), N..N + 1).prop_map(|dims| {
        Rect::centered(
            Point::new(std::array::from_fn(|k| dims[k].0)),
            std::array::from_fn(|k| dims[k].1),
        )
    })
}

/// One node's rectangles, `len` of them, drawn from one regime.
pub(crate) fn node_rects<const N: usize>(len: Range<usize>) -> impl Strategy<Value = Vec<Rect<N>>> {
    use prop::collection::vec;
    prop_oneof![
        vec(free_rect(0.05), len.clone()),
        vec(free_rect(0.6), len.clone()),
        vec(lattice_rect(4), len.clone()),
        vec(lattice_rect(32), len.clone()),
        // All identical (possibly of zero extent).
        (lattice_rect(8), len).prop_map(|(r, n)| vec![r; n]),
    ]
}

/// Rectangles with corners on a lattice of `grid` steps per axis over
/// `[-1, 1]`, a corner at zero carrying either sign. `-0.0 == 0.0`, but
/// the two zeros are different bits, and `min`/`max` of the tie may
/// return either; `from_corners` may also order them into
/// `lo = +0.0, hi = -0.0`, a zero extent of negative sign.
pub(crate) fn signed_zero_rect<const N: usize>(grid: u32) -> impl Strategy<Value = Rect<N>> {
    let corner = move || {
        (0..=2 * grid, any::<bool>()).prop_map(move |(c, negative)| {
            if c == grid && negative {
                -0.0
            } else {
                (f64::from(c) - f64::from(grid)) / f64::from(grid)
            }
        })
    };
    prop::collection::vec((corner(), corner()), N..N + 1).prop_map(|corners| {
        Rect::from_corners(
            Point::new(std::array::from_fn(|k| corners[k].0)),
            Point::new(std::array::from_fn(|k| corners[k].1)),
        )
    })
}

/// Unit-lattice rectangles scaled by 2^664 ≈ 1.2e200: corners up to
/// about ±1.2e200, so in two or more dimensions a measure overflows to
/// `∞` and a difference of two such measures is NaN. The scale is a power
/// of two, so the corners themselves stay exact.
pub(crate) fn overflow_rect<const N: usize>() -> impl Strategy<Value = Rect<N>> {
    let scale = 2f64.powi(664);
    signed_zero_rect::<N>(4).prop_map(move |r| {
        let (lo, hi) = (r.lo().coords(), r.hi().coords());
        Rect::from_corners(
            Point::new(std::array::from_fn(|k| lo[k] * scale)),
            Point::new(std::array::from_fn(|k| hi[k] * scale)),
        )
    })
}

/// One node's rectangles from a hostile regime: all with signed-zero
/// corners, or overflowing rectangles mixed with unit-sized ones.
pub(crate) fn hostile_node_rects<const N: usize>(
    len: Range<usize>,
) -> impl Strategy<Value = Vec<Rect<N>>> {
    use prop::collection::vec;
    prop_oneof![
        vec(signed_zero_rect(2), len.clone()),
        vec(prop_oneof![overflow_rect(), lattice_rect(4)], len),
    ]
}

/// The rectangle being inserted into a node from `hostile_node_rects`.
pub(crate) fn hostile_new_rect<const N: usize>() -> impl Strategy<Value = Rect<N>> {
    prop_oneof![signed_zero_rect(2), overflow_rect(), lattice_rect(4)]
}

/// The rectangle being inserted.
pub(crate) fn new_rect<const N: usize>() -> impl Strategy<Value = Rect<N>> {
    prop_oneof![free_rect(0.05), lattice_rect(4), lattice_rect(32)]
}

/// Leaf entries over `rects`, numbered in order so that two splits agree
/// only if they agree on which entry went where.
pub(crate) fn leaf_entries<const N: usize>(rects: &[Rect<N>]) -> Vec<Entry<N>> {
    rects
        .iter()
        .enumerate()
        .map(|(i, &r)| Entry::leaf(r, ObjectId(i as u32)))
        .collect()
}
