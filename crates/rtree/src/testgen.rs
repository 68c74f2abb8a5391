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
