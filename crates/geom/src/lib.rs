//! n-dimensional geometry kernel for the spatial-join cost-model workspace.
//!
//! This crate provides the primitives that every other layer of the
//! reproduction of *"Cost Models for Join Queries in Spatial Databases"*
//! (Theodoridis, Stefanakis & Sellis, ICDE 1998) is built on:
//!
//! * [`Point<N>`](Point) and [`Rect<N>`](Rect) — axis-aligned geometry in
//!   `N`-dimensional space with the full algebra the cost model needs
//!   (intersection, union, measure, margin, Minkowski enlargement, …).
//! * [`mod@density`] — the *density* statistic `D` of a rectangle set, the
//!   primitive data property (together with cardinality `N`) that the
//!   paper's analytical formulas are functions of.
//! * [`batch`] — structure-of-arrays rectangle batches
//!   ([`RectBatch`]) with chunked, autovectorization-friendly overlap /
//!   distance kernels (bitmask output) and PBSM's fused reference-point
//!   sweep.
//!
//! The paper works in the unit workspace `WS = [0,1)^n`: [`Rect::unit`]
//! is that workspace as a rectangle, and [`unit_grid_cell`] is the one
//! function that maps a point to its cell of a grid over it.
//!
//! Dimensionality is a const generic so that the rectangle loops in the
//! R-tree and the cost model monomorphize to allocation-free code for each
//! `n ∈ {1, 2, 3, 4, …}` exercised by the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod density;
mod point;
mod rect;

pub use batch::{unit_grid_cell, OverlapMask, RectBatch};
pub use density::density;
pub use point::Point;
pub use rect::{mbr_of, GeomError, Rect};
