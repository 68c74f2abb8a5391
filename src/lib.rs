//! `sjcm` — **S**patial **J**oin **C**ost **M**odels.
//!
//! A production-quality Rust reproduction of *Theodoridis, Stefanakis &
//! Sellis, "Cost Models for Join Queries in Spatial Databases"*
//! (ICDE 1998): analytical formulas that predict the I/O cost of an
//! R-tree spatial join from primitive data properties only, together
//! with every substrate needed to validate them — an R\*-tree built from
//! scratch, a paged-storage simulator with path/LRU buffer managers, an
//! instrumented synchronized-traversal join executor, seeded data
//! generators, and a small cost-based query optimizer.
//!
//! This facade crate re-exports the workspace's public API under one
//! roof; each subsystem is its own crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `sjcm-geom` | points, rectangles, curves, density |
//! | [`storage`] | `sjcm-storage` | pages, node layout, buffers, counters |
//! | [`rtree`] | `sjcm-rtree` | R\*-tree, bulk loading, stats, persistence |
//! | [`join`] | `sjcm-join` | SJ executor, baselines, parallel join |
//! | [`model`] | `sjcm-core` | **the paper's cost models** (Eqs 1–12 + extensions) |
//! | [`datagen`] | `sjcm-datagen` | uniform / skewed / TIGER-like generators |
//! | [`optimizer`] | `sjcm-optimizer` | cost-based spatial query optimizer |
//! | [`obs`] | `sjcm-obs` | spans, metrics registry, post-run model-drift check |
//! | [`json`] | `sjcm-obs` | the workspace's JSON parser and writer (`sjcm_obs::json`) |
//!
//! # Quickstart
//!
//! ```
//! use sjcm::prelude::*;
//!
//! // Two synthetic data sets, as in the paper's evaluation.
//! let r1 = sjcm::datagen::uniform::generate::<2>(
//!     sjcm::datagen::uniform::UniformConfig::new(4_000, 0.3, 1));
//! let r2 = sjcm::datagen::uniform::generate::<2>(
//!     sjcm::datagen::uniform::UniformConfig::new(2_000, 0.3, 2));
//!
//! // Predict the join cost from (N, D) alone…
//! let cfg = ModelConfig::paper(2);
//! let p1 = TreeParams::<2>::from_data(DataProfile::new(4_000, 0.3), &cfg);
//! let p2 = TreeParams::<2>::from_data(DataProfile::new(2_000, 0.3), &cfg);
//! let predicted_na = sjcm::model::join::join_cost_na(&p1, &p2);
//!
//! // …then build the indexes, run the join, and compare.
//! let mut t1 = RTree::<2>::new(RTreeConfig::paper(2));
//! for (r, id) in sjcm::datagen::with_ids(r1) {
//!     t1.insert(r, ObjectId(id));
//! }
//! let mut t2 = RTree::<2>::new(RTreeConfig::paper(2));
//! for (r, id) in sjcm::datagen::with_ids(r2) {
//!     t2.insert(r, ObjectId(id));
//! }
//! let result = JoinSession::new(&t1, &t2)
//!     .run()
//!     .expect("ungoverned join cannot fail")
//!     .result;
//! assert!(predicted_na > 0.0);
//! assert!(result.na_total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod explain;

pub use sjcm_core as model;
pub use sjcm_datagen as datagen;
pub use sjcm_geom as geom;
pub use sjcm_join as join;
pub use sjcm_obs as obs;
pub use sjcm_obs::json;
pub use sjcm_optimizer as optimizer;
pub use sjcm_rtree as rtree;
pub use sjcm_storage as storage;

/// The most common imports in one place.
pub mod prelude {
    pub use sjcm_core::{DataProfile, DensitySurface, ModelConfig, SpatialOperator, TreeParams};
    pub use sjcm_geom::{Point, Rect};
    pub use sjcm_join::{
        BufferPolicy, JoinConfig, JoinResultSet, JoinSession, PbsmSession, Scheduler, Side,
    };
    pub use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
    pub use sjcm_storage::{AccessStats, InMemoryPageStore, PageStore};
}
