//! R-tree family built from scratch for the spatial-join cost-model
//! reproduction.
//!
//! The paper evaluates its analytical formulas against joins executed on
//! **R\*-trees** (Beckmann et al., SIGMOD 1990) built by insertion. This
//! crate implements that structure — plus STR bulk loading ("packing"),
//! which builds the benchmark's packed trees — with the instrumentation
//! the reproduction needs and an off-the-shelf library would not give us:
//!
//! * per-level structural statistics ([`stats::TreeStats`]): node counts
//!   `N_j`, average node extents `s_{j,k}` and node-rectangle densities
//!   `D_j`, the *measured* counterparts of the model's Eqs 3–5;
//! * direct node access by id so the join crate can drive a synchronized
//!   traversal over two trees while routing every node fetch through a
//!   simulated buffer manager;
//! * paged persistence over [`sjcm_storage`] using the paper's exact
//!   1 KiB page layout (M = 84 / 50 for n = 1 / 2).
//!
//! # Quick example
//!
//! ```
//! use sjcm_rtree::{RTree, RTreeConfig, ObjectId};
//! use sjcm_geom::Rect;
//!
//! let mut tree = RTree::<2>::new(RTreeConfig::paper(2));
//! tree.insert(Rect::new([0.1, 0.1], [0.2, 0.2]).unwrap(), ObjectId(1));
//! tree.insert(Rect::new([0.5, 0.5], [0.6, 0.8]).unwrap(), ObjectId(2));
//! let hits = tree.query_window(&Rect::new([0.0, 0.0], [0.3, 0.3]).unwrap());
//! assert_eq!(hits, vec![ObjectId(1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod config;
pub mod node;
pub mod persist;
pub mod split;
pub mod stats;
#[cfg(test)]
mod testgen;
pub mod tree;
pub mod validate;

pub use bulk::BulkLoad;
pub use config::RTreeConfig;
pub use node::{Child, Entry, Node, NodeId, ObjectId};
pub use persist::PersistedTree;
pub use stats::{LevelShape, LevelStats, SubtreeShape, TreeStats};
pub use tree::RTree;
