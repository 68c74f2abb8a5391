//! A miniature cost-based spatial query optimizer driven by the ICDE'98
//! join cost models.
//!
//! The paper motivates its formulas with exactly this use: *"useful
//! tools for SDBMS query processors and optimizers, especially when
//! complex queries (e.g. nested joins) are involved"*, and its
//! introduction walks through a query — rivers crossing countries west
//! of a meridian — that admits several execution strategies whose costs
//! only a model can compare without running them.
//!
//! This crate closes that loop:
//!
//! * [`catalog`] — per-dataset statistics (the model's primitive
//!   properties `N` and `D`, plus an optional density surface for
//!   non-uniform data);
//! * [`plan`] — logical query shapes (selections over base data sets,
//!   chains of spatial joins) and physical plans (which index plays the
//!   R1/R2 role, which join algorithm runs, estimated cost and
//!   cardinality per operator);
//! * [`cost`] — the estimator: range costs from Eq 1, synchronized-
//!   traversal join costs from Eqs 10/12, selectivities from the §5
//!   extension;
//! * [`planner`] — exhaustive enumeration over join order, role
//!   assignment and selection placement, returning the cheapest plan
//!   with an `EXPLAIN`-style rendering.
//!
//! ```
//! use sjcm_optimizer::{Catalog, DatasetStats, JoinQuery, Planner};
//! use sjcm_geom::Rect;
//!
//! let mut catalog = Catalog::<2>::new();
//! catalog.register("countries", DatasetStats::new(20_000, 0.4));
//! catalog.register("rivers", DatasetStats::new(60_000, 0.2));
//!
//! let query = JoinQuery::new(["rivers", "countries"]) // overlap join
//!     .with_selection("rivers", Rect::new([0.0, 0.0], [0.45, 1.0]).unwrap());
//!
//! let plan = Planner::new(&catalog).best_plan(&query).unwrap();
//! println!("{plan}"); // EXPLAIN-style tree with per-operator costs
//! assert!(plan.total_cost > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cost;
pub mod plan;
pub mod planner;

pub use catalog::{Catalog, CatalogError, DatasetStats};
pub use cost::{CostError, CostEstimator};
pub use plan::{Access, Estimate, JoinAlgorithm, JoinQuery, PhysicalPlan, PlanNode};
pub use planner::{Planner, PlannerError};
