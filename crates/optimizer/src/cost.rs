//! The cost estimator: maps every physical operator to the paper's
//! formulas.
//!
//! | operator | cost source |
//! |----------|-------------|
//! | `IndexRangeSelect` | Eq 1 (range-query NA over the base index) |
//! | `Join[SJ]` | Eq 10/12 (path-buffer DA, role-sensitive) |
//! | `Join[INL]` | one Eq 1 probe per outer object |
//! | `Join[NL]` | block nested loop over materialized pages |
//! | cardinalities | §5 selectivity extension |

use crate::catalog::Catalog;
use crate::plan::{Estimate, JoinAlgorithm, PlanNode};
use sjcm_core::selectivity::join_selectivity;
use sjcm_core::{join, range, DataProfile, ModelConfig, SpatialOperator, TreeParams};
use std::collections::BTreeMap;

/// Estimation errors (unknown data sets are caught by the planner; this
/// covers programmatic misuse of raw plan nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostError {
    /// A plan node referenced a data set missing from the catalog.
    UnknownDataset(String),
    /// An SJ join was requested over an unindexed input.
    UnindexedSjInput,
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            CostError::UnindexedSjInput => {
                write!(f, "synchronized traversal requires indexes on both inputs")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// The estimator, parameterized by the model configuration.
pub struct CostEstimator<'a, const N: usize> {
    catalog: &'a Catalog<N>,
    config: ModelConfig,
    /// Post-hoc measured tree parameters per base data set (from
    /// `RTree::stats`), used instead of the Eq 2–5 analytical derivation
    /// when present. EXPLAIN ANALYZE uses this to separate catalog error
    /// from residual model error.
    params_override: BTreeMap<String, TreeParams<N>>,
}

impl<'a, const N: usize> CostEstimator<'a, N> {
    /// Creates an estimator over a catalog with the paper's model
    /// configuration for this dimensionality.
    pub fn new(catalog: &'a Catalog<N>) -> Self {
        Self {
            catalog,
            config: ModelConfig::paper(N),
            params_override: BTreeMap::new(),
        }
    }

    /// Supplies measured per-level tree parameters for base indexes.
    /// Data sets present in the map are priced from their actual tree
    /// shape (heights, node counts, extents) rather than Eqs 2–5.
    pub fn with_measured_params(mut self, params: BTreeMap<String, TreeParams<N>>) -> Self {
        self.params_override = params;
        self
    }

    fn profile_params(&self, profile: DataProfile) -> TreeParams<N> {
        TreeParams::from_data(profile, &self.config)
    }

    /// Tree parameters for the base index of `dataset`: the measured
    /// override when supplied, the analytical derivation otherwise.
    fn base_params(&self, dataset: &str, profile: DataProfile) -> TreeParams<N> {
        self.params_override
            .get(dataset)
            .cloned()
            .unwrap_or_else(|| self.profile_params(profile))
    }

    /// The base index behind an SJ input: a bare scan, or a window
    /// selection whose residual filter rides on top of the full-tree
    /// traversal. Returns the data set name and its catalog profile.
    fn sj_base<'n>(&self, node: &'n PlanNode<N>) -> Option<(&'n str, DataProfile)> {
        let dataset = match node {
            PlanNode::IndexScan { dataset } => dataset,
            PlanNode::IndexRangeSelect { dataset, .. } => dataset,
            _ => return None,
        };
        self.catalog
            .get(dataset)
            .filter(|s| s.indexed)
            .map(|s| (dataset.as_str(), s.profile))
    }

    fn estimate_profile(est: &Estimate) -> DataProfile {
        DataProfile::new(
            est.cardinality.round().max(0.0) as u64,
            est.density.max(0.0),
        )
    }

    /// Pages needed to materialize `cardinality` objects at the model's
    /// average node capacity (used by the NL baseline cost).
    fn pages(&self, cardinality: f64) -> f64 {
        (cardinality / self.config.fanout()).ceil().max(1.0)
    }

    /// Recursively estimates a plan node: output cardinality, density,
    /// whether indexed, and the cumulative I/O cost of the subtree.
    pub fn estimate(&self, node: &PlanNode<N>) -> Result<Estimate, CostError> {
        match node {
            PlanNode::IndexScan { dataset } => {
                let stats = self
                    .catalog
                    .get(dataset)
                    .ok_or_else(|| CostError::UnknownDataset(dataset.clone()))?;
                Ok(Estimate {
                    cardinality: stats.profile.cardinality as f64,
                    density: stats.profile.density,
                    cost: 0.0,
                    own_cost: 0.0,
                    indexed: stats.indexed,
                })
            }
            PlanNode::IndexRangeSelect { dataset, window } => {
                let stats = self
                    .catalog
                    .get(dataset)
                    .ok_or_else(|| CostError::UnknownDataset(dataset.clone()))?;
                let params = self.base_params(dataset, stats.profile);
                let q = window.extents();
                let cost = range::range_query_cost(&params, &q);
                let card = SpatialOperator::Overlap.selectivity(
                    stats.profile.cardinality,
                    stats.profile.density,
                    &q,
                );
                Ok(Estimate {
                    cardinality: card,
                    density: card * stats.profile.avg_measure(),
                    cost,
                    own_cost: cost,
                    indexed: false,
                })
            }
            PlanNode::Filter {
                input,
                dataset: _,
                window,
            } => {
                let inner = self.estimate(input)?;
                let profile = Self::estimate_profile(&inner);
                let q = window.extents();
                let fraction = if profile.cardinality == 0 {
                    0.0
                } else {
                    SpatialOperator::Overlap.selectivity(profile.cardinality, profile.density, &q)
                        / profile.cardinality as f64
                };
                Ok(Estimate {
                    cardinality: inner.cardinality * fraction,
                    density: inner.density * fraction,
                    cost: inner.cost,
                    own_cost: 0.0,
                    indexed: false,
                })
            }
            PlanNode::Join {
                data,
                query,
                algorithm,
            } => self.estimate_join(data, query, *algorithm),
        }
    }

    fn estimate_join(
        &self,
        data: &PlanNode<N>,
        query: &PlanNode<N>,
        algorithm: JoinAlgorithm,
    ) -> Result<Estimate, CostError> {
        let d = self.estimate(data)?;
        let q = self.estimate(query)?;
        let d_prof = Self::estimate_profile(&d);
        let q_prof = Self::estimate_profile(&q);
        let pairs = join_selectivity::<N>(d_prof, q_prof);
        // An output pair's MBR is roughly the union of the two inputs'
        // MBRs; its measure is bounded by the sum of measures plus the
        // gap, approximated here by the sum.
        let out_density = pairs * (d_prof.avg_measure() + q_prof.avg_measure());
        let own_cost = match algorithm {
            JoinAlgorithm::SynchronizedTraversal => {
                // SJ traverses the *base* trees even when a window
                // selection was pushed below it (the residual filter is
                // free); the selection's Eq 1 probe cost already sits in
                // the child estimate, so the traversal is priced on the
                // full-index profiles.
                let (Some((d_name, d_base)), Some((q_name, q_base))) =
                    (self.sj_base(data), self.sj_base(query))
                else {
                    return Err(CostError::UnindexedSjInput);
                };
                let pd = self.base_params(d_name, d_base);
                let pq = self.base_params(q_name, q_base);
                join::join_cost_da(&pd, &pq)
            }
            JoinAlgorithm::IndexNestedLoop => {
                // The indexed side is probed once per outer object with a
                // window the size of an average outer object. Only a bare
                // IndexScan estimates as indexed, so the name is there.
                let (indexed_node, indexed_prof, outer) = if d.indexed {
                    (data, d_prof, &q)
                } else if q.indexed {
                    (query, q_prof, &d)
                } else {
                    return Err(CostError::UnindexedSjInput);
                };
                let params = match indexed_node {
                    PlanNode::IndexScan { dataset } => self.base_params(dataset, indexed_prof),
                    _ => self.profile_params(indexed_prof),
                };
                let outer_prof = Self::estimate_profile(outer);
                let probe = [outer_prof.avg_extent(N); N];
                outer.cardinality * range::range_query_cost(&params, &probe)
            }
            JoinAlgorithm::NestedLoop => {
                // Block nested loop: scan the outer once, the inner once
                // per outer page.
                let outer_pages = self.pages(d.cardinality);
                let inner_pages = self.pages(q.cardinality);
                outer_pages + outer_pages * inner_pages
            }
        };
        Ok(Estimate {
            cardinality: pairs,
            density: out_density,
            cost: d.cost + q.cost + own_cost,
            own_cost,
            indexed: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetStats;
    use sjcm_geom::Rect;

    fn catalog() -> Catalog<2> {
        let mut c = Catalog::new();
        c.register("big", DatasetStats::new(60_000, 0.5));
        c.register("small", DatasetStats::new(20_000, 0.5));
        c.register("raw", DatasetStats::new(10_000, 0.2).without_index());
        c
    }

    fn scan(name: &str) -> PlanNode<2> {
        PlanNode::IndexScan {
            dataset: name.into(),
        }
    }

    #[test]
    fn scan_estimate_is_catalog_profile() {
        let c = catalog();
        let est = CostEstimator::new(&c).estimate(&scan("big")).unwrap();
        assert_eq!(est.cardinality, 60_000.0);
        assert_eq!(est.cost, 0.0);
        assert!(est.indexed);
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let c = catalog();
        let err = CostEstimator::new(&c).estimate(&scan("nope")).unwrap_err();
        assert_eq!(err, CostError::UnknownDataset("nope".into()));
    }

    #[test]
    fn range_select_reduces_cardinality_and_costs_io() {
        let c = catalog();
        let est = CostEstimator::new(&c)
            .estimate(&PlanNode::IndexRangeSelect {
                dataset: "big".into(),
                window: Rect::new([0.0, 0.0], [0.25, 0.25]).unwrap(),
            })
            .unwrap();
        assert!(est.cardinality < 60_000.0);
        assert!(est.cardinality > 0.0);
        assert!(est.cost > 0.0);
        assert!(!est.indexed);
    }

    #[test]
    fn sj_requires_indexes() {
        let c = catalog();
        let join = PlanNode::Join {
            data: Box::new(scan("raw")),
            query: Box::new(scan("big")),
            algorithm: JoinAlgorithm::SynchronizedTraversal,
        };
        assert_eq!(
            CostEstimator::new(&c).estimate(&join).unwrap_err(),
            CostError::UnindexedSjInput
        );
    }

    #[test]
    fn sj_role_sensitivity_visible_through_estimator() {
        let c = catalog();
        let forward = PlanNode::Join {
            data: Box::new(scan("big")),
            query: Box::new(scan("small")),
            algorithm: JoinAlgorithm::SynchronizedTraversal,
        };
        let backward = PlanNode::Join {
            data: Box::new(scan("small")),
            query: Box::new(scan("big")),
            algorithm: JoinAlgorithm::SynchronizedTraversal,
        };
        let e = CostEstimator::new(&c);
        let f = e.estimate(&forward).unwrap();
        let b = e.estimate(&backward).unwrap();
        assert_ne!(f.cost, b.cost, "Eq 10/12 is role-sensitive");
        // Same output either way.
        assert!((f.cardinality - b.cardinality).abs() < 1e-6);
    }

    #[test]
    fn inl_cost_scales_with_outer_cardinality() {
        let c = catalog();
        let small_outer = PlanNode::Join {
            data: Box::new(scan("big")),
            query: Box::new(PlanNode::IndexRangeSelect {
                dataset: "small".into(),
                window: Rect::new([0.0, 0.0], [0.1, 0.1]).unwrap(),
            }),
            algorithm: JoinAlgorithm::IndexNestedLoop,
        };
        let big_outer = PlanNode::Join {
            data: Box::new(scan("big")),
            query: Box::new(PlanNode::IndexRangeSelect {
                dataset: "small".into(),
                window: Rect::new([0.0, 0.0], [0.8, 0.8]).unwrap(),
            }),
            algorithm: JoinAlgorithm::IndexNestedLoop,
        };
        let e = CostEstimator::new(&c);
        assert!(e.estimate(&small_outer).unwrap().cost < e.estimate(&big_outer).unwrap().cost);
    }

    #[test]
    fn nested_loop_is_quadratic_in_pages() {
        let c = catalog();
        let nl = PlanNode::Join {
            data: Box::new(scan("raw")),
            query: Box::new(scan("raw")),
            algorithm: JoinAlgorithm::NestedLoop,
        };
        let est = CostEstimator::new(&c).estimate(&nl).unwrap();
        let pages = (10_000.0f64 / ModelConfig::paper(2).fanout()).ceil();
        assert!((est.cost - (pages + pages * pages)).abs() < 1e-9);
    }

    #[test]
    fn filter_keeps_cost_reduces_rows() {
        let c = catalog();
        let plan = PlanNode::Filter {
            input: Box::new(PlanNode::IndexRangeSelect {
                dataset: "big".into(),
                window: Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap(),
            }),
            dataset: "big".into(),
            window: Rect::new([0.0, 0.0], [0.25, 0.25]).unwrap(),
        };
        let e = CostEstimator::new(&c);
        let inner_est = e
            .estimate(&PlanNode::IndexRangeSelect {
                dataset: "big".into(),
                window: Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap(),
            })
            .unwrap();
        let est = e.estimate(&plan).unwrap();
        assert_eq!(est.cost, inner_est.cost);
        assert!(est.cardinality < inner_est.cardinality);
    }
}
