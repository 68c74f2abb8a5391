//! The cost estimator: maps every physical operator to the paper's
//! formulas.
//!
//! | operator | cost source |
//! |----------|-------------|
//! | `IndexScan`, rows materialised (under a `Filter` or `Join[NL]`, as `Join[INL]`'s probing side, or as the plan root) | every leaf page: N_1 of Eq 3 |
//! | `IndexScan` / `IndexRangeSelect` as the index handle of `Join[SJ]`, `IndexScan` as the probed side of `Join[INL]` | 0 — the join reads the index itself |
//! | `IndexRangeSelect`, rows materialised | Eq 1 (range-query NA over the base index) |
//! | `Join[SJ]` | Eq 10/12 (path-buffer DA, role-sensitive) |
//! | `Join[SJ]` over an `IndexRangeSelect` | one windowed traversal: each level pair's Eq 10/12 term × Eq 1's Π_k min(1, s_{j,k} + q_k) of the windowed tree's level (clipped at the workspace boundary: `range::window_probability`) |
//! | `Join[INL]` | one Eq 1 probe per outer object |
//! | `Join[NL]` | block nested loop over materialized pages |
//! | cardinalities | §5 selectivity extension |

use crate::catalog::Catalog;
use crate::plan::{Access, Estimate, JoinAlgorithm, PlanNode};
use sjcm_core::selectivity::join_selectivity;
use sjcm_core::{join, range, DataProfile, ModelConfig, SpatialOperator, TreeParams};
use sjcm_geom::Rect;
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

    /// The base index behind an SJ input — a bare scan, or a range
    /// select whose window the traversal is restricted to: the data set
    /// name, its catalog profile and the window.
    fn sj_base<'n>(
        &self,
        node: &'n PlanNode<N>,
    ) -> Option<(&'n str, DataProfile, Option<Rect<N>>)> {
        let (dataset, window) = match node {
            PlanNode::IndexScan { dataset } => (dataset, None),
            PlanNode::IndexRangeSelect { dataset, window } => (dataset, Some(*window)),
            _ => return None,
        };
        self.catalog
            .get(dataset)
            .filter(|s| s.indexed)
            .map(|s| (dataset.as_str(), s.profile, window))
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

    /// Estimates a plan rooted at `node`: output cardinality, density,
    /// whether indexed, and the cumulative I/O cost of the subtree. The
    /// root's rows are materialised.
    pub fn estimate(&self, node: &PlanNode<N>) -> Result<Estimate, CostError> {
        self.walk(node, Access::Rows, &mut Vec::new())
    }

    /// [`Self::estimate`] for every operator of the plan, pre-order (an
    /// operator precedes its inputs) — the order
    /// `PlanExecutor::run_measured` reports its measurements in. Each
    /// operator is priced as its parent consumes it, which a standalone
    /// `estimate` of a subtree cannot know.
    pub fn estimate_each(&self, node: &PlanNode<N>) -> Result<Vec<Estimate>, CostError> {
        let mut each = Vec::new();
        self.walk(node, Access::Rows, &mut each)?;
        Ok(each)
    }

    /// Estimates `node` as its parent consumes it, appending the
    /// subtree's estimates to `each` in pre-order.
    fn walk(
        &self,
        node: &PlanNode<N>,
        access: Access,
        each: &mut Vec<Estimate>,
    ) -> Result<Estimate, CostError> {
        // Pre-order: hold this operator's place before its inputs run.
        let slot = each.len();
        each.push(Estimate::default());
        let est = match node {
            PlanNode::IndexScan { dataset } => {
                let stats = self
                    .catalog
                    .get(dataset)
                    .ok_or_else(|| CostError::UnknownDataset(dataset.clone()))?;
                // Materialised, a scan reads every leaf page (N_1 of
                // Eq 3; the root is memory-resident, so a one-leaf tree
                // reads nothing).
                let cost = match access {
                    Access::Handle => 0.0,
                    Access::Rows => {
                        let params = self.base_params(dataset, stats.profile);
                        if params.height() > 1 {
                            params.level(1).nodes
                        } else {
                            0.0
                        }
                    }
                };
                Estimate {
                    cardinality: stats.profile.cardinality as f64,
                    density: stats.profile.density,
                    cost,
                    own_cost: cost,
                    indexed: stats.indexed,
                }
            }
            PlanNode::IndexRangeSelect { dataset, window } => {
                let stats = self
                    .catalog
                    .get(dataset)
                    .ok_or_else(|| CostError::UnknownDataset(dataset.clone()))?;
                let q = window.extents();
                let cost = match access {
                    Access::Handle => 0.0,
                    Access::Rows => range::range_query_cost_at(
                        &self.base_params(dataset, stats.profile),
                        window,
                    ),
                };
                let card = SpatialOperator::Overlap.selectivity(
                    stats.profile.cardinality,
                    stats.profile.density,
                    &q,
                );
                Estimate {
                    cardinality: card,
                    density: card * stats.profile.avg_measure(),
                    cost,
                    own_cost: cost,
                    indexed: false,
                }
            }
            PlanNode::Filter {
                input,
                dataset: _,
                window,
            } => {
                let inner = self.walk(input, Access::Rows, each)?;
                let profile = Self::estimate_profile(&inner);
                let q = window.extents();
                let fraction = if profile.cardinality == 0 {
                    0.0
                } else {
                    SpatialOperator::Overlap.selectivity(profile.cardinality, profile.density, &q)
                        / profile.cardinality as f64
                };
                Estimate {
                    cardinality: inner.cardinality * fraction,
                    density: inner.density * fraction,
                    cost: inner.cost,
                    own_cost: 0.0,
                    indexed: false,
                }
            }
            PlanNode::Join {
                data,
                query,
                algorithm,
            } => self.estimate_join(data, query, *algorithm, each)?,
        };
        each[slot] = est;
        Ok(est)
    }

    fn estimate_join(
        &self,
        data: &PlanNode<N>,
        query: &PlanNode<N>,
        algorithm: JoinAlgorithm,
        each: &mut Vec<Estimate>,
    ) -> Result<Estimate, CostError> {
        let indexed_scan = |n: &PlanNode<N>| match n {
            PlanNode::IndexScan { dataset } => self.catalog.get(dataset).is_some_and(|s| s.indexed),
            _ => false,
        };
        let (d_access, q_access) = algorithm.input_access(indexed_scan(data), indexed_scan(query));
        let d = self.walk(data, d_access, each)?;
        let q = self.walk(query, q_access, each)?;
        let d_prof = Self::estimate_profile(&d);
        let q_prof = Self::estimate_profile(&q);
        let pairs = join_selectivity::<N>(d_prof, q_prof);
        // An output pair's MBR is roughly the union of the two inputs'
        // MBRs; its measure is bounded by the sum of measures plus the
        // gap, approximated here by the sum.
        let out_density = pairs * (d_prof.avg_measure() + q_prof.avg_measure());
        let own_cost = match algorithm {
            JoinAlgorithm::SynchronizedTraversal => {
                // One synchronized traversal of the base trees, entering
                // only the nodes of a windowed input that meet its
                // window: Eq 10/12 on the full-index parameters, each
                // level pair scaled by Eq 1's intersection probability.
                let (Some((d_name, d_base, d_window)), Some((q_name, q_base, q_window))) =
                    (self.sj_base(data), self.sj_base(query))
                else {
                    return Err(CostError::UnindexedSjInput);
                };
                let pd = self.base_params(d_name, d_base);
                let pq = self.base_params(q_name, q_base);
                join::join_cost_da_windowed(&pd, &pq, &[d_window, q_window])
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
        assert!(est.indexed);
        // As the plan root the scan's rows are materialised: every leaf
        // page is read (N_1 of Eq 3).
        let leaves = (60_000.0f64 / ModelConfig::paper(2).fanout()).ceil();
        assert_eq!(est.cost, leaves);
    }

    #[test]
    fn scan_is_free_only_as_an_index_handle() {
        let c = catalog();
        let e = CostEstimator::new(&c);
        let window = Rect::new([0.0, 0.0], [0.1, 0.1]).unwrap();
        let leaves = e.estimate(&scan("big")).unwrap().cost;
        // Under a filter the scan is read in full, so the Eq 1 probe of
        // the same window is the cheaper way to the same rows.
        let filtered = PlanNode::Filter {
            input: Box::new(scan("big")),
            dataset: "big".into(),
            window,
        };
        let probe = PlanNode::IndexRangeSelect {
            dataset: "big".into(),
            window,
        };
        assert_eq!(e.estimate(&filtered).unwrap().cost, leaves);
        assert!(e.estimate(&probe).unwrap().cost < leaves);
        // Under SJ both scans are index handles: the join's own cost is
        // the whole cost, and the per-operator list says so.
        let sj = PlanNode::Join {
            data: Box::new(scan("big")),
            query: Box::new(scan("small")),
            algorithm: JoinAlgorithm::SynchronizedTraversal,
        };
        let each = e.estimate_each(&sj).unwrap();
        assert_eq!(each.len(), 3);
        assert_eq!(each[0].cost, each[0].own_cost);
        assert_eq!((each[1].cost, each[2].cost), (0.0, 0.0));
        // INL reads its probed side through the index and its probing
        // side as rows.
        let inl = PlanNode::Join {
            data: Box::new(scan("big")),
            query: Box::new(scan("raw")),
            algorithm: JoinAlgorithm::IndexNestedLoop,
        };
        let each = e.estimate_each(&inl).unwrap();
        assert_eq!(each[1].cost, 0.0);
        assert!(each[2].cost > 0.0);
    }

    #[test]
    fn windowed_sj_is_eq_10_scaled_by_eq_1_per_level() {
        let c = catalog();
        let e = CostEstimator::new(&c);
        let sj = |query: PlanNode<2>| PlanNode::Join {
            data: Box::new(scan("big")),
            query: Box::new(query),
            algorithm: JoinAlgorithm::SynchronizedTraversal,
        };
        let select = |hi: f64| PlanNode::IndexRangeSelect {
            dataset: "small".into(),
            window: Rect::new([0.0, 0.0], [hi, hi]).unwrap(),
        };
        let full = e.estimate(&sj(scan("small"))).unwrap();
        let half = e.estimate_each(&sj(select(0.5))).unwrap();
        let tenth = e.estimate(&sj(select(0.1))).unwrap();
        let all = e.estimate(&sj(select(1.0))).unwrap();
        // The window is part of the traversal: no probe on the child.
        assert_eq!(half[2].cost, 0.0);
        assert_eq!(half[0].cost, half[0].own_cost);
        assert!(tenth.cost < half[0].cost && half[0].cost < full.cost);
        // A window over the whole workspace prunes nothing.
        assert!((all.cost - full.cost).abs() < 1e-9);
        // Hand-computed: each level pair of Eq 10 times Eq 1's factor at
        // the windowed (query) tree's level — (s_j / 2 + q)^2 for this
        // window, which sits in the corner of the workspace.
        let config = ModelConfig::paper(2);
        let pd = TreeParams::<2>::from_data(DataProfile::new(60_000, 0.5), &config);
        let pq = TreeParams::<2>::from_data(DataProfile::new(20_000, 0.5), &config);
        let manual: f64 = join::join_cost_da_by_level(&pd, &pq)
            .iter()
            .map(|(pair, da)| {
                let s = pq.level(pair.j2).extents;
                da * (s[0] / 2.0 + 0.5).min(1.0) * (s[1] / 2.0 + 0.5).min(1.0)
            })
            .sum();
        assert!((half[0].cost - manual).abs() < 1e-9);
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
        assert!((est.own_cost - (pages + pages * pages)).abs() < 1e-9);
        // Plus the read of each materialised input.
        assert!((est.cost - est.own_cost - 2.0 * pages).abs() < 1e-9);
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
