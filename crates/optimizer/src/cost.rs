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
//!
//! Two callers apply these rules, and they share every function that
//! prices. A base data set is resolved once into its catalog entry and
//! its index's tree parameters — the measured override
//! ([`CostEstimator::with_measured_params`]) when one was supplied,
//! Eqs 2–5 from `(N, D)` otherwise. A join step is priced by one
//! function, `join_step`, from its two inputs' estimates and, for a base
//! input, its index and window. [`CostEstimator::estimate`] walks a
//! finished tree: it resolves each base operator once and calls
//! `join_step` at each join. The planner resolves each listed set once
//! per query; its left-deep partials carry their estimates, so each
//! join step calls `join_step` once, whatever is stacked above it. For
//! the same plan both callers produce the same bits.

use crate::catalog::{Catalog, DatasetStats};
use crate::plan::{Access, Estimate, JoinAlgorithm, PlanNode};
use sjcm_core::selectivity::join_selectivity;
use sjcm_core::{join, range, DataProfile, ModelConfig, SpatialOperator, TreeParams};
use sjcm_geom::Rect;
use std::borrow::Cow;
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

/// One base data set, resolved once: its catalog entry and its index's
/// tree parameters — the measured override when one was supplied, Eqs
/// 2–5 from `(N, D)` otherwise. The planner resolves each listed set
/// once per query, the walk each base operator once.
pub(crate) struct BaseSet<'a, const N: usize> {
    stats: &'a DatasetStats<N>,
    params: Cow<'a, TreeParams<N>>,
}

/// One input of a join step.
#[derive(Clone, Copy)]
pub(crate) enum JoinInput<'s, const N: usize> {
    /// A base access path — a set read whole (`IndexScan`) or through a
    /// window (`IndexRangeSelect`) — priced by how its parent reads it.
    Base(&'s BaseSet<'s, N>, Option<&'s Rect<N>>),
    /// A filter or a join, already priced.
    Derived(Estimate),
}

impl<const N: usize> JoinInput<'_, N> {
    /// A bare scan of an index: a join reads it through the index.
    pub(crate) fn is_index_scan(&self) -> bool {
        matches!(*self, JoinInput::Base(set, None) if set.stats.indexed)
    }

    /// A scan or a range select of an indexed set: an SJ can traverse
    /// its index, restricted to the window.
    pub(crate) fn is_index_backed(&self) -> bool {
        matches!(*self, JoinInput::Base(set, _) if set.stats.indexed)
    }

    /// The index a join reads and the window its traversal is
    /// restricted to.
    fn index(&self) -> Option<(&TreeParams<N>, Option<&Rect<N>>)> {
        match *self {
            JoinInput::Base(set, window) if set.stats.indexed => Some((&*set.params, window)),
            _ => None,
        }
    }

    /// The input's estimate as its parent reads it.
    pub(crate) fn estimate(&self, access: Access) -> Estimate {
        let (set, window) = match *self {
            JoinInput::Base(set, window) => (set, window),
            JoinInput::Derived(est) => return est,
        };
        let (profile, params) = (set.stats.profile, &*set.params);
        match window {
            None => {
                // Materialised, a scan reads every leaf page (N_1 of
                // Eq 3; the root is memory-resident, so a one-leaf tree
                // reads nothing).
                let cost = match access {
                    Access::Rows if params.height() > 1 => params.level(1).nodes,
                    _ => 0.0,
                };
                Estimate {
                    cardinality: profile.cardinality as f64,
                    density: profile.density,
                    cost,
                    own_cost: cost,
                    indexed: set.stats.indexed,
                }
            }
            Some(window) => {
                let cost = match access {
                    Access::Handle => 0.0,
                    Access::Rows => range::range_query_cost_at(params, window),
                };
                let card = SpatialOperator::Overlap.selectivity(
                    profile.cardinality,
                    profile.density,
                    &window.extents(),
                );
                Estimate {
                    cardinality: card,
                    density: card * profile.avg_measure(),
                    cost,
                    own_cost: cost,
                    indexed: false,
                }
            }
        }
    }
}

/// A filter's estimate over its input's: the input's cost, the rows and
/// density that meet the window.
pub(crate) fn filtered<const N: usize>(inner: &Estimate, window: &Rect<N>) -> Estimate {
    let profile = estimate_profile(inner);
    let fraction = if profile.cardinality == 0 {
        0.0
    } else {
        SpatialOperator::Overlap.selectivity(
            profile.cardinality,
            profile.density,
            &window.extents(),
        ) / profile.cardinality as f64
    };
    Estimate {
        cardinality: inner.cardinality * fraction,
        density: inner.density * fraction,
        cost: inner.cost,
        own_cost: 0.0,
        indexed: false,
    }
}

fn estimate_profile(est: &Estimate) -> DataProfile {
    DataProfile::new(
        est.cardinality.round().max(0.0) as u64,
        est.density.max(0.0),
    )
}

/// A base access path's set and window as the walk resolves them.
type BasePath<'s, 'n, const N: usize> = (BaseSet<'s, N>, Option<&'n Rect<N>>);

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

    /// Resolves a base data set: see [`BaseSet`].
    pub(crate) fn base_set(&self, dataset: &str) -> Result<BaseSet<'_, N>, CostError> {
        let stats = self
            .catalog
            .get(dataset)
            .ok_or_else(|| CostError::UnknownDataset(dataset.to_string()))?;
        let params = match self.params_override.get(dataset) {
            Some(measured) => Cow::Borrowed(measured),
            None => Cow::Owned(TreeParams::from_data(stats.profile, &self.config)),
        };
        Ok(BaseSet { stats, params })
    }

    /// The set and window behind a base access path; `None` for a filter
    /// or a join.
    fn base_path<'n>(
        &self,
        node: &'n PlanNode<N>,
    ) -> Result<Option<BasePath<'_, 'n, N>>, CostError> {
        let (dataset, window) = match node {
            PlanNode::IndexScan { dataset } => (dataset, None),
            PlanNode::IndexRangeSelect { dataset, window } => (dataset, Some(window)),
            _ => return Ok(None),
        };
        Ok(Some((self.base_set(dataset)?, window)))
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
        let est = match (node, self.base_path(node)?) {
            (_, Some((set, window))) => JoinInput::Base(&set, window).estimate(access),
            (PlanNode::Filter { input, window, .. }, None) => {
                filtered(&self.walk(input, Access::Rows, each)?, window)
            }
            (
                PlanNode::Join {
                    data,
                    query,
                    algorithm,
                },
                None,
            ) => {
                let (d_path, q_path) = (self.base_path(data)?, self.base_path(query)?);
                let d_slot = each.len();
                let d = self.join_input(data, &d_path, each)?;
                let q_slot = each.len();
                let q = self.join_input(query, &q_path, each)?;
                let (est, [d_est, q_est]) = self.join_step(*algorithm, d, q)?;
                each[d_slot] = d_est;
                each[q_slot] = q_est;
                est
            }
            _ => unreachable!("a scan or a range select resolves to a base path"),
        };
        each[slot] = est;
        Ok(est)
    }

    /// A join's input as the walk hands it to [`Self::join_step`]: a base
    /// access path as its resolved set, holding a place in `each` for the
    /// estimate the join gives it; a filter or a join walked.
    fn join_input<'p>(
        &self,
        node: &PlanNode<N>,
        path: &'p Option<BasePath<'_, 'p, N>>,
        each: &mut Vec<Estimate>,
    ) -> Result<JoinInput<'p, N>, CostError> {
        Ok(match path {
            Some((set, window)) => {
                each.push(Estimate::default());
                JoinInput::Base(set, *window)
            }
            None => JoinInput::Derived(self.walk(node, Access::Rows, each)?),
        })
    }

    /// Prices one join step: reads each input as the algorithm does
    /// (`JoinAlgorithm::input_access`), then prices the join alone from
    /// the two inputs' estimates. Returns the join's estimate — its own
    /// cost and the cumulative `data + query + own` — and the inputs'
    /// estimates as read. The one pricing rule for a join: the walk
    /// calls it per join operator, the planner per left-deep partial.
    pub(crate) fn join_step(
        &self,
        algorithm: JoinAlgorithm,
        data: JoinInput<'_, N>,
        query: JoinInput<'_, N>,
    ) -> Result<(Estimate, [Estimate; 2]), CostError> {
        let (d_access, q_access) =
            algorithm.input_access(data.is_index_scan(), query.is_index_scan());
        let (d, q) = (&data.estimate(d_access), &query.estimate(q_access));
        let d_prof = estimate_profile(d);
        let q_prof = estimate_profile(q);
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
                let (Some((pd, d_window)), Some((pq, q_window))) = (data.index(), query.index())
                else {
                    return Err(CostError::UnindexedSjInput);
                };
                join::join_cost_da_windowed(pd, pq, &[d_window.copied(), q_window.copied()])
            }
            JoinAlgorithm::IndexNestedLoop => {
                // The indexed side is probed once per outer object with a
                // window the size of an average outer object. Only a bare
                // scan of an index estimates as indexed.
                let (probed, outer) = if d.indexed {
                    (data.index(), q)
                } else if q.indexed {
                    (query.index(), d)
                } else {
                    (None, d)
                };
                let Some((params, _)) = probed else {
                    return Err(CostError::UnindexedSjInput);
                };
                let probe = [estimate_profile(outer).avg_extent(N); N];
                outer.cardinality * range::range_query_cost(params, &probe)
            }
            JoinAlgorithm::NestedLoop => {
                // Block nested loop: scan the outer once, the inner once
                // per outer page.
                let outer_pages = self.pages(d.cardinality);
                let inner_pages = self.pages(q.cardinality);
                outer_pages + outer_pages * inner_pages
            }
        };
        let est = Estimate {
            cardinality: pairs,
            density: out_density,
            cost: d.cost + q.cost + own_cost,
            own_cost,
            indexed: false,
        };
        Ok((est, [*d, *q]))
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
