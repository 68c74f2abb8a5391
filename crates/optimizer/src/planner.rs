//! Plan enumeration.
//!
//! For a [`JoinQuery`] the planner explores, exhaustively:
//!
//! * **join order** — every left-deep permutation of the data sets;
//! * **role assignment** — for each base-base SJ join, which index plays
//!   the data (R1) vs query (R2) role (Eq 10/12 is role-sensitive — this
//!   choice is precisely the paper's §4.1(iii) rule, discovered here by
//!   costing rather than hard-coded);
//! * **selection placement** — pushing a window selection below the join
//!   versus filtering after it. Pushed below an SJ join the window
//!   restricts the join's one traversal (nodes of the selected tree that
//!   miss the window are never read); pushed below an INL join it is an
//!   Eq 1 probe whose rows then probe the other index. A single-set
//!   selection has the same two placements — the Eq 1 probe, or a filter
//!   over a scan that reads every leaf page — and costing picks the
//!   probe.
//!
//! Plans are costed by [`crate::cost::CostEstimator`]; the cheapest one
//! wins. Queries are small (SDBMS join chains of 2–4 data sets), so
//! exhaustive enumeration is the right tool — no DP needed.

use crate::catalog::Catalog;
use crate::cost::{CostError, CostEstimator};
use crate::plan::{JoinAlgorithm, JoinQuery, PhysicalPlan, PlanNode};

/// Planner failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// The query referenced a data set missing from the catalog.
    UnknownDataset(String),
    /// The query listed no data sets.
    EmptyQuery,
    /// More data sets than the exhaustive enumerator accepts.
    TooManyDatasets(usize),
    /// The same data set was listed twice (self-joins need distinct
    /// catalog aliases so filters and output columns stay unambiguous).
    DuplicateDataset(String),
    /// Cost estimation failed on every candidate (catalog misuse).
    NoFeasiblePlan,
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            PlannerError::EmptyQuery => write!(f, "query lists no datasets"),
            PlannerError::TooManyDatasets(n) => {
                write!(
                    f,
                    "{n} datasets exceed the exhaustive enumeration limit (5)"
                )
            }
            PlannerError::DuplicateDataset(d) => {
                write!(
                    f,
                    "dataset {d} listed twice; register an alias for self-joins"
                )
            }
            PlannerError::NoFeasiblePlan => write!(f, "no feasible plan"),
        }
    }
}

impl std::error::Error for PlannerError {}

/// The cost-based planner.
pub struct Planner<'a, const N: usize> {
    catalog: &'a Catalog<N>,
    estimator: CostEstimator<'a, N>,
}

impl<'a, const N: usize> Planner<'a, N> {
    /// Creates a planner over a catalog.
    pub fn new(catalog: &'a Catalog<N>) -> Self {
        Self {
            catalog,
            estimator: CostEstimator::new(catalog),
        }
    }

    /// Returns the cheapest plan for the query — the first of
    /// [`Self::enumerate`]'s list, found without sorting or
    /// deduplicating it.
    pub fn best_plan(&self, query: &JoinQuery<N>) -> Result<PhysicalPlan<N>, PlannerError> {
        self.candidates(query)?
            .into_iter()
            .min_by(|a, b| a.total_cost.total_cmp(&b.total_cost))
            .ok_or(PlannerError::NoFeasiblePlan)
    }

    /// Returns every feasible plan, cheapest first — useful for EXPLAIN-
    /// style demonstrations of why a strategy wins.
    pub fn enumerate(&self, query: &JoinQuery<N>) -> Result<Vec<PhysicalPlan<N>>, PlannerError> {
        let mut out = self.candidates(query)?;
        // Different (order, role) combinations can produce structurally
        // identical plans (e.g. order a,b with roles swapped equals
        // order b,a); keep the first of each.
        let mut seen = std::collections::HashSet::new();
        let first: Vec<bool> = out.iter().map(|p| seen.insert(&p.root)).collect();
        let mut first = first.into_iter();
        out.retain(|_| first.next() == Some(true));
        out.sort_by(|a, b| a.total_cost.total_cmp(&b.total_cost));
        Ok(out)
    }

    /// Every costed candidate in generation order, structural duplicates
    /// included.
    fn candidates(&self, query: &JoinQuery<N>) -> Result<Vec<PhysicalPlan<N>>, PlannerError> {
        if query.datasets.is_empty() {
            return Err(PlannerError::EmptyQuery);
        }
        if query.datasets.len() > 5 {
            return Err(PlannerError::TooManyDatasets(query.datasets.len()));
        }
        let mut names = std::collections::HashSet::new();
        for d in &query.datasets {
            if self.catalog.get(d).is_none() {
                return Err(PlannerError::UnknownDataset(d.clone()));
            }
            if !names.insert(d) {
                return Err(PlannerError::DuplicateDataset(d.clone()));
            }
        }
        let mut out = Vec::new();
        for order in permutations(&query.datasets) {
            // Each dataset with a selection can be pushed down (0) or
            // filtered after the joins (1): iterate the bitmask.
            let sel_sets: Vec<&String> = order
                .iter()
                .filter(|d| query.selection_on(d).is_some())
                .collect();
            let combos = 1usize << sel_sets.len();
            for mask in 0..combos {
                let pushed: Vec<&String> = sel_sets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, d)| *d)
                    .collect();
                self.plans_for_order(query, &order, &pushed, &mut out);
            }
        }
        if out.is_empty() {
            return Err(PlannerError::NoFeasiblePlan);
        }
        Ok(out)
    }

    /// Builds all role-assignment variants for one dataset order and one
    /// pushdown choice, costing each and discarding infeasible ones.
    fn plans_for_order(
        &self,
        query: &JoinQuery<N>,
        order: &[String],
        pushed: &[&String],
        out: &mut Vec<PhysicalPlan<N>>,
    ) {
        // Base access path per dataset.
        let base = |name: &String| -> PlanNode<N> {
            if pushed.contains(&name) {
                PlanNode::IndexRangeSelect {
                    dataset: name.clone(),
                    window: *query.selection_on(name).expect("pushed ⇒ selection"),
                }
            } else {
                PlanNode::IndexScan {
                    dataset: name.clone(),
                }
            }
        };
        // Fold the order into left-deep join trees; at each step both
        // role assignments are explored.
        let mut partials: Vec<PlanNode<N>> = vec![base(&order[0])];
        for name in &order[1..] {
            let right = base(name);
            let mut next: Vec<PlanNode<N>> = Vec::new();
            for left in partials {
                for (data, query_side) in
                    [(left.clone(), right.clone()), (right.clone(), left.clone())]
                {
                    for algorithm in self.feasible_algorithms(&data, &query_side) {
                        next.push(PlanNode::Join {
                            data: Box::new(data.clone()),
                            query: Box::new(query_side.clone()),
                            algorithm,
                        });
                    }
                }
            }
            partials = next;
        }
        for mut root in partials {
            // Selections not pushed down become top-level filters.
            for (dataset, window) in &query.selections {
                if order.contains(dataset) && !pushed.contains(&dataset) {
                    root = PlanNode::Filter {
                        input: Box::new(root),
                        dataset: dataset.clone(),
                        window: *window,
                    };
                }
            }
            match self.estimator.estimate(&root) {
                Ok(est) => out.push(PhysicalPlan {
                    root,
                    total_cost: est.cost,
                    cardinality: est.cardinality,
                }),
                Err(CostError::UnindexedSjInput) => { /* infeasible variant */ }
                Err(CostError::UnknownDataset(_)) => unreachable!("validated above"),
            }
        }
    }

    /// Algorithm choices for one join, driven by index availability: SJ
    /// when both sides are indexed base scans, INL when exactly one is,
    /// NL otherwise. A window selection pushed below the join keeps its
    /// base index on disk, so a second variant runs SJ over the base
    /// trees with the traversal restricted to the window — the estimator
    /// prices it (Eq 10/12 per level × Eq 1's intersection probability)
    /// and enumeration lets costing decide.
    fn feasible_algorithms(&self, a: &PlanNode<N>, b: &PlanNode<N>) -> Vec<JoinAlgorithm> {
        let indexed = |n: &PlanNode<N>| -> bool {
            match n {
                PlanNode::IndexScan { dataset } => {
                    self.catalog.get(dataset).is_some_and(|s| s.indexed)
                }
                _ => false,
            }
        };
        let index_backed = |n: &PlanNode<N>| -> bool {
            match n {
                PlanNode::IndexScan { dataset } | PlanNode::IndexRangeSelect { dataset, .. } => {
                    self.catalog.get(dataset).is_some_and(|s| s.indexed)
                }
                _ => false,
            }
        };
        let forced = match (indexed(a), indexed(b)) {
            (true, true) => JoinAlgorithm::SynchronizedTraversal,
            (true, false) | (false, true) => JoinAlgorithm::IndexNestedLoop,
            (false, false) => JoinAlgorithm::NestedLoop,
        };
        let mut algorithms = vec![forced];
        if forced != JoinAlgorithm::SynchronizedTraversal && index_backed(a) && index_backed(b) {
            algorithms.push(JoinAlgorithm::SynchronizedTraversal);
        }
        algorithms
    }
}

/// All permutations of a small slice (n ≤ 5 enforced by the caller).
fn permutations(items: &[String]) -> Vec<Vec<String>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetStats;
    use sjcm_geom::Rect;

    fn catalog() -> Catalog<2> {
        let mut c = Catalog::new();
        c.register("countries", DatasetStats::new(20_000, 0.4));
        c.register("rivers", DatasetStats::new(60_000, 0.2));
        c.register("roads", DatasetStats::new(36_000, 0.3));
        c
    }

    #[test]
    fn permutations_count() {
        let items: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(permutations(&items).len(), 6);
        assert_eq!(permutations(&items[..1]).len(), 1);
    }

    #[test]
    fn two_way_join_plans() {
        let c = catalog();
        let q = JoinQuery::new(["rivers", "countries"]);
        let plans = Planner::new(&c).enumerate(&q).unwrap();
        // Two orders × two roles collapse to the two distinct role
        // assignments after structural deduplication.
        assert_eq!(plans.len(), 2);
        // Sorted ascending.
        for w in plans.windows(2) {
            assert!(w[0].total_cost <= w[1].total_cost);
        }
    }

    #[test]
    fn best_plan_puts_smaller_index_in_query_role() {
        // §4.1(iii): for trees of *equal height*, the less populated
        // index plays the query role — discovered here by costing, not
        // hard-coded. (roads 36K and countries 20K both have h = 3 under
        // the paper's 2-D fanout; the rivers/countries pair has
        // different heights, where the paper itself notes the rule can
        // invert — AREA 2/3 of Figure 7b.)
        let c = catalog();
        let q = JoinQuery::new(["roads", "countries"]);
        let best = Planner::new(&c).best_plan(&q).unwrap();
        match &best.root {
            PlanNode::Join { data, query, .. } => {
                let name = |n: &PlanNode<2>| match n {
                    PlanNode::IndexScan { dataset } => dataset.clone(),
                    _ => panic!("expected scans"),
                };
                assert_eq!(name(data), "roads", "bigger set is the data tree");
                assert_eq!(name(query), "countries");
            }
            other => panic!("expected a join, got {other:?}"),
        }
    }

    #[test]
    fn selection_enables_pushdown_tradeoff() {
        let c = catalog();
        // A tiny selection window: pushed below the join it confines the
        // SJ traversal to a corner of the selected tree, which beats
        // both probing rivers once per selected country (INL) and
        // joining everything to filter afterwards.
        let q = JoinQuery::new(["rivers", "countries"])
            .with_selection("countries", Rect::new([0.0, 0.0], [0.05, 0.05]).unwrap());
        let plans = Planner::new(&c).enumerate(&q).unwrap();
        let text = format!("{}", plans[0]);
        assert!(
            text.contains("Join[SJ]")
                && text.contains("IndexRangeSelect(countries")
                && !text.contains("Filter"),
            "tiny selection should favour pushdown into the traversal:\n{text}"
        );
        // And the alternatives — the INL pushdown and SJ-then-filter —
        // are enumerated and cost more.
        for alternative in ["Join[INL]", "Filter"] {
            let plan = plans
                .iter()
                .find(|p| format!("{p}").contains(alternative))
                .unwrap_or_else(|| panic!("no {alternative} plan enumerated"));
            assert!(plan.total_cost > plans[0].total_cost, "{alternative}");
        }
    }

    #[test]
    fn huge_selection_prefers_sj_then_filter() {
        let c = catalog();
        // A selection covering nearly everything: filtering after the SJ
        // join is cheaper than probing per selected object.
        let q = JoinQuery::new(["rivers", "countries"])
            .with_selection("countries", Rect::new([0.0, 0.0], [0.99, 0.99]).unwrap());
        let best = Planner::new(&c).best_plan(&q).unwrap();
        let text = format!("{best}");
        assert!(
            text.contains("Join[SJ]") && text.contains("Filter"),
            "expected SJ + filter:\n{text}"
        );
    }

    #[test]
    fn three_way_join_enumerates_orders() {
        let c = catalog();
        let q = JoinQuery::new(["rivers", "countries", "roads"]);
        let plans = Planner::new(&c).enumerate(&q).unwrap();
        assert!(plans.len() >= 12, "got {}", plans.len());
        let best = Planner::new(&c).best_plan(&q).unwrap();
        assert!(best.total_cost <= plans.last().unwrap().total_cost);
    }

    #[test]
    fn errors() {
        let c = catalog();
        let p = Planner::new(&c);
        assert_eq!(
            p.best_plan(&JoinQuery::new(["nope"])).unwrap_err(),
            PlannerError::UnknownDataset("nope".into())
        );
        assert_eq!(
            p.best_plan(&JoinQuery::<2>::new(Vec::<String>::new()))
                .unwrap_err(),
            PlannerError::EmptyQuery
        );
        let many: Vec<String> = (0..6).map(|i| format!("d{i}")).collect();
        assert_eq!(
            p.best_plan(&JoinQuery::new(many)).unwrap_err(),
            PlannerError::TooManyDatasets(6)
        );
    }

    #[test]
    fn single_dataset_selection_plans() {
        let c = catalog();
        let q = JoinQuery::new(["rivers"])
            .with_selection("rivers", Rect::new([0.0, 0.0], [0.3, 0.3]).unwrap());
        let plans = Planner::new(&c).enumerate(&q).unwrap();
        // The Eq 1 probe, and the filter over a scan of every leaf page:
        // costing — no special case — picks the probe.
        assert_eq!(plans.len(), 2);
        assert!(matches!(plans[0].root, PlanNode::IndexRangeSelect { .. }));
        assert!(matches!(plans[1].root, PlanNode::Filter { .. }));
        assert!(plans[0].total_cost < plans[1].total_cost);
        assert_eq!(Planner::new(&c).best_plan(&q).unwrap().root, plans[0].root);
    }

    #[test]
    fn best_plan_is_the_first_enumerated_plan() {
        let c = catalog();
        let window = Rect::new([0.1, 0.2], [0.4, 0.6]).unwrap();
        let queries = [
            JoinQuery::new(["rivers", "countries"]),
            JoinQuery::new(["rivers", "countries"]).with_selection("rivers", window),
            JoinQuery::new(["rivers", "countries", "roads"]).with_selection("roads", window),
        ];
        let planner = Planner::new(&c);
        for q in &queries {
            let plans = planner.enumerate(q).unwrap();
            let best = planner.best_plan(q).unwrap();
            assert_eq!(best.root, plans[0].root);
            assert_eq!(best.total_cost, plans[0].total_cost);
            // No structural duplicate survives enumeration.
            for (i, p) in plans.iter().enumerate() {
                assert!(plans[..i].iter().all(|earlier| earlier.root != p.root));
            }
        }
    }
}
