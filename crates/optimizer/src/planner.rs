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
//!   probe. A set's first selection is the one a pushdown takes; any
//!   further selection on it is always a filter.
//!
//! Plans are costed by [`crate::cost::CostEstimator`]'s rules; the
//! cheapest one wins. Queries are small (SDBMS join chains of 2 to
//! `MAX_DATASETS` data sets), so exhaustive enumeration is the right
//! tool — no DP needed. It does each piece of work once:
//!
//! * **A query is resolved once.** At the top of every call each listed
//!   set becomes a slot: its catalog entry, its index's tree parameters
//!   (Eqs 2–5, derived once, or the estimator's measured override) and
//!   its selections. Orders permute slot indices; no name is looked up
//!   or cloned after that until a returned tree is built.
//! * **A partial carries its estimate.** A left-deep partial is its
//!   [`Estimate`], not a tree. Each join step prices only itself from
//!   its inputs' estimates, through the estimator's one join-step rule —
//!   the rule [`CostEstimator::estimate`] applies to a finished tree, so
//!   the two agree bit for bit. A candidate is a `Shape`: its order, its
//!   pushed windows, and per step the partial's role and the algorithm.
//! * **Mirrored orders are skipped.** An order `[b, a, …]` produces
//!   exactly the plans of `[a, b, …]`, which is generated first: the
//!   first join explores both roles of `{a, b}` either way, and every
//!   later step is the same. Only orders whose first two sets keep their
//!   query order are generated, so every candidate is distinct and
//!   `enumerate` deduplicates nothing. The first occurrences — and with
//!   them `enumerate`'s order among equal costs — are unchanged.
//! * **A tree is built only for what is returned**, by moving its parts
//!   in: every candidate for [`Planner::enumerate`], the running
//!   minimum's alone for [`Planner::best_plan`].

use crate::catalog::Catalog;
use crate::cost::{filtered, BaseSet, CostEstimator, JoinInput};
use crate::plan::{Access, Estimate, JoinAlgorithm, JoinQuery, PhysicalPlan, PlanNode};
use sjcm_geom::Rect;

/// The most data sets one query may list: the enumerator visits every
/// left-deep order of them.
const MAX_DATASETS: usize = 5;

/// Planner failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// The query referenced a data set missing from the catalog.
    UnknownDataset(String),
    /// The query listed no data sets.
    EmptyQuery,
    /// More data sets than the exhaustive enumerator accepts; the
    /// message names the limit.
    TooManyDatasets(usize),
    /// The same data set was listed twice (self-joins need distinct
    /// catalog aliases so filters and output columns stay unambiguous).
    DuplicateDataset(String),
    /// A selection names a data set the query does not list.
    SelectionOnUnlistedDataset(String),
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
                    "{n} datasets exceed the exhaustive enumeration limit ({MAX_DATASETS})"
                )
            }
            PlannerError::DuplicateDataset(d) => {
                write!(
                    f,
                    "dataset {d} listed twice; register an alias for self-joins"
                )
            }
            PlannerError::SelectionOnUnlistedDataset(d) => {
                write!(f, "selection on dataset {d}, which the query does not list")
            }
            PlannerError::NoFeasiblePlan => write!(f, "no feasible plan"),
        }
    }
}

impl std::error::Error for PlannerError {}

/// The cost-based planner.
pub struct Planner<'a, const N: usize> {
    estimator: CostEstimator<'a, N>,
}

impl<'a, const N: usize> Planner<'a, N> {
    /// Creates a planner over a catalog.
    pub fn new(catalog: &'a Catalog<N>) -> Self {
        Self {
            estimator: CostEstimator::new(catalog),
        }
    }

    /// Returns the cheapest plan for the query — the first of
    /// [`Self::enumerate`]'s list, found without keeping, sorting or
    /// building the others.
    pub fn best_plan(&self, query: &JoinQuery<N>) -> Result<PhysicalPlan<N>, PlannerError> {
        let query = self.resolve(query)?;
        // The running minimum: on a tie the earlier candidate stays, as
        // with `Iterator::min_by`.
        let mut best: Option<(Shape, Estimate)> = None;
        self.candidates(&query, &mut |shape, est| {
            let cheaper = match &best {
                Some((_, b)) => est.cost.total_cmp(&b.cost).is_lt(),
                None => true,
            };
            if cheaper {
                best = Some((*shape, est));
            }
        });
        let (shape, est) = best.ok_or(PlannerError::NoFeasiblePlan)?;
        Ok(query.build(&shape, est))
    }

    /// Returns every feasible plan, cheapest first (equal costs in
    /// generation order) — useful for EXPLAIN-style demonstrations of why
    /// a strategy wins.
    pub fn enumerate(&self, query: &JoinQuery<N>) -> Result<Vec<PhysicalPlan<N>>, PlannerError> {
        let query = self.resolve(query)?;
        let mut plans = Vec::new();
        self.candidates(&query, &mut |shape, est| {
            plans.push(query.build(shape, est))
        });
        if plans.is_empty() {
            return Err(PlannerError::NoFeasiblePlan);
        }
        plans.sort_by(|a, b| a.total_cost.total_cmp(&b.total_cost));
        Ok(plans)
    }

    /// Validates the query and resolves each listed set into its slot.
    fn resolve<'q>(&self, query: &'q JoinQuery<N>) -> Result<Resolved<'q, '_, N>, PlannerError> {
        let n = query.datasets.len();
        if n == 0 {
            return Err(PlannerError::EmptyQuery);
        }
        if n > MAX_DATASETS {
            return Err(PlannerError::TooManyDatasets(n));
        }
        let mut slots: Vec<Slot<N>> = Vec::with_capacity(n);
        for name in &query.datasets {
            let set = self
                .estimator
                .base_set(name)
                .map_err(|_| PlannerError::UnknownDataset(name.clone()))?;
            if slots.iter().any(|s| s.name == name) {
                return Err(PlannerError::DuplicateDataset(name.clone()));
            }
            slots.push(Slot {
                name,
                set,
                window: None,
            });
        }
        let mut selections = Vec::with_capacity(query.selections.len());
        for (name, window) in &query.selections {
            let slot = slots
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| PlannerError::SelectionOnUnlistedDataset(name.clone()))?;
            let first = slots[slot].window.is_none();
            slots[slot].window.get_or_insert(window);
            selections.push((slot, window, first));
        }
        Ok(Resolved { slots, selections })
    }

    /// Calls `emit` with every feasible candidate and its estimate, in
    /// generation order: orders (lexicographic in slot index, mirrored
    /// ones skipped), then which windows are pushed, then per join step
    /// the partial's role and the algorithm.
    fn candidates<F: FnMut(&Shape, Estimate)>(&self, query: &Resolved<'_, '_, N>, emit: &mut F) {
        let n = query.slots.len();
        for_each_order(n, &mut |order| {
            let mut shape = Shape {
                order: [0; MAX_DATASETS],
                pushed: 0,
                steps: [(false, JoinAlgorithm::NestedLoop); MAX_DATASETS - 1],
            };
            shape.order[..n].copy_from_slice(order);
            // Each set with a selection can be pushed down or filtered
            // after the joins: bit i of the mask is the i-th such set of
            // this order.
            let selected: Vec<u32> = order
                .iter()
                .filter(|&&s| query.slots[s].window.is_some())
                .map(|&s| 1 << s)
                .collect();
            for mask in 0..1u32 << selected.len() {
                shape.pushed = (0..selected.len())
                    .filter(|i| mask & 1 << i != 0)
                    .fold(0, |pushed, i| pushed | selected[i]);
                let first = query.base(order[0], shape.pushed);
                self.extend(query, &mut shape, first, 1, emit);
            }
        });
    }

    /// Joins the set at `shape.order[k]` to `partial` in every role and
    /// by every feasible algorithm, pricing each step once, then goes on
    /// with each result; past the last set, applies the filters and
    /// emits.
    fn extend<F: FnMut(&Shape, Estimate)>(
        &self,
        query: &Resolved<'_, '_, N>,
        shape: &mut Shape,
        partial: JoinInput<'_, N>,
        k: usize,
        emit: &mut F,
    ) {
        if k == query.slots.len() {
            let est = query
                .filters(shape.pushed)
                .fold(partial.estimate(Access::Rows), |est, (_, window)| {
                    filtered(&est, window)
                });
            emit(shape, est);
            return;
        }
        let right = query.base(shape.order[k], shape.pushed);
        for (data, other, partial_is_query) in [(partial, right, false), (right, partial, true)] {
            for algorithm in feasible_algorithms(&data, &other) {
                // An infeasible step (SJ over an unindexed input) rules
                // out every plan above it.
                if let Ok((est, _)) = self.estimator.join_step(algorithm, data, other) {
                    shape.steps[k - 1] = (partial_is_query, algorithm);
                    self.extend(query, shape, JoinInput::Derived(est), k + 1, emit);
                }
            }
        }
    }
}

/// One listed set, resolved once per query.
struct Slot<'q, 's, const N: usize> {
    /// The query's name for the set: cloned only into returned trees.
    name: &'q str,
    set: BaseSet<'s, N>,
    /// The window a pushdown restricts the set to: its first selection.
    window: Option<&'q Rect<N>>,
}

/// A query resolved once (see the module docs).
struct Resolved<'q, 's, const N: usize> {
    /// The listed sets, in query order.
    slots: Vec<Slot<'q, 's, N>>,
    /// The selections, in query order: the slot, the window, and whether
    /// it is the slot's first — the one a pushdown takes.
    selections: Vec<(usize, &'q Rect<N>, bool)>,
}

/// A candidate without its tree: the order of slots, which slots'
/// windows are pushed (one bit per slot), and per join step whether the
/// partial plays the query (R2) role and which algorithm joins.
#[derive(Clone, Copy)]
struct Shape {
    order: [usize; MAX_DATASETS],
    pushed: u32,
    steps: [(bool, JoinAlgorithm); MAX_DATASETS - 1],
}

impl<'q, 's, const N: usize> Resolved<'q, 's, N> {
    /// The slot's window if the candidate pushes it.
    fn window(&self, slot: usize, pushed: u32) -> Option<&'q Rect<N>> {
        self.slots[slot].window.filter(|_| pushed & 1 << slot != 0)
    }

    /// The slot's base access path in a candidate that pushes `pushed`.
    fn base(&self, slot: usize, pushed: u32) -> JoinInput<'_, N> {
        JoinInput::Base(&self.slots[slot].set, self.window(slot, pushed))
    }

    /// The selections a candidate applies as filters above its joins,
    /// innermost first: every one but each pushed set's first.
    fn filters(&self, pushed: u32) -> impl Iterator<Item = (usize, &'q Rect<N>)> + '_ {
        self.selections
            .iter()
            .filter(move |&&(slot, _, first)| !(first && pushed & 1 << slot != 0))
            .map(|&(slot, window, _)| (slot, window))
    }

    /// The candidate's tree, built by moving each part in once.
    fn build(&self, shape: &Shape, est: Estimate) -> PhysicalPlan<N> {
        let base = |slot: usize| {
            let dataset = self.slots[slot].name.to_string();
            match self.window(slot, shape.pushed) {
                Some(window) => PlanNode::IndexRangeSelect {
                    dataset,
                    window: *window,
                },
                None => PlanNode::IndexScan { dataset },
            }
        };
        let n = self.slots.len();
        let mut root = base(shape.order[0]);
        for (&slot, &(partial_is_query, algorithm)) in shape.order[1..n].iter().zip(&shape.steps) {
            let (data, query) = if partial_is_query {
                (base(slot), root)
            } else {
                (root, base(slot))
            };
            root = PlanNode::Join {
                data: Box::new(data),
                query: Box::new(query),
                algorithm,
            };
        }
        for (slot, window) in self.filters(shape.pushed) {
            root = PlanNode::Filter {
                input: Box::new(root),
                dataset: self.slots[slot].name.to_string(),
                window: *window,
            };
        }
        PhysicalPlan {
            root,
            total_cost: est.cost,
            cardinality: est.cardinality,
        }
    }
}

/// Algorithm choices for one join, driven by index availability: SJ
/// when both sides are bare scans of an index, INL when exactly one is,
/// NL otherwise. A window selection pushed below the join keeps its base
/// index on disk, so a second variant runs SJ over the base trees with
/// the traversal restricted to the window — the estimator prices it
/// (Eq 10/12 per level × Eq 1's intersection probability) and
/// enumeration lets costing decide.
fn feasible_algorithms<const N: usize>(
    data: &JoinInput<'_, N>,
    query: &JoinInput<'_, N>,
) -> impl Iterator<Item = JoinAlgorithm> {
    let forced = match (data.is_index_scan(), query.is_index_scan()) {
        (true, true) => JoinAlgorithm::SynchronizedTraversal,
        (true, false) | (false, true) => JoinAlgorithm::IndexNestedLoop,
        (false, false) => JoinAlgorithm::NestedLoop,
    };
    let windowed_sj = forced != JoinAlgorithm::SynchronizedTraversal
        && data.is_index_backed()
        && query.is_index_backed();
    std::iter::once(forced).chain(windowed_sj.then_some(JoinAlgorithm::SynchronizedTraversal))
}

/// Calls `visit` with every order of `n ≤ MAX_DATASETS` slots,
/// lexicographically, except the mirrored ones — those whose second slot
/// precedes their first (see the module docs).
fn for_each_order(n: usize, visit: &mut impl FnMut(&[usize])) {
    fn extend(
        order: &mut [usize; MAX_DATASETS],
        len: usize,
        n: usize,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if len == n {
            visit(&order[..n]);
            return;
        }
        for slot in 0..n {
            let mirrored = len == 1 && slot < order[0];
            if !mirrored && !order[..len].contains(&slot) {
                order[len] = slot;
                extend(order, len + 1, n, visit);
            }
        }
    }
    extend(&mut [0; MAX_DATASETS], 0, n, visit);
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
        let orders = |n| {
            let mut out = Vec::new();
            for_each_order(n, &mut |order| out.push(order.to_vec()));
            out
        };
        // Half of n! for n ≥ 2: no order's mirror is generated.
        assert_eq!(orders(1), [[0]]);
        assert_eq!(orders(2), [[0, 1]]);
        assert_eq!(orders(3), [[0, 1, 2], [0, 2, 1], [1, 2, 0]]);
        assert_eq!(orders(MAX_DATASETS).len(), 60);
        // Lexicographic, each a permutation.
        let five = orders(MAX_DATASETS);
        assert!(five.windows(2).all(|w| w[0] < w[1]));
        for order in &five {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..MAX_DATASETS).collect::<Vec<_>>());
            assert!(order[0] < order[1]);
        }
    }

    #[test]
    fn two_way_join_plans() {
        let c = catalog();
        let q = JoinQuery::new(["rivers", "countries"]);
        let plans = Planner::new(&c).enumerate(&q).unwrap();
        // One order (its mirror is skipped) in both roles.
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
        let many: Vec<String> = (0..=MAX_DATASETS).map(|i| format!("d{i}")).collect();
        let err = p.best_plan(&JoinQuery::new(many)).unwrap_err();
        assert_eq!(err, PlannerError::TooManyDatasets(MAX_DATASETS + 1));
        assert!(err.to_string().contains(&format!("({MAX_DATASETS})")));
        assert_eq!(
            p.enumerate(&JoinQuery::new(["rivers", "rivers"]))
                .unwrap_err(),
            PlannerError::DuplicateDataset("rivers".into())
        );
    }

    #[test]
    fn a_selection_on_an_unlisted_set_is_an_error() {
        let c = catalog();
        let p = Planner::new(&c);
        let window = Rect::new([0.0, 0.0], [0.3, 0.3]).unwrap();
        let q = JoinQuery::new(["rivers"]).with_selection("countries", window);
        let want = PlannerError::SelectionOnUnlistedDataset("countries".into());
        assert_eq!(p.best_plan(&q).unwrap_err(), want);
        assert_eq!(p.enumerate(&q).unwrap_err(), want);
        // Listed, the same selection plans.
        let listed = JoinQuery::new(["rivers", "countries"]).with_selection("countries", window);
        assert!(p.best_plan(&listed).is_ok());
    }

    #[test]
    fn every_selection_on_a_set_is_kept() {
        let c = catalog();
        let a = Rect::new([0.0, 0.0], [0.3, 0.3]).unwrap();
        let b = Rect::new([0.2, 0.1], [0.6, 0.4]).unwrap();
        let q = JoinQuery::new(["rivers"])
            .with_selection("rivers", a)
            .with_selection("rivers", b);
        let plans = Planner::new(&c).enumerate(&q).unwrap();
        // Pushed, the first window probes and the second filters; not
        // pushed, both filter a scan.
        let probe_then_filter = PlanNode::Filter {
            input: Box::new(PlanNode::IndexRangeSelect {
                dataset: "rivers".into(),
                window: a,
            }),
            dataset: "rivers".into(),
            window: b,
        };
        let scan_then_filters = PlanNode::Filter {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::IndexScan {
                    dataset: "rivers".into(),
                }),
                dataset: "rivers".into(),
                window: a,
            }),
            dataset: "rivers".into(),
            window: b,
        };
        let roots: Vec<&PlanNode<2>> = plans.iter().map(|p| &p.root).collect();
        assert_eq!(roots, [&probe_then_filter, &scan_then_filters]);
        assert_eq!(
            Planner::new(&c).best_plan(&q).unwrap().root,
            probe_then_filter
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
