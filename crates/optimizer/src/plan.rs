//! Query and plan representations.

use sjcm_geom::Rect;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A declarative join query: a set of base data sets combined by
/// pairwise `overlap` joins (the paper's operator), with optional window
/// selections on individual data sets — the shape of the paper's
/// motivating example ("rivers that cross countries and lie west of the
/// 7th meridian").
#[derive(Debug, Clone)]
pub struct JoinQuery<const N: usize> {
    /// Base data sets participating in the join chain (2 or more; a
    /// single data set with a selection is also allowed).
    pub datasets: Vec<String>,
    /// Window selections: `(dataset, window)`.
    pub selections: Vec<(String, Rect<N>)>,
}

impl<const N: usize> JoinQuery<N> {
    /// A pure join over the given data sets.
    pub fn new<I, S>(datasets: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            datasets: datasets.into_iter().map(Into::into).collect(),
            selections: Vec::new(),
        }
    }

    /// Adds a window selection on one data set.
    pub fn with_selection(mut self, dataset: &str, window: Rect<N>) -> Self {
        self.selections.push((dataset.to_string(), window));
        self
    }
}

/// Physical join algorithm chosen by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Synchronized R-tree traversal (SJ) — requires indexes on both
    /// inputs. Cost via Eq 10/12 (path buffer); role-sensitive.
    SynchronizedTraversal,
    /// Index nested loop: window query on the indexed side per object of
    /// the other side. Cost via Eq 1.
    IndexNestedLoop,
    /// Block nested loop over two unindexed inputs.
    NestedLoop,
}

/// How an operator's parent consumes a base access path — what decides
/// the path's cost, for the estimator and the executor alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// As rows: a scan reads every leaf page (N_1 of Eq 3), a range
    /// select runs its Eq 1 probe.
    Rows,
    /// As the index itself, which the parent join reads (and prices) on
    /// its own: free. For a range select under SJ, the window the
    /// traversal is restricted to.
    Handle,
}

impl JoinAlgorithm {
    /// How a join by this algorithm consumes its `(data, query)` inputs,
    /// given which of them are bare scans of an index: SJ reads both
    /// through their indexes, INL the scan it probes (the data side
    /// when both are scans), NL neither.
    pub fn input_access(self, data_is_index: bool, query_is_index: bool) -> (Access, Access) {
        match self {
            JoinAlgorithm::SynchronizedTraversal => (Access::Handle, Access::Handle),
            JoinAlgorithm::IndexNestedLoop if data_is_index => (Access::Handle, Access::Rows),
            JoinAlgorithm::IndexNestedLoop if query_is_index => (Access::Rows, Access::Handle),
            _ => (Access::Rows, Access::Rows),
        }
    }
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinAlgorithm::SynchronizedTraversal => write!(f, "SJ"),
            JoinAlgorithm::IndexNestedLoop => write!(f, "INL"),
            JoinAlgorithm::NestedLoop => write!(f, "NL"),
        }
    }
}

/// One operator of a physical plan. Equality and hashing are structural
/// — same operators over the same data sets with bit-identical windows;
/// the planner enumerates no two plans that are equal.
#[derive(Debug, Clone)]
pub enum PlanNode<const N: usize> {
    /// The base data set through its R-tree: free as the index handle
    /// of an SJ or INL join, a read of every leaf page when its rows are
    /// materialised (under a filter or an NL join, as an INL join's
    /// probing side, or as the plan root).
    IndexScan {
        /// Data set name.
        dataset: String,
    },
    /// Window selection executed through the base index (Eq 1 cost),
    /// producing an unindexed intermediate set — or, directly below an
    /// SJ join, the window the join's one traversal is restricted to
    /// (no probe of its own).
    IndexRangeSelect {
        /// Data set name.
        dataset: String,
        /// Selection window.
        window: Rect<N>,
    },
    /// Window selection applied on the fly to an intermediate input
    /// (no additional I/O).
    Filter {
        /// Input plan.
        input: Box<PlanNode<N>>,
        /// The data set whose column the filter applies to (join outputs
        /// carry one column per base data set).
        dataset: String,
        /// Selection window.
        window: Rect<N>,
    },
    /// A spatial join of two inputs. For the SJ algorithm, `data` plays
    /// the R1 (inner-loop) role and `query` the R2 (outer-loop) role —
    /// the role assignment Eq 10/12 is sensitive to.
    Join {
        /// The R1 / data-tree side.
        data: Box<PlanNode<N>>,
        /// The R2 / query-tree side.
        query: Box<PlanNode<N>>,
        /// Chosen algorithm.
        algorithm: JoinAlgorithm,
    },
}

/// The corner coordinates of a window as bits: what plan identity
/// compares and hashes (`-0.0` and `0.0` are different windows here,
/// which costs at worst one duplicate plan).
fn window_bits<const N: usize>(w: &Rect<N>) -> [[u64; N]; 2] {
    [
        w.lo().coords().map(f64::to_bits),
        w.hi().coords().map(f64::to_bits),
    ]
}

impl<const N: usize> PlanNode<N> {
    /// This operator's identity apart from its inputs: kind, data set,
    /// window bits, join algorithm.
    #[allow(clippy::type_complexity)]
    fn own_key(&self) -> (u8, &str, Option<[[u64; N]; 2]>, Option<JoinAlgorithm>) {
        match self {
            PlanNode::IndexScan { dataset } => (0, dataset, None, None),
            PlanNode::IndexRangeSelect { dataset, window } => {
                (1, dataset, Some(window_bits(window)), None)
            }
            PlanNode::Filter {
                dataset, window, ..
            } => (2, dataset, Some(window_bits(window)), None),
            PlanNode::Join { algorithm, .. } => (3, "", None, Some(*algorithm)),
        }
    }

    /// Input operators (join: data then query; filter: its input).
    pub fn inputs(&self) -> [Option<&PlanNode<N>>; 2] {
        match self {
            PlanNode::IndexScan { .. } | PlanNode::IndexRangeSelect { .. } => [None, None],
            PlanNode::Filter { input, .. } => [Some(input), None],
            PlanNode::Join { data, query, .. } => [Some(data), Some(query)],
        }
    }
}

impl<const N: usize> PartialEq for PlanNode<N> {
    fn eq(&self, other: &Self) -> bool {
        self.own_key() == other.own_key() && self.inputs() == other.inputs()
    }
}

impl<const N: usize> Eq for PlanNode<N> {}

impl<const N: usize> Hash for PlanNode<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.own_key().hash(state);
        self.inputs().hash(state);
    }
}

/// Estimated properties of one operator, filled in by the cost module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Estimate {
    /// Expected output cardinality.
    pub cardinality: f64,
    /// Expected output density (sum of MBR measures).
    pub density: f64,
    /// Cumulative I/O cost of the subtree rooted here (page accesses).
    pub cost: f64,
    /// I/O cost attributable to this operator alone, excluding its
    /// children — what EXPLAIN ANALYZE compares against the operator's
    /// measured accesses.
    pub own_cost: f64,
    /// Whether the output is backed by an R-tree index.
    pub indexed: bool,
}

/// A costed physical plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan<const N: usize> {
    /// Root operator.
    pub root: PlanNode<N>,
    /// Total estimated I/O cost (sum over operators).
    pub total_cost: f64,
    /// Estimated result cardinality.
    pub cardinality: f64,
}

impl<const N: usize> PlanNode<N> {
    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PlanNode::IndexScan { dataset } => writeln!(f, "{pad}IndexScan({dataset})"),
            PlanNode::IndexRangeSelect { dataset, window } => {
                writeln!(
                    f,
                    "{pad}IndexRangeSelect({dataset}, window={:?})",
                    window.extents()
                )
            }
            PlanNode::Filter {
                input,
                dataset,
                window,
            } => {
                writeln!(f, "{pad}Filter({dataset}, window={:?})", window.extents())?;
                input.render(f, indent + 1)
            }
            PlanNode::Join {
                data,
                query,
                algorithm,
            } => {
                writeln!(f, "{pad}Join[{algorithm}]")?;
                writeln!(f, "{pad}  data(R1):")?;
                data.render(f, indent + 2)?;
                writeln!(f, "{pad}  query(R2):")?;
                query.render(f, indent + 2)
            }
        }
    }
}

impl<const N: usize> fmt::Display for PhysicalPlan<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan (est. cost {:.0} page accesses, est. cardinality {:.0}):",
            self.total_cost, self.cardinality
        )?;
        self.root.render(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_builder() {
        let window = Rect::new([0.0, 0.0], [0.5, 1.0]).unwrap();
        let q = JoinQuery::<2>::new(["a", "b"]).with_selection("a", window);
        assert_eq!(q.datasets, vec!["a", "b"]);
        assert_eq!(q.selections, vec![("a".to_string(), window)]);
    }

    #[test]
    fn plan_renders_tree() {
        let plan = PhysicalPlan {
            root: PlanNode::<2>::Join {
                data: Box::new(PlanNode::IndexScan {
                    dataset: "rivers".into(),
                }),
                query: Box::new(PlanNode::IndexRangeSelect {
                    dataset: "countries".into(),
                    window: Rect::unit(),
                }),
                algorithm: JoinAlgorithm::IndexNestedLoop,
            },
            total_cost: 123.0,
            cardinality: 45.0,
        };
        let text = plan.to_string();
        assert!(text.contains("Join[INL]"));
        assert!(text.contains("IndexScan(rivers)"));
        assert!(text.contains("IndexRangeSelect(countries"));
        assert!(text.contains("est. cost 123"));
    }

    #[test]
    fn plan_identity_is_structural() {
        use std::collections::HashSet;
        let select = |name: &str, hi: f64| PlanNode::<2>::IndexRangeSelect {
            dataset: name.into(),
            window: Rect::new([0.0, 0.0], [hi, hi]).unwrap(),
        };
        let join = |data: PlanNode<2>, query: PlanNode<2>| PlanNode::Join {
            data: Box::new(data),
            query: Box::new(query),
            algorithm: JoinAlgorithm::SynchronizedTraversal,
        };
        let plans = [
            join(select("a", 0.5), select("b", 0.5)),
            join(select("a", 0.5), select("b", 0.5)),
            // Roles swapped, a window moved, a data set renamed: all new.
            join(select("b", 0.5), select("a", 0.5)),
            join(select("a", 0.25), select("b", 0.5)),
            join(select("a", 0.5), select("c", 0.5)),
        ];
        assert_eq!(plans[0], plans[1]);
        assert!(plans[2..].iter().all(|p| *p != plans[0]));
        assert_eq!(plans.iter().collect::<HashSet<_>>().len(), 4);
    }

    #[test]
    fn algorithm_labels() {
        assert_eq!(JoinAlgorithm::SynchronizedTraversal.to_string(), "SJ");
        assert_eq!(JoinAlgorithm::IndexNestedLoop.to_string(), "INL");
        assert_eq!(JoinAlgorithm::NestedLoop.to_string(), "NL");
    }
}
