//! Physical-plan execution: run the optimizer's chosen strategy against
//! real R-trees and count the actual page accesses.
//!
//! The optimizer crate deliberately stays pure (catalog statistics in,
//! costed plans out). This module closes the loop inside the facade
//! crate, where all the substrates meet: bind each base data set to a
//! built [`RTree`] plus its object table, walk the [`PlanNode`] tree,
//! and execute each operator with the same instrumentation the
//! experiments use — so a plan's *estimated* cost can be checked against
//! its *measured* cost (see `tests/plan_execution.rs`).
//!
//! Accounting is dimensionally explicit: every operator reports its
//! logical node accesses (**NA**) and its buffer misses (**DA**)
//! separately, and [`PlanExecutor::run_measured`] additionally returns a
//! per-operator [`OpMeasurement`] stream — the raw material for the
//! EXPLAIN ANALYZE subsystem in [`crate::explain`]. The SJ operator runs
//! through the production [`sjcm_join::JoinSession`] engine (one worker
//! by default — identical counters to the sequential executor), so
//! whatever instrumentation production carries, plan execution carries
//! too.
//!
//! A base access path costs what its parent makes of it, the same rule
//! `optimizer::cost` prices by. Consumed as an index handle — either
//! input of an SJ join, the probed side of an INL join — it reads
//! nothing itself: the join reads the index. Materialised — anywhere
//! else — an `IndexScan` reads every leaf page and an `IndexRangeSelect`
//! runs its Eq 1 probe. A window selection pushed below an SJ join is
//! therefore not a step of its own: the window goes into the session
//! ([`sjcm_join::JoinSession::window`]) and the one synchronized
//! traversal skips every node of the selected tree that misses it.
//!
//! Results are columnar ([`Rows`]): one flat id vector per participating
//! data set, rectangles looked up in the bound object table when an
//! operator (or the caller, through [`PlanExecutor::binding`]) needs
//! them.
//!
//! Supported plan shapes: everything the planner emits for one- and
//! two-dataset queries (scans, index range selects, one join of any
//! algorithm, and filters above them). Deeper join chains return
//! [`ExecError::UnsupportedShape`] — the estimator prices them, but the
//! executor does not run a join over a join's output.

use crate::join::baselines::index_nested_loop_join;
use crate::join::{JoinSession, Scheduler, Side};
use crate::optimizer::{Access, JoinAlgorithm, PhysicalPlan, PlanNode};
use crate::prelude::*;
use sjcm_geom::Rect;
use std::collections::HashMap;
use std::time::Instant;

/// One base data set bound for execution: its index and its object
/// table, indexed by dense `ObjectId` (as produced by
/// [`crate::datagen::with_ids`]).
pub struct BoundDataset<'a, const N: usize> {
    /// The R-tree over the data set.
    pub tree: &'a RTree<N>,
    /// Object MBRs, position `i` holding the rect of `ObjectId(i)`.
    pub objects: &'a [Rect<N>],
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A plan referenced a data set that was never bound.
    UnboundDataset(String),
    /// The plan shape exceeds what the executor models.
    UnsupportedShape(String),
    /// The join itself failed (a worker thread panicked); the payload
    /// is the join's message.
    Join(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnboundDataset(d) => write!(f, "dataset {d} not bound"),
            ExecError::UnsupportedShape(s) => write!(f, "unsupported plan shape: {s}"),
            ExecError::Join(msg) => write!(f, "join failed: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result rows, column-major: row `i` is `(ids(0)[i], ids(1)[i], …)`,
/// one `ObjectId` per participating base data set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    columns: Vec<Vec<ObjectId>>,
}

impl Rows {
    fn from_columns(columns: Vec<Vec<ObjectId>>) -> Self {
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        Self { columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids of column `col` (in [`ExecOutput::columns`] order), one
    /// per row.
    pub fn ids(&self, col: usize) -> &[ObjectId] {
        &self.columns[col]
    }

    /// Keeps the rows whose flag is set: one pass per column.
    fn retain(&mut self, keep: &[bool]) {
        for column in &mut self.columns {
            let mut keep = keep.iter();
            column.retain(|_| *keep.next().expect("one flag per row"));
        }
    }
}

/// A materialized result: one column per participating base data set.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Column names (base data set names), in column order.
    pub columns: Vec<String>,
    /// Result rows as id columns; an object's rectangle is
    /// `executor.binding(column)?.objects[id.0 as usize]`.
    pub rows: Rows,
    /// Logical node accesses (NA) summed over the subtree's operators.
    pub na: u64,
    /// Buffer misses (DA) summed over the subtree's operators. Equals
    /// `na` for unbuffered probes; strictly smaller for SJ runs under
    /// the path buffer.
    pub da: u64,
    /// Model-comparable I/O summed over the subtree: per operator, DA
    /// for SJ under the path buffer (what Eq 10/12 predicts), NA for
    /// index probes (what Eq 1 predicts), leaf pages for a materialised
    /// scan (N_1 of Eq 3), simulated page reads for NL — the measured
    /// counterpart of `Estimate::cost`.
    pub cost_io: u64,
}

/// Measured counters of one operator alone (children excluded) — the
/// measured counterpart of `Estimate::own_cost`, tagged with the
/// operator's position in the plan tree.
#[derive(Debug, Clone, Default)]
pub struct OpMeasurement {
    /// Child indices from the root (`[]` = root; for a join, `[0]` is
    /// the data/R1 side and `[1]` the query/R2 side; a filter's input
    /// is `[0]`).
    pub path: Vec<usize>,
    /// Operator label, e.g. `IndexScan(rivers)` or `Join[SJ]`.
    pub label: String,
    /// Logical node accesses performed by this operator.
    pub na: u64,
    /// Buffer misses charged to this operator.
    pub da: u64,
    /// Model-comparable I/O of this operator (see
    /// [`ExecOutput::cost_io`]).
    pub cost_io: u64,
    /// Output rows produced (for an operator consumed as an index
    /// handle: the objects a scan exposes, 0 for a range select — as
    /// the window of an SJ traversal it materialises nothing).
    pub rows: u64,
    /// Wall-clock span of the operator, children excluded, in
    /// microseconds.
    pub wall_us: u64,
}

impl OpMeasurement {
    /// One operator's own measurement: `[na, da, cost_io]`, its output
    /// rows, and the wall time since `start`.
    fn own(
        path: &[usize],
        label: String,
        [na, da, cost_io]: [u64; 3],
        rows: usize,
        start: Instant,
    ) -> Self {
        OpMeasurement {
            path: path.to_vec(),
            label,
            na,
            da,
            cost_io,
            rows: rows as u64,
            wall_us: start.elapsed().as_micros() as u64,
        }
    }
}

impl ExecOutput {
    /// One column of `dataset`'s ids, no accesses charged yet.
    fn base(dataset: &str, ids: Vec<ObjectId>) -> Self {
        ExecOutput {
            columns: vec![dataset.to_string()],
            rows: Rows::from_columns(vec![ids]),
            na: 0,
            da: 0,
            cost_io: 0,
        }
    }
}

/// Executes physical plans against bound data sets.
pub struct PlanExecutor<'a, const N: usize> {
    bindings: HashMap<String, BoundDataset<'a, N>>,
    threads: usize,
}

impl<'a, const N: usize> PlanExecutor<'a, N> {
    /// Creates an executor with no bindings, running joins on one
    /// worker (the sequential fallback of the parallel entry point —
    /// counters are identical to the sequential executor).
    pub fn new() -> Self {
        Self {
            bindings: HashMap::new(),
            threads: 1,
        }
    }

    /// Binds a base data set by name.
    pub fn bind(mut self, name: &str, tree: &'a RTree<N>, objects: &'a [Rect<N>]) -> Self {
        self.bindings
            .insert(name.to_string(), BoundDataset { tree, objects });
        self
    }

    /// Sets the worker count for SJ operators (clamped to ≥ 1). NA/DA
    /// totals are thread-count-invariant by construction.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Looks up a bound data set.
    pub fn binding(&self, name: &str) -> Option<&BoundDataset<'a, N>> {
        self.bindings.get(name)
    }

    /// Executes a costed plan.
    pub fn run(&self, plan: &PhysicalPlan<N>) -> Result<ExecOutput, ExecError> {
        Ok(self.run_measured(plan)?.0)
    }

    /// Executes a costed plan, also returning one [`OpMeasurement`] per
    /// operator (pre-order: an operator precedes its children — the
    /// order of `CostEstimator::estimate_each`).
    pub fn run_measured(
        &self,
        plan: &PhysicalPlan<N>,
    ) -> Result<(ExecOutput, Vec<OpMeasurement>), ExecError> {
        let mut ops = Vec::new();
        let mut path = Vec::new();
        let out = self.exec_node(&plan.root, Access::Rows, &mut path, &mut ops)?;
        Ok((out, ops))
    }

    fn bound(&self, name: &str) -> Result<&BoundDataset<'a, N>, ExecError> {
        self.bindings
            .get(name)
            .ok_or_else(|| ExecError::UnboundDataset(name.to_string()))
    }

    /// Runs `node` as child `child` of the operator at `path`.
    fn exec_child(
        &self,
        node: &PlanNode<N>,
        child: usize,
        access: Access,
        path: &mut Vec<usize>,
        ops: &mut Vec<OpMeasurement>,
    ) -> Result<ExecOutput, ExecError> {
        path.push(child);
        let out = self.exec_node(node, access, path, ops);
        path.pop();
        out
    }

    /// Runs one operator as its parent consumes it, appending the
    /// subtree's measurements to `ops` in pre-order.
    fn exec_node(
        &self,
        node: &PlanNode<N>,
        access: Access,
        path: &mut Vec<usize>,
        ops: &mut Vec<OpMeasurement>,
    ) -> Result<ExecOutput, ExecError> {
        // Hold this operator's place before its children run, so the
        // stream is pre-order though its counters land after theirs.
        let slot = ops.len();
        ops.push(OpMeasurement::default());
        // Each arm hands back its output carrying the children's totals,
        // and the operator's own measurement.
        let (mut out, own) = match node {
            PlanNode::IndexScan { dataset } => {
                let start = Instant::now();
                let b = self.bound(dataset)?;
                let label = format!("IndexScan({dataset})");
                match access {
                    Access::Handle => (
                        ExecOutput::base(dataset, Vec::new()),
                        OpMeasurement::own(path, label, [0; 3], b.objects.len(), start),
                    ),
                    Access::Rows => {
                        // A leaf scan: every leaf page is read once,
                        // unbuffered (the memory-resident root aside).
                        let mut ids = Vec::with_capacity(b.tree.len());
                        let mut pages = 0u64;
                        for (id, leaf) in b.tree.iter_nodes().filter(|(_, n)| n.is_leaf()) {
                            pages += u64::from(id != b.tree.root_id());
                            ids.extend(leaf.entries.iter().map(|e| e.child.object()));
                        }
                        let own = OpMeasurement::own(path, label, [pages; 3], ids.len(), start);
                        (ExecOutput::base(dataset, ids), own)
                    }
                }
            }
            PlanNode::IndexRangeSelect { dataset, window } => {
                let start = Instant::now();
                let b = self.bound(dataset)?;
                let label = format!("IndexRangeSelect({dataset})");
                match access {
                    // The window of the parent's traversal: no probe.
                    Access::Handle => (
                        ExecOutput::base(dataset, Vec::new()),
                        OpMeasurement::own(path, label, [0; 3], 0, start),
                    ),
                    Access::Rows => {
                        let (hits, visits) = b.tree.query_window_counting(window);
                        // The probe runs unbuffered: every logical access
                        // reads a page, so NA and DA coincide; Eq 1
                        // predicts the NA.
                        let na: u64 = visits.iter().sum();
                        let own = OpMeasurement::own(path, label, [na; 3], hits.len(), start);
                        (ExecOutput::base(dataset, hits), own)
                    }
                }
            }
            PlanNode::Filter {
                input,
                dataset,
                window,
            } => {
                let mut out = self.exec_child(input, 0, Access::Rows, path, ops)?;
                let start = Instant::now();
                let col = out
                    .columns
                    .iter()
                    .position(|c| c == dataset)
                    .ok_or_else(|| {
                        ExecError::UnsupportedShape(format!(
                            "filter on {dataset} but columns are {:?}",
                            out.columns
                        ))
                    })?;
                // An index pass over the filtered column: one rectangle
                // looked up per row, then every column compacted alike.
                let objects = self.bound(dataset)?.objects;
                let keep: Vec<bool> = out
                    .rows
                    .ids(col)
                    .iter()
                    .map(|id| objects[id.0 as usize].intersects(window))
                    .collect();
                out.rows.retain(&keep);
                let label = format!("Filter({dataset})");
                let own = OpMeasurement::own(path, label, [0; 3], out.rows.len(), start);
                (out, own)
            }
            PlanNode::Join {
                data,
                query,
                algorithm,
            } => self.exec_join(data, query, *algorithm, path, ops)?,
        };
        out.na += own.na;
        out.da += own.da;
        out.cost_io += own.cost_io;
        ops[slot] = own;
        Ok(out)
    }

    /// The window of a join input consumed as an index handle: a range
    /// select's, none for a bare scan; `Err` for anything else.
    fn handle_window(node: &PlanNode<N>) -> Result<Option<Rect<N>>, ExecError> {
        match node {
            PlanNode::IndexScan { .. } => Ok(None),
            PlanNode::IndexRangeSelect { window, .. } => Ok(Some(*window)),
            _ => Err(ExecError::UnsupportedShape(
                "SJ requires two base index inputs".into(),
            )),
        }
    }

    /// Runs a join's inputs, then the join: its output (carrying the
    /// inputs' access totals) and its own measurement.
    fn exec_join(
        &self,
        data: &PlanNode<N>,
        query: &PlanNode<N>,
        algorithm: JoinAlgorithm,
        path: &mut Vec<usize>,
        ops: &mut Vec<OpMeasurement>,
    ) -> Result<(ExecOutput, OpMeasurement), ExecError> {
        let label = format!("Join[{algorithm}]");
        // Which inputs the join reads through their index: the rule
        // `optimizer::cost` prices by (every bound data set is indexed).
        let is_scan = |n: &PlanNode<N>| matches!(n, PlanNode::IndexScan { .. });
        let (d_access, q_access) = algorithm.input_access(is_scan(data), is_scan(query));
        if algorithm == JoinAlgorithm::IndexNestedLoop && d_access == q_access {
            return Err(ExecError::UnsupportedShape(
                "INL requires one base index scan".into(),
            ));
        }
        let windows = match algorithm {
            JoinAlgorithm::SynchronizedTraversal => {
                [Self::handle_window(data)?, Self::handle_window(query)?]
            }
            _ => [None, None],
        };
        let left = self.exec_child(data, 0, d_access, path, ops)?;
        let right = self.exec_child(query, 1, q_access, path, ops)?;
        let start = Instant::now();
        if left.columns.len() != 1 || right.columns.len() != 1 {
            return Err(ExecError::UnsupportedShape(format!(
                "{label} inputs must be single-column"
            )));
        }
        let (db, qb) = (
            self.bound(&left.columns[0])?,
            self.bound(&right.columns[0])?,
        );
        let ((ids1, ids2), io) = match algorithm {
            JoinAlgorithm::SynchronizedTraversal => {
                // One synchronized traversal of the base trees through
                // the production session API, restricted to the pushed
                // windows. Nothing governs or faults it, so the result
                // is exact; the one failure left is a worker panic.
                let mut session = JoinSession::new(db.tree, qb.tree)
                    .config(JoinConfig {
                        buffer: BufferPolicy::Path,
                        ..JoinConfig::default()
                    })
                    .scheduler(Scheduler::CostGuided {
                        threads: self.threads,
                    });
                for (side, window) in [Side::R1, Side::R2].into_iter().zip(windows) {
                    if let Some(window) = window {
                        session = session.window(side, window);
                    }
                }
                let result = session
                    .run()
                    .map_err(|e| ExecError::Join(e.to_string()))?
                    .result;
                let (na, da) = (result.na_total(), result.da_total());
                // Under the path buffer the model-comparable I/O is DA.
                (result.pairs.into_iter().unzip(), [na, da, da])
            }
            JoinAlgorithm::IndexNestedLoop => {
                // One window query on the indexed side per row of the
                // other. Unbuffered probes: NA = DA; Eq 1 × outer
                // predicts NA.
                let data_indexed = d_access == Access::Handle;
                let (indexed, probing, rows) = if data_indexed {
                    (db, qb, &right.rows)
                } else {
                    (qb, db, &left.rows)
                };
                let probes: Vec<(Rect<N>, ObjectId)> = rows
                    .ids(0)
                    .iter()
                    .map(|&id| (probing.objects[id.0 as usize], id))
                    .collect();
                let inl = index_nested_loop_join(indexed.tree, &probes);
                let (hit, probe): (Vec<_>, Vec<_>) = inl.pairs.into_iter().unzip();
                let columns = if data_indexed {
                    (hit, probe)
                } else {
                    (probe, hit)
                };
                (columns, [inl.node_accesses; 3])
            }
            JoinAlgorithm::NestedLoop => {
                // Block-nested-loop page cost over the materialized
                // inputs (pages at the paper's average fill).
                let fanout = ModelConfig::paper(N).fanout();
                let pages = |rows: usize| (rows as f64 / fanout).ceil().max(1.0) as u64;
                let (l, r) = (left.rows.ids(0), right.rows.ids(0));
                let io = pages(l.len()) + pages(l.len()) * pages(r.len());
                let mut columns = (Vec::new(), Vec::new());
                for &a in l {
                    let rect = &db.objects[a.0 as usize];
                    for &b in r {
                        if rect.intersects(&qb.objects[b.0 as usize]) {
                            columns.0.push(a);
                            columns.1.push(b);
                        }
                    }
                }
                (columns, [io; 3])
            }
        };
        let own = OpMeasurement::own(path, label, io, ids1.len(), start);
        let out = ExecOutput {
            rows: Rows::from_columns(vec![ids1, ids2]),
            na: left.na + right.na,
            da: left.da + right.da,
            cost_io: left.cost_io + right.cost_io,
            columns: [left.columns, right.columns].concat(),
        };
        Ok((out, own))
    }
}

impl<const N: usize> Default for PlanExecutor<'_, N> {
    fn default() -> Self {
        Self::new()
    }
}
