//! EXPLAIN ANALYZE: per-operator predicted-vs-measured plan
//! instrumentation with error attribution.
//!
//! The optimizer prices a plan from catalog statistics (Eqs 1–12); the
//! executor runs it and counts real accesses. This module closes the
//! loop *per operator*: [`Explainer::analyze`] executes a
//! [`PhysicalPlan`] through [`PlanExecutor::run_measured`] and returns
//! an [`AnalyzedPlan`] — every [`PlanNode`] annotated with its measured
//! NA/DA, output cardinality and wall-time span, side by side with its
//! [`Estimate`].
//!
//! For each operator the relative error is decomposed the way the
//! paper's §4 validation separates its sources:
//!
//! * **catalog error** — re-estimate the operator with *post-hoc
//!   measured tree parameters* ([`RTree::stats`]: actual heights, node
//!   counts, per-level extents and densities) and measured `(N, D)`
//!   instead of the [`DatasetStats`] priors; the difference between the
//!   prior and this re-estimate is what stale statistics cost;
//! * **residual model error** — the re-estimate against the measured
//!   value; what remains is the formulas' own bias, judged against the
//!   paper's ±15% envelope exactly like the drift check's verdicts.
//!
//! The result renders three ways: an annotated ASCII tree
//! ([`AnalyzedPlan`]'s `Display`), a `plan_analyze.jsonl` obs artifact
//! ([`AnalyzedPlan::to_jsonl`], validated by the experiments crate's
//! `validate-obs`), and the `experiments explain` command, whose
//! `--calibrate` mode feeds [`Explainer::calibrated`] back into a
//! persisted catalog so the next planning run uses observed statistics.

use crate::exec::{ExecError, ExecOutput, OpMeasurement, PlanExecutor};
use crate::json::{self, Value};
use crate::obs::MASS_FLOOR;
use crate::optimizer::cost::{CostError, CostEstimator};
use crate::optimizer::{Catalog, DatasetStats, Estimate, PhysicalPlan, PlanNode};
use crate::prelude::*;
use sjcm_geom::Rect;
use sjcm_join::measured_params;
use sjcm_rtree::TreeStats;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;

/// The paper's §4.1 relative-error envelope (±15%) used for the
/// per-operator verdicts.
pub use crate::obs::PAPER_ENVELOPE;

/// Schema tag stamped on every `plan_analyze.jsonl` line.
pub const PLAN_ANALYZE_SCHEMA: &str = "sjcm.plan_analyze.v1";

/// Keys every `plan_analyze.jsonl` line carries, in the order
/// [`AnalyzedPlan::to_jsonl`] writes them.
const PLAN_ANALYZE_KEYS: [&str; 19] = [
    "schema",
    "seq",
    "op",
    "path",
    "est_cost",
    "reest_cost",
    "est_rows",
    "na",
    "da",
    "cost_io",
    "rows",
    "wall_us",
    "err",
    "catalog_err",
    "model_err",
    "attribution",
    "gated",
    "within",
    "envelope",
];

/// Analysis failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// Plan execution failed.
    Exec(ExecError),
    /// Cost (re-)estimation failed.
    Cost(CostError),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::Exec(e) => write!(f, "explain: {e}"),
            ExplainError::Cost(e) => write!(f, "explain: {e}"),
        }
    }
}

impl std::error::Error for ExplainError {}

impl From<ExecError> for ExplainError {
    fn from(e: ExecError) -> Self {
        ExplainError::Exec(e)
    }
}

impl From<CostError> for ExplainError {
    fn from(e: CostError) -> Self {
        ExplainError::Cost(e)
    }
}

/// Where an operator's cost misprediction comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// The prior and the post-hoc re-estimate disagree more than the
    /// re-estimate and the measurement: stale/analytic catalog
    /// parameters dominate the miss.
    Catalog,
    /// The re-estimate still misses the measurement: the residual is
    /// the model's own.
    Model,
    /// Prediction within the envelope — nothing to attribute.
    Clean,
    /// The operator performs no model-priced I/O (scans, filters).
    Idle,
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribution::Catalog => write!(f, "catalog"),
            Attribution::Model => write!(f, "model"),
            Attribution::Clean | Attribution::Idle => write!(f, "-"),
        }
    }
}

/// One analyzed operator: estimate, re-estimate, measurement, verdict.
#[derive(Debug, Clone)]
pub struct AnalyzedNode {
    /// Operator label (as rendered by the executor, e.g. `Join[SJ]`).
    pub label: String,
    /// Position in the plan tree (see [`OpMeasurement::path`]).
    pub path: Vec<usize>,
    /// The planner's prior estimate (cumulative `cost` + `own_cost`).
    pub estimate: Estimate,
    /// Post-hoc re-estimate from measured tree parameters and measured
    /// `(N, D)`.
    pub reestimate: Estimate,
    /// Measured counters of this operator alone.
    pub measured: OpMeasurement,
    /// Relative error of the prior against the measured
    /// model-comparable I/O (`|est − meas| / meas`; infinite when the
    /// model predicted I/O for an operator that performed none).
    pub err: f64,
    /// Share of the error explained by catalog/parameter staleness
    /// (`|est − reest| / meas`).
    pub catalog_err: f64,
    /// Residual model error (`|reest − meas| / meas`).
    pub model_err: f64,
    /// Dominant error source.
    pub attribution: Attribution,
    /// Whether this operator carries at least [`MASS_FLOOR`] of the
    /// plan's measured model-comparable I/O, and so is gated.
    pub gated: bool,
    /// Envelope verdict on the *residual* model error, for gated
    /// operators (`None` = ungated).
    pub within: Option<bool>,
    /// Child operators (join: `[data, query]`; filter: `[input]`).
    pub children: Vec<AnalyzedNode>,
}

impl AnalyzedNode {
    fn visit<'s>(&'s self, out: &mut Vec<&'s AnalyzedNode>) {
        out.push(self);
        for c in &self.children {
            c.visit(out);
        }
    }
}

/// A fully analyzed plan.
#[derive(Debug, Clone)]
pub struct AnalyzedPlan {
    /// Root operator annotation.
    pub root: AnalyzedNode,
    /// Envelope the verdicts used.
    pub envelope: f64,
    /// Prior total cost (the planner's ranking key).
    pub est_cost: f64,
    /// Post-hoc total cost.
    pub reest_cost: f64,
    /// Measured model-comparable I/O of the whole plan.
    pub measured_cost_io: u64,
    /// Total logical node accesses.
    pub na: u64,
    /// Total buffer misses.
    pub da: u64,
    /// Result rows.
    pub rows: u64,
    /// Total wall time across operators, microseconds.
    pub wall_us: u64,
}

impl AnalyzedPlan {
    /// All operators, pre-order.
    pub fn nodes(&self) -> Vec<&AnalyzedNode> {
        let mut out = Vec::new();
        self.root.visit(&mut out);
        out
    }

    /// `true` iff every gated operator's residual model error is within
    /// the envelope.
    pub fn all_within(&self) -> bool {
        self.nodes().iter().all(|n| n.within.unwrap_or(true))
    }

    /// Plan-level relative error of the prior total against the
    /// measured model-comparable I/O.
    pub fn total_err(&self) -> f64 {
        rel_err(self.est_cost, self.measured_cost_io as f64)
    }

    /// Serializes the analysis as JSONL: one object per operator
    /// (pre-order), each carrying the full estimate/measure/attribution
    /// record — the `plan_analyze.jsonl` obs artifact, keys in
    /// `PLAN_ANALYZE_KEYS` order, non-finite numbers as `null`.
    pub fn to_jsonl(&self) -> String {
        let record = |(seq, n): (usize, &AnalyzedNode)| {
            let path = n.path.iter().map(|&i| (i as u64).into()).collect();
            let values: [Value; 19] = [
                PLAN_ANALYZE_SCHEMA.into(),
                (seq as u64).into(),
                n.label.as_str().into(),
                Value::Arr(path),
                n.estimate.own_cost.into(),
                n.reestimate.own_cost.into(),
                n.estimate.cardinality.into(),
                n.measured.na.into(),
                n.measured.da.into(),
                n.measured.cost_io.into(),
                n.measured.rows.into(),
                n.measured.wall_us.into(),
                n.err.into(),
                n.catalog_err.into(),
                n.model_err.into(),
                n.attribution.to_string().into(),
                n.gated.into(),
                n.within.into(),
                self.envelope.into(),
            ];
            let pairs = PLAN_ANALYZE_KEYS.map(String::from).into_iter().zip(values);
            Value::Obj(pairs.collect())
        };
        json::to_jsonl(self.nodes().into_iter().enumerate().map(record))
    }
}

/// Validates a `plan_analyze.jsonl` document: every line parses with
/// the [`PLAN_ANALYZE_SCHEMA`] tag and [`AnalyzedPlan::to_jsonl`]'s
/// keys, per-operator DA never exceeds NA, `seq` counts up from zero,
/// and `within` is never `false` — a gated operator whose residual
/// model error breached the envelope fails the artifact
/// (catalog-attributed misses are legal: they are what `--calibrate`
/// exists to demonstrate). Returns the number of operators.
pub fn validate_plan_analyze_jsonl(text: &str) -> Result<usize, String> {
    let records = json::read_jsonl(text)?;
    for (i, v) in records.iter().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        match v.get("schema").and_then(Value::as_str) {
            Some(PLAN_ANALYZE_SCHEMA) => {}
            other => {
                return Err(at(format!(
                    "unexpected schema {:?} (want {PLAN_ANALYZE_SCHEMA})",
                    other.unwrap_or("<missing>")
                )))
            }
        }
        json::require(v, &PLAN_ANALYZE_KEYS).map_err(at)?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        if let (Some(na), Some(da)) = (num("na"), num("da")) {
            if da > na {
                return Err(at(format!("da {da} exceeds na {na}")));
            }
        }
        if num("seq") != Some(i as f64) {
            return Err(at(format!("non-contiguous seq (expected {i})")));
        }
        if v.get("within").and_then(Value::as_bool) == Some(false) {
            return Err(at(format!(
                "operator {} breached the envelope (within = false)",
                v.get("op").and_then(Value::as_str).unwrap_or("?")
            )));
        }
    }
    if records.is_empty() {
        return Err("no plan operators recorded".to_string());
    }
    Ok(records.len())
}

fn pct(e: f64) -> String {
    if e.is_finite() {
        format!("{:.1}%", e * 100.0)
    } else {
        "inf".to_string()
    }
}

impl fmt::Display for AnalyzedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXPLAIN ANALYZE (envelope ±{:.0}%; io = model-comparable page accesses)",
            self.envelope * 100.0
        )?;
        writeln!(
            f,
            "est. cost {:.0} | measured io {} (NA {}, DA {}) | err {} | {} rows in {:.1} ms",
            self.est_cost,
            self.measured_cost_io,
            self.na,
            self.da,
            pct(self.total_err()),
            self.rows,
            self.wall_us as f64 / 1000.0
        )?;
        let nodes = self.nodes();
        let label_w = nodes
            .iter()
            .map(|n| n.label.len() + 2 * n.path.len())
            .max()
            .unwrap_or(8)
            .max("operator".len());
        writeln!(
            f,
            "{:<label_w$}  {:>9}  {:>9}  {:>7}  {:>7}  {:>7}  {:>9}  {:>9}  {:<11}  verdict",
            "operator",
            "est.io",
            "meas.io",
            "err",
            "cat.err",
            "mod.err",
            "est.rows",
            "rows",
            "attribution",
        )?;
        for n in nodes {
            let indent = "  ".repeat(n.path.len());
            let verdict = match n.within {
                Some(true) => "ok",
                Some(false) => "BREACH",
                None => "-",
            };
            writeln!(
                f,
                "{:<label_w$}  {:>9.1}  {:>9}  {:>7}  {:>7}  {:>7}  {:>9.0}  {:>9}  {:<11}  {}",
                format!("{indent}{}", n.label),
                n.estimate.own_cost,
                n.measured.cost_io,
                pct(n.err),
                pct(n.catalog_err),
                pct(n.model_err),
                n.estimate.cardinality,
                n.measured.rows,
                n.attribution.to_string(),
                verdict,
            )?;
        }
        Ok(())
    }
}

/// Relative error with a zero-measurement guard.
fn rel_err(estimate: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        if estimate.abs() < 0.5 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate - measured).abs() / measured
    }
}

/// EXPLAIN ANALYZE driver: binds data sets, executes plans with full
/// instrumentation, and attributes per-operator error.
pub struct Explainer<'a, const N: usize> {
    catalog: &'a Catalog<N>,
    executor: PlanExecutor<'a, N>,
    datasets: Vec<String>,
    envelope: f64,
    // One stats walk per bound tree, shared by the calibration stats
    // and the post-hoc parameters and reused across analyses: a
    // re-walk per analysis would be most of what annotation costs
    // (the benchmark's `exec.explain_overhead_pct`).
    stats_cache: OnceCell<BTreeMap<String, TreeStats>>,
}

impl<'a, const N: usize> Explainer<'a, N> {
    /// Creates an explainer over the catalog the plans were priced
    /// against, with the paper's envelope.
    pub fn new(catalog: &'a Catalog<N>) -> Self {
        Self {
            catalog,
            executor: PlanExecutor::new(),
            datasets: Vec::new(),
            envelope: PAPER_ENVELOPE,
            stats_cache: OnceCell::new(),
        }
    }

    /// Binds a base data set by name (see [`PlanExecutor::bind`]).
    pub fn bind(mut self, name: &str, tree: &'a RTree<N>, objects: &'a [Rect<N>]) -> Self {
        self.executor = self.executor.bind(name, tree, objects);
        self.datasets.push(name.to_string());
        self.stats_cache = OnceCell::new();
        self
    }

    /// The cached per-dataset tree statistics (one walk per tree).
    fn tree_stats(&self) -> &BTreeMap<String, TreeStats> {
        self.stats_cache.get_or_init(|| {
            self.datasets
                .iter()
                .filter_map(|name| {
                    self.executor
                        .binding(name)
                        .map(|b| (name.clone(), b.tree.stats()))
                })
                .collect()
        })
    }

    /// Overrides the verdict envelope (the paper's ±15% by default).
    pub fn with_envelope(mut self, envelope: f64) -> Self {
        self.envelope = envelope;
        self
    }

    /// Sets the SJ worker count (counters are thread-invariant).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.executor = self.executor.with_threads(threads);
        self
    }

    /// Statistics measured from the bound trees: actual `N` (stored
    /// objects) and `D` (data density) per data set — what `--calibrate`
    /// writes back into the persisted catalog.
    pub fn measured_stats(&self) -> Vec<(String, DatasetStats<N>)> {
        self.tree_stats()
            .iter()
            .map(|(name, stats)| {
                let mut ds = DatasetStats::new(stats.num_objects as u64, stats.data_density);
                ds.indexed = self.catalog.get(name).is_none_or(|prior| prior.indexed);
                (name.clone(), ds)
            })
            .collect()
    }

    /// A copy of the catalog with every bound data set's statistics
    /// replaced by the measured ones (unbound entries untouched).
    pub fn calibrated(&self) -> Catalog<N> {
        let mut out = self.catalog.clone();
        for (name, stats) in self.measured_stats() {
            out.register(&name, stats);
        }
        out
    }

    /// Post-hoc measured tree parameters for every bound data set.
    fn posthoc_params(&self) -> BTreeMap<String, TreeParams<N>> {
        self.tree_stats()
            .iter()
            .map(|(name, stats)| (name.clone(), measured_params(stats)))
            .collect()
    }

    /// Executes the plan and annotates every operator (see the module
    /// docs for the attribution semantics).
    pub fn analyze(&self, plan: &PhysicalPlan<N>) -> Result<AnalyzedPlan, ExplainError> {
        let (out, ops) = self.executor.run_measured(plan)?;
        self.annotate_run(plan, &out, &ops)
    }

    /// Annotates an already-executed plan from its output and
    /// per-operator measurement stream — the post-processing half of
    /// [`Self::analyze`]. Estimates, re-estimates and measurements all
    /// arrive pre-order, one per operator, so they are zipped.
    fn annotate_run(
        &self,
        plan: &PhysicalPlan<N>,
        out: &ExecOutput,
        ops: &[OpMeasurement],
    ) -> Result<AnalyzedPlan, ExplainError> {
        let prior = CostEstimator::new(self.catalog).estimate_each(&plan.root)?;
        let calibrated = self.calibrated();
        let posthoc = CostEstimator::new(&calibrated)
            .with_measured_params(self.posthoc_params())
            .estimate_each(&plan.root)?;
        let mut operators = prior.into_iter().zip(posthoc).zip(ops.iter().cloned());
        let root = self.annotate(&plan.root, &mut operators, out.cost_io);
        let (est_cost, reest_cost) = (root.estimate.cost, root.reestimate.cost);
        let wall_us = {
            let mut all = Vec::new();
            root.visit(&mut all);
            all.iter().map(|n| n.measured.wall_us).sum()
        };
        Ok(AnalyzedPlan {
            root,
            envelope: self.envelope,
            est_cost,
            reest_cost,
            measured_cost_io: out.cost_io,
            na: out.na,
            da: out.da,
            rows: out.rows.len() as u64,
            wall_us,
        })
    }

    fn annotate(
        &self,
        node: &PlanNode<N>,
        operators: &mut impl Iterator<Item = ((Estimate, Estimate), OpMeasurement)>,
        total_io: u64,
    ) -> AnalyzedNode {
        let ((estimate, reestimate), measured) = operators
            .next()
            .expect("one estimate and one measurement per operator");
        let meas_io = measured.cost_io as f64;
        let err = rel_err(estimate.own_cost, meas_io);
        let catalog_err = rel_err_against(estimate.own_cost, reestimate.own_cost, meas_io);
        let model_err = rel_err(reestimate.own_cost, meas_io);
        let idle = measured.cost_io == 0 && estimate.own_cost.abs() < 0.5;
        let attribution = if idle {
            Attribution::Idle
        } else if err <= self.envelope {
            Attribution::Clean
        } else if (estimate.own_cost - reestimate.own_cost).abs()
            >= (reestimate.own_cost - meas_io).abs()
        {
            Attribution::Catalog
        } else {
            Attribution::Model
        };
        let gated = total_io > 0
            && measured.cost_io as f64 >= MASS_FLOOR * total_io as f64
            && measured.cost_io > 0;
        let within = if gated {
            Some(model_err <= self.envelope)
        } else {
            None
        };
        let children = node
            .inputs()
            .into_iter()
            .flatten()
            .map(|child| self.annotate(child, operators, total_io))
            .collect();
        AnalyzedNode {
            label: measured.label.clone(),
            path: measured.path.clone(),
            estimate,
            reestimate,
            measured,
            err,
            catalog_err,
            model_err,
            attribution,
            gated,
            within,
            children,
        }
    }
}

/// `|prior − posthoc| / measured` with the same zero guard as
/// [`rel_err`].
fn rel_err_against(prior: f64, posthoc: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        if (prior - posthoc).abs() < 0.5 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (prior - posthoc).abs() / measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(label: &str, path: Vec<usize>, own_cost: f64, na: u64) -> AnalyzedNode {
        AnalyzedNode {
            label: label.to_string(),
            path,
            estimate: Estimate {
                own_cost,
                cardinality: 12.345678,
                ..Estimate::default()
            },
            reestimate: Estimate::default(),
            measured: OpMeasurement {
                na,
                da: na / 2,
                cost_io: na,
                ..OpMeasurement::default()
            },
            err: rel_err(own_cost, na as f64),
            catalog_err: 0.0,
            model_err: 0.1234567891,
            attribution: Attribution::Clean,
            gated: true,
            within: Some(true),
            children: Vec::new(),
        }
    }

    #[test]
    fn jsonl_round_trips_a_non_finite_estimate_at_full_precision() {
        let mut root = node("Join[SJ]", vec![], 40.0, 40);
        root.children = vec![
            node("IndexScan(a)", vec![0], f64::INFINITY, 0),
            node("IndexScan(b)", vec![1], 0.0, 0),
        ];
        let plan = AnalyzedPlan {
            root,
            envelope: PAPER_ENVELOPE,
            est_cost: 40.0,
            reest_cost: 40.0,
            measured_cost_io: 40,
            na: 40,
            da: 20,
            rows: 0,
            wall_us: 0,
        };
        let text = plan.to_jsonl();
        assert_eq!(validate_plan_analyze_jsonl(&text), Ok(3));
        let records = json::read_jsonl(&text).unwrap();
        let keys: Vec<&str> = match &records[0] {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, PLAN_ANALYZE_KEYS);
        let scan = &records[1];
        assert_eq!(scan.get("est_cost"), Some(&Value::Null));
        assert_eq!(scan.get("err"), Some(&Value::Null));
        assert_eq!(scan.get("path"), Some(&Value::Arr(vec![Value::Num(0.0)])));
        let join = &records[0];
        assert_eq!(join.get("est_rows").unwrap().as_f64(), Some(12.345678));
        assert_eq!(join.get("model_err").unwrap().as_f64(), Some(0.1234567891));
        assert_eq!(join.get("within"), Some(&Value::Bool(true)));
        assert_eq!(join.get("envelope").unwrap().as_f64(), Some(0.15));
    }

    #[test]
    fn validator_names_the_broken_line() {
        let plan = AnalyzedPlan {
            root: node("Join[SJ]", vec![], 40.0, 40),
            envelope: PAPER_ENVELOPE,
            est_cost: 40.0,
            reest_cost: 40.0,
            measured_cost_io: 40,
            na: 40,
            da: 20,
            rows: 0,
            wall_us: 0,
        };
        let first = plan.to_jsonl();
        let first = first.trim_end();
        let second = first.replace("\"seq\":0", "\"seq\":1");
        assert_eq!(
            validate_plan_analyze_jsonl(&format!("{first}\n{second}")),
            Ok(2)
        );
        for (broken, want) in [
            (
                second.replace("\"within\":true", "\"within\":false"),
                "breached the envelope",
            ),
            (
                second.replace("\"da\":20", "\"da\":41"),
                "da 41 exceeds na 40",
            ),
            (first.to_string(), "non-contiguous seq (expected 1)"),
            (second.replace("\"rows\":0,", ""), "missing key rows"),
            (second.replace(".v1", ".v0"), "unexpected schema"),
            (second[..20].to_string(), ""),
        ] {
            let err = validate_plan_analyze_jsonl(&format!("{first}\n{broken}")).unwrap_err();
            assert!(err.starts_with("line 2: ") && err.contains(want), "{err}");
        }
    }
}
