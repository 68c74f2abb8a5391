//! `exec`: the facade's plan executor, EXPLAIN ANALYZE and JSON reader,
//! on queries over the workload's own catalog.

use super::optimizer::join2_sel_templates;
use super::Probes;
use crate::metrics::Metrics;
use crate::spans::{field_f64, Trace};
use crate::stats::{median, sub_seed};
use crate::workload::LayerInputs;
use sjcm::datagen::query_windows;
use sjcm::exec::PlanExecutor;
use sjcm::explain::Explainer;
use sjcm::json::{parse, Value};
use sjcm::optimizer::{JoinQuery, Planner};
use std::hint::black_box;

/// Rectangles in the JSON data set file the parse probe reads.
const JSON_RECTS: usize = 20_000;

/// A `PlanExecutor` with the workload's three sets bound.
pub fn executor<'a>(x: &'a LayerInputs) -> PlanExecutor<'a, 2> {
    let mut exec = PlanExecutor::new();
    for i in 0..3 {
        exec = exec.bind(x.names[i], x.trees[i], x.sets[i]);
    }
    exec
}

/// Plan + run of single-set window selections, twenty to a span.
fn select_us_p50(p: &Probes, x: &LayerInputs) {
    let queries: Vec<JoinQuery<2>> = query_windows::<2>(20, [0.1; 2], sub_seed(x.seed, 34))
        .into_iter()
        .map(|w| JoinQuery::new([x.names[0]]).with_selection(x.names[0], w))
        .collect();
    let exec = executor(x);
    p.repeat("exec.select", 5, |span| {
        let planner = Planner::new(x.catalog);
        for q in &queries {
            let plan = planner.best_plan(q).expect("selection plans");
            black_box(exec.run(&plan).expect("selection executes"));
        }
        span.set("ops", queries.len());
    });
}

/// Plan + run of two-way joins with a pushed-down window, one to a span.
fn join2_sel_ms_p50(p: &Probes, x: &LayerInputs) {
    let queries = join2_sel_templates(x, 4);
    let exec = executor(x);
    let planner = Planner::new(x.catalog);
    for q in &queries {
        p.repeat("exec.join2_sel", 2, |span| {
            let plan = planner.best_plan(q).expect("two-way query plans");
            let out = exec.run(&plan).expect("two-way plan executes");
            span.set("rows", out.rows.len());
        });
    }
}

/// The full two-way join through the executor, and the same plan under
/// `Explainer::analyze`, alternating.
fn join2_ms_p50_and_explain_overhead_pct(p: &Probes, x: &LayerInputs) {
    let q = JoinQuery::new([x.names[0], x.names[1]]);
    let plan = Planner::new(x.catalog)
        .best_plan(&q)
        .expect("two-way query plans");
    let exec = executor(x);
    let mut explainer = Explainer::new(x.catalog);
    for i in 0..3 {
        explainer = explainer.bind(x.names[i], x.trees[i], x.sets[i]);
    }
    // The first analysis walks the trees once for its statistics and
    // caches them; that one-off is not the per-query overhead.
    black_box(explainer.analyze(&plan).expect("plan analyzes"));
    let mut plain_first = false;
    p.repeat("exec.join2_pair", 6, |pair| {
        // Whichever runs second finds the caches warm: take turns.
        plain_first = !plain_first;
        for plain in [plain_first, !plain_first] {
            if plain {
                let mut span = pair.child("probe.exec.join2");
                let out = exec.run(&plan).expect("two-way plan executes");
                span.set("rows", out.rows.len());
            } else {
                let _span = pair.child("probe.exec.join2_analyzed");
                black_box(explainer.analyze(&plan).expect("plan analyzes"));
            }
        }
    });
}

/// `sjcm::json::parse` of a data set file in the CLI's wire format
/// (`[[[x0,y0],[x1,y1]], …]`): the `sjcm gen` → `sjcm build` hand-off.
fn json_parse_mb_per_s(p: &Probes, x: &LayerInputs) {
    let corner = |c: [f64; 2]| Value::Arr(c.iter().map(|v| Value::Num(*v)).collect());
    let text = Value::Arr(
        x.sets[0]
            .iter()
            .take(JSON_RECTS)
            .map(|r| Value::Arr(vec![corner(r.lo().coords()), corner(r.hi().coords())]))
            .collect(),
    )
    .to_string();
    p.repeat("exec.json_parse", 3, |span| {
        black_box(parse(&text).expect("data set parses"));
        span.set("bytes", text.len());
    });
}

pub fn probe(p: &Probes, x: &LayerInputs) {
    select_us_p50(p, x);
    join2_sel_ms_p50(p, x);
    join2_ms_p50_and_explain_overhead_pct(p, x);
    json_parse_mb_per_s(p, x);
}

pub fn reduce(t: &Trace, m: &mut Metrics) {
    m.set("exec.select_us_p50", t.ns_per_op("probe.exec.select") / 1e3);
    m.set("exec.join2_sel_ms_p50", t.ms("probe.exec.join2_sel"));
    let join2 = t.ms("probe.exec.join2");
    m.set("exec.join2_ms_p50", join2);
    m.set(
        "exec.rows_per_s",
        t.field("probe.exec.join2", "rows") / (join2 / 1e3),
    );
    m.set(
        "exec.explain_overhead_pct",
        100.0 * (t.ms("probe.exec.join2_analyzed") - join2) / join2,
    );
    let mb_per_s: Vec<f64> = t
        .named("probe.exec.json_parse")
        .iter()
        .filter_map(|r| Some(field_f64(r, "bytes")? / r.dur_us.max(1) as f64))
        .collect();
    m.set("exec.json_parse_mb_per_s", median(&mb_per_s));
}
