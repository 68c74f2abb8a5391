//! `optimizer`: planning time, the size of the plan space, how much the
//! chosen plan loses to the best one when both are run, and the
//! catalog's JSON round trip.

use super::exec::executor;
use super::Probes;
use crate::metrics::Metrics;
use crate::spans::Trace;
use crate::stats::{sub_seed, SplitMix64};
use crate::workload::LayerInputs;
use sjcm::geom::Rect;
use sjcm::optimizer::{Catalog, JoinQuery, Planner};
use std::hint::black_box;

/// Pooled two-way templates planned per sweep.
const TEMPLATES: usize = 10;
/// Plans per template, cheapest estimates first, that the regret probe
/// executes (executing a nested-loop plan over the full sets would take
/// longer than the whole benchmark).
const REGRET_CANDIDATES: usize = 4;

/// A window covering 2–15 % of the workspace.
fn window(rng: &mut SplitMix64) -> Rect<2> {
    let mut lo = [0.0; 2];
    let mut hi = [0.0; 2];
    for k in 0..2 {
        let extent = rng.range_f64(0.15, 0.4);
        lo[k] = rng.range_f64(0.0, 1.0 - extent);
        hi[k] = lo[k] + extent;
    }
    Rect::new(lo, hi).expect("lo < hi by construction")
}

/// Two-way joins of the main sets with a window on the first.
pub fn join2_sel_templates(x: &LayerInputs, count: usize) -> Vec<JoinQuery<2>> {
    let mut rng = SplitMix64::new(sub_seed(x.seed, 32));
    (0..count)
        .map(|_| {
            JoinQuery::new([x.names[0], x.names[1]]).with_selection(x.names[0], window(&mut rng))
        })
        .collect()
}

/// `Planner::best_plan` over the pooled two-way templates.
fn best_plan_us_p50(p: &Probes, x: &LayerInputs) {
    let templates = join2_sel_templates(x, TEMPLATES);
    p.repeat("optimizer.best_plan", 5, |span| {
        let planner = Planner::new(x.catalog);
        for q in &templates {
            black_box(planner.best_plan(q).expect("two-way query plans"));
        }
        span.set("ops", templates.len());
    });
}

/// `Planner::enumerate` of a three-way chain with one window.
fn enumerate3_us_p50(p: &Probes, x: &LayerInputs) {
    let mut rng = SplitMix64::new(sub_seed(x.seed, 33));
    let q = JoinQuery::new(x.names).with_selection(x.names[0], window(&mut rng));
    p.repeat("optimizer.enumerate3", 5, |span| {
        let planner = Planner::new(x.catalog);
        let mut plans = 0;
        for _ in 0..5 {
            plans = black_box(planner.enumerate(&q).expect("three-way query plans")).len();
        }
        span.set("ops", 5u64);
        span.set("plans", plans);
    });
}

/// Runs the cheapest-estimated plans of a few templates and compares
/// the measured page cost of the planner's choice with the best of them.
fn plan_regret_pct(p: &Probes, x: &LayerInputs) {
    // Fewer templates on larger inputs: every candidate is a full join.
    let count = (260_000 / (x.sets[0].len() + x.sets[1].len())).clamp(2, TEMPLATES);
    let templates = join2_sel_templates(x, count);
    p.once("optimizer.plan_regret", |span| {
        let exec = executor(x);
        let planner = Planner::new(x.catalog);
        let mut regret = 0.0;
        for q in &templates {
            let plans = planner.enumerate(q).expect("two-way query plans");
            let costs: Vec<u64> = plans
                .iter()
                .take(REGRET_CANDIDATES)
                .map(|plan| exec.run(plan).expect("two-way plan executes").cost_io)
                .collect();
            let best = *costs.iter().min().expect("at least one plan") as f64;
            regret += costs[0] as f64 / best.max(1.0) - 1.0;
        }
        span.set("templates", templates.len());
        span.set("regret_pct", 100.0 * regret / templates.len() as f64);
    });
}

/// `Catalog::to_json` + `Catalog::from_json`.
fn catalog_roundtrip_us(p: &Probes, x: &LayerInputs) {
    const BATCH: usize = 100;
    p.repeat("optimizer.catalog_roundtrip", 5, |span| {
        for _ in 0..BATCH {
            let text = x.catalog.to_json();
            black_box(Catalog::<2>::from_json(&text).expect("catalog round-trips"));
        }
        span.set("ops", BATCH);
    });
}

pub fn probe(p: &Probes, x: &LayerInputs) {
    best_plan_us_p50(p, x);
    enumerate3_us_p50(p, x);
    plan_regret_pct(p, x);
    catalog_roundtrip_us(p, x);
}

pub fn reduce(t: &Trace, m: &mut Metrics) {
    m.set(
        "optimizer.best_plan_us_p50",
        t.ns_per_op("probe.optimizer.best_plan") / 1e3,
    );
    m.set(
        "optimizer.enumerate3_us_p50",
        t.ns_per_op("probe.optimizer.enumerate3") / 1e3,
    );
    m.set(
        "optimizer.plans_enumerated",
        t.field("probe.optimizer.enumerate3", "plans"),
    );
    m.set(
        "optimizer.plan_regret_pct",
        t.field("probe.optimizer.plan_regret", "regret_pct"),
    );
    m.set(
        "optimizer.catalog_roundtrip_us",
        t.ns_per_op("probe.optimizer.catalog_roundtrip") / 1e3,
    );
}
