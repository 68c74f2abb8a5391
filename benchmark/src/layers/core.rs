//! `core`: what evaluating the cost model costs, and how far its
//! predictions sit from the measured join.

use super::Probes;
use crate::metrics::Metrics;
use crate::spans::Trace;
use crate::workload::{mean_err_pct, Facts, LayerInputs};
use sjcm::model::join::{join_cost_da, join_cost_na};
use sjcm::model::nonuniform::join_cost_nonuniform;
use sjcm::model::selectivity::join_selectivity;
use sjcm::model::{DataProfile, DensitySurface, LevelParams, ModelConfig, TreeParams};
use sjcm::rtree::RTree;
use std::hint::black_box;

const BATCH: usize = 1_000;

fn profiles(x: &LayerInputs) -> [DataProfile; 2] {
    [0, 1].map(|i| x.catalog.get(x.names[i]).expect("registered").profile)
}

/// `TreeParams::from_data` (Eqs 2–5) for both sets.
fn params_from_data_ns(p: &Probes, x: &LayerInputs) {
    let config = ModelConfig::paper(2);
    let profiles = profiles(x);
    p.repeat("core.params_from_data", 5, |span| {
        for _ in 0..BATCH {
            for profile in profiles {
                black_box(TreeParams::<2>::from_data(black_box(profile), &config));
            }
        }
        span.set("ops", 2 * BATCH);
    });
}

/// One NA + DA evaluation (Eqs 7 and 10, or 11 and 12).
fn join_cost_ns(p: &Probes, x: &LayerInputs) {
    let config = ModelConfig::paper(2);
    let [p1, p2] = profiles(x).map(|profile| TreeParams::<2>::from_data(profile, &config));
    p.repeat("core.join_cost", 5, |span| {
        for _ in 0..BATCH {
            black_box(join_cost_na(black_box(&p1), &p2) + join_cost_da(&p1, &p2));
        }
        span.set("ops", BATCH);
    });
}

/// `DensitySurface::from_rects` for both sets, then the per-cell model.
fn surface_build_ms_and_nonuniform_cost_us(p: &Probes, x: &LayerInputs) {
    let config = ModelConfig::paper(2);
    let profiles = profiles(x);
    let build = || [0, 1].map(|i| DensitySurface::<2>::from_rects(x.sets[i], 8));
    p.repeat("core.surface_build", 3, |_| {
        black_box(build());
    });
    let [s1, s2] = build();
    p.repeat("core.nonuniform_cost", 5, |span| {
        for _ in 0..BATCH / 10 {
            black_box(join_cost_nonuniform(
                profiles[0],
                black_box(&s1),
                profiles[1],
                &s2,
                &config,
            ));
        }
        span.set("ops", BATCH / 10);
    });
}

/// Model parameters read off a built tree instead of predicted.
fn measured_params(tree: &RTree<2>) -> TreeParams<2> {
    TreeParams::from_levels(
        tree.stats()
            .levels
            .iter()
            .map(|l| LevelParams {
                nodes: l.node_count as f64,
                extents: [l.avg_extents[0], l.avg_extents[1]],
                density: l.density,
            })
            .collect(),
    )
}

/// The same equations fed `RTree::stats` parameters, and the selectivity
/// formula: predictions only, the reducer holds them against the
/// measured join.
fn predictions(p: &Probes, x: &LayerInputs) {
    p.once("core.predictions", |span| {
        let (m1, m2) = (measured_params(x.trees[0]), measured_params(x.trees[1]));
        span.set("na_measured_params", join_cost_na(&m1, &m2));
        span.set("da_measured_params", join_cost_da(&m1, &m2));
        let [d1, d2] = profiles(x);
        span.set("pairs", join_selectivity::<2>(d1, d2));
    });
}

pub fn probe(p: &Probes, x: &LayerInputs) {
    params_from_data_ns(p, x);
    join_cost_ns(p, x);
    surface_build_ms_and_nonuniform_cost_us(p, x);
    predictions(p, x);
}

/// Needs `join::reduce` to have run: errors are against its counts.
pub fn reduce(t: &Trace, facts: &Facts, m: &mut Metrics) {
    m.set(
        "core.params_from_data_ns",
        t.ns_per_op("probe.core.params_from_data"),
    );
    m.set("core.join_cost_ns", t.ns_per_op("probe.core.join_cost"));
    m.set("core.surface_build_ms", t.ms("probe.core.surface_build"));
    m.set(
        "core.nonuniform_cost_us",
        t.ns_per_op("probe.core.nonuniform_cost") / 1e3,
    );
    m.set("core.na_err_pct", mean_err_pct(&facts.na));
    m.set("core.da_err_pct", mean_err_pct(&facts.da));
    let measured = |key: &str| m.get(key).expect("join reduced first");
    let err = |predicted: f64, measured: f64| mean_err_pct(&[(predicted, measured)]);
    let predicted = |key: &str| t.field("probe.core.predictions", key);
    let na = err(predicted("na_measured_params"), measured("join.na"));
    let da = err(predicted("da_measured_params"), measured("join.da"));
    let pairs = err(predicted("pairs"), measured("join.pairs"));
    m.set("core.na_err_measured_params_pct", na);
    m.set("core.da_err_measured_params_pct", da);
    m.set("core.selectivity_err_pct", pairs);
}
