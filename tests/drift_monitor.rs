//! Integration tests for the live model-vs-actual drift monitor: the
//! Eq 6/8–12 predictions registered before an observed join run, the
//! in-flight overrun check inside the parallel executor, and the
//! published `drift.*` gauges. A known-good fixed-seed workload must
//! come out inside the paper's ~15% envelope; a deliberately wrong
//! parameterization must be flagged — in flight, not just post hoc.

use sjcm::join::{measured_params, JoinObs};
use sjcm::model::{join, TreeParams};
use sjcm::obs::{
    DriftMonitor, MetricsRegistry, ProgressTracker, Tracer, DA_TOTAL, NA_TOTAL, PAPER_ENVELOPE,
};
use sjcm::prelude::*;
use sjcm::storage::FlightRecorder;

fn uniform_tree(n: usize, d: f64, seed: u64) -> RTree<2> {
    let rects = sjcm::datagen::uniform::generate::<2>(sjcm::datagen::uniform::UniformConfig::new(
        n, d, seed,
    ));
    let mut tree = RTree::new(RTreeConfig::paper(2));
    for (r, id) in sjcm::datagen::with_ids(rects) {
        tree.insert(r, ObjectId(id));
    }
    tree
}

fn config() -> JoinConfig {
    JoinConfig {
        buffer: BufferPolicy::Path,
        collect_pairs: false,
        ..JoinConfig::default()
    }
}

/// Registers the high-mass targets the way the `experiments join`
/// command does: the totals always, per-level entries only where the
/// prediction carries real mass (near-root levels hold a handful of
/// nodes — no meaningful relative accuracy there).
fn register(drift: &DriftMonitor, p1: &TreeParams<2>, p2: &TreeParams<2>) {
    let targets = join::join_prediction_targets(p1, p2);
    let total = |prefix: &str| {
        targets
            .iter()
            .find(|(n, _)| n == &format!("{prefix}.total"))
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let (na, da) = (total("na"), total("da"));
    for (name, predicted) in &targets {
        let floor = 0.03 * if name.starts_with("na.") { na } else { da };
        if name.ends_with(".total") || *predicted >= floor {
            drift.predict(name, *predicted);
        }
    }
}

#[test]
fn known_good_workload_stays_inside_the_envelope() {
    // 12K is the smallest scale where the formulas' uniform-placement
    // assumption holds (see model_vs_executor.rs); seeds are fixed, so
    // this is a deterministic known-good workload.
    let t1 = uniform_tree(12_000, 0.5, 11);
    let t2 = uniform_tree(12_000, 0.5, 12);
    let drift = DriftMonitor::new(PAPER_ENVELOPE);
    register(
        &drift,
        &measured_params(&t1.stats()),
        &measured_params(&t2.stats()),
    );
    assert!(drift.target_count() >= 4, "totals + leaf levels at least");

    let result = JoinSession::new(&t1, &t2)
        .config(config())
        .scheduler(Scheduler::CostGuided { threads: 2 })
        .observe(&JoinObs {
            tracer: Tracer::disabled(),
            drift: Some(&drift),
            recorder: FlightRecorder::disabled(),
            progress: ProgressTracker::disabled(),
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    for (name, actual) in result.drift_observations() {
        drift.observe(&name, actual);
    }

    assert!(
        drift.all_within(),
        "known-good workload breached the envelope: {:?}",
        drift.breaches()
    );
    for s in drift.samples() {
        assert!(
            s.rel_err <= PAPER_ENVELOPE,
            "{}: {:.1}% off",
            s.name,
            s.rel_err * 100.0
        );
        assert!(!s.overrun, "{} flagged in flight", s.name);
    }

    // The published gauges mirror the samples.
    let metrics = MetricsRegistry::new();
    drift.publish(&metrics);
    assert_eq!(metrics.counter("drift.breaches"), 0);
    assert_eq!(metrics.gauge("drift.envelope"), Some(PAPER_ENVELOPE));
    let gauges = metrics.gauges_with_prefix("drift.");
    assert!(gauges.iter().any(|(n, _)| n == "drift.na.total"));
    assert!(gauges.iter().any(|(n, _)| n == "drift.da.total"));
}

#[test]
fn wrong_parameterization_is_flagged_in_flight() {
    let t1 = uniform_tree(4_000, 0.5, 13);
    let t2 = uniform_tree(4_000, 0.5, 14);
    // A catalog that understates both cardinality and density (stale
    // statistics after a 4x data load, say) predicts a far smaller
    // join: fewer nodes means a fraction of the disk accesses, lower
    // density a fraction of the overlaps. The real workload blows
    // through the predicted totals long before it finishes.
    let cfg = ModelConfig::paper(2);
    let p1 = TreeParams::<2>::from_data(DataProfile::new(1_000, 0.05), &cfg);
    let p2 = TreeParams::<2>::from_data(DataProfile::new(1_000, 0.05), &cfg);
    let drift = DriftMonitor::new(PAPER_ENVELOPE);
    register(&drift, &p1, &p2);

    let result = JoinSession::new(&t1, &t2)
        .config(config())
        .scheduler(Scheduler::CostGuided { threads: 2 })
        .observe(&JoinObs {
            tracer: Tracer::disabled(),
            drift: Some(&drift),
            recorder: FlightRecorder::disabled(),
            progress: ProgressTracker::disabled(),
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    for (name, actual) in result.drift_observations() {
        drift.observe(&name, actual);
    }

    assert!(!drift.all_within(), "bogus predictions must be flagged");
    let breaches = drift.breaches();
    assert!(
        breaches.iter().any(|b| b.overrun),
        "the overrun must be caught while the join is in flight, \
         not just post hoc: {breaches:?}"
    );
    assert!(
        breaches
            .iter()
            .any(|b| b.name == NA_TOTAL && b.overrun && !b.within),
        "{NA_TOTAL} must be among the in-flight breaches: {breaches:?}"
    );
    assert!(breaches.iter().any(|b| b.name == DA_TOTAL));

    let metrics = MetricsRegistry::new();
    drift.publish(&metrics);
    assert!(metrics.counter("drift.breaches") >= 2);
}
