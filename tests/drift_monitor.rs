//! Integration tests for the model-vs-actual drift check: the Eq
//! 6/8–12 predictions of a join, gated by mass as the `experiments
//! join` command gates them, held to the finished run's tallies and
//! published as `drift.*` gauges. A known-good fixed-seed workload must
//! come out inside the paper's ~15% envelope; a deliberately wrong
//! parameterization must be flagged.

use sjcm::join::measured_params;
use sjcm::model::{join, TreeParams};
use sjcm::obs::{drift, DriftSample, MetricsRegistry, DA_TOTAL, NA_TOTAL, PAPER_ENVELOPE};
use sjcm::prelude::*;

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

/// The gated predictions for trees with parameters `p1`, `p2`, joined
/// on the cost-guided executor and evaluated against the run.
fn drift_of(
    t1: &RTree<2>,
    t2: &RTree<2>,
    p1: &TreeParams<2>,
    p2: &TreeParams<2>,
) -> (Vec<(String, f64)>, Vec<DriftSample>) {
    let (predictions, _) = drift::gate(&join::join_prediction_targets(p1, p2));
    let result = JoinSession::new(t1, t2)
        .config(config())
        .scheduler(Scheduler::CostGuided { threads: 2 })
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    let samples = drift::evaluate(&predictions, &result.drift_observations(), PAPER_ENVELOPE);
    (predictions, samples)
}

#[test]
fn known_good_workload_stays_inside_the_envelope() {
    // 12K is the smallest scale where the formulas' uniform-placement
    // assumption holds (see model_vs_executor.rs); seeds are fixed, so
    // this is a deterministic known-good workload.
    let t1 = uniform_tree(12_000, 0.5, 11);
    let t2 = uniform_tree(12_000, 0.5, 12);
    let (p1, p2) = (measured_params(&t1.stats()), measured_params(&t2.stats()));
    let (predictions, samples) = drift_of(&t1, &t2, &p1, &p2);
    assert!(predictions.len() >= 4, "totals + leaf levels at least");
    // Every gated prediction is observed once; the ungated levels the
    // run also reports are ignored.
    assert_eq!(samples.len(), predictions.len());
    assert!(
        join::join_prediction_targets(&p1, &p2).len() > samples.len(),
        "some level falls under the mass floor"
    );
    for s in &samples {
        assert!(
            s.within && s.rel_err <= PAPER_ENVELOPE,
            "{}: {:.1}% off",
            s.name,
            s.rel_err * 100.0
        );
    }

    // The published gauges mirror the samples.
    let metrics = MetricsRegistry::new();
    drift::publish(&samples, PAPER_ENVELOPE, &metrics);
    assert_eq!(metrics.counter("drift.breaches"), 0);
    assert_eq!(metrics.gauge("drift.envelope"), Some(PAPER_ENVELOPE));
    let gauges = metrics.gauges_with_prefix("drift.");
    assert!(gauges.iter().any(|(n, _)| n == "drift.na.total"));
    assert!(gauges.iter().any(|(n, _)| n == "drift.da.total"));
}

#[test]
fn wrong_parameterization_breaches_the_totals() {
    let t1 = uniform_tree(4_000, 0.5, 13);
    let t2 = uniform_tree(4_000, 0.5, 14);
    // A catalog that understates both cardinality and density (stale
    // statistics after a 4x data load, say) predicts a far smaller
    // join: fewer nodes means a fraction of the disk accesses, lower
    // density a fraction of the overlaps. The real workload blows
    // through the predicted totals.
    let cfg = ModelConfig::paper(2);
    let p1 = TreeParams::<2>::from_data(DataProfile::new(1_000, 0.05), &cfg);
    let p2 = TreeParams::<2>::from_data(DataProfile::new(1_000, 0.05), &cfg);
    let (_, samples) = drift_of(&t1, &t2, &p1, &p2);

    let breaches: Vec<&DriftSample> = samples.iter().filter(|s| !s.within).collect();
    for total in [NA_TOTAL, DA_TOTAL] {
        assert!(
            breaches
                .iter()
                .any(|b| b.name == total && b.predicted < b.actual),
            "{total} must be breached, under-predicted: {breaches:?}"
        );
    }

    let metrics = MetricsRegistry::new();
    drift::publish(&samples, PAPER_ENVELOPE, &metrics);
    assert!(metrics.counter("drift.breaches") >= 2);
}
