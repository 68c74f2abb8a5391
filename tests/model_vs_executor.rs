//! The headline integration test: the analytical model (crate
//! `sjcm-core`) against the instrumented executor (crate `sjcm-join`)
//! on freshly built R\*-trees — the repository-sized version of the
//! paper's §4 evaluation. Full-scale numbers live in EXPERIMENTS.md;
//! these assertions run at reduced cardinality with correspondingly
//! relaxed bands so `cargo test` stays fast in debug builds.

use sjcm::join::measured_params;
use sjcm::model::join::{join_cost_da, join_cost_na, join_cost_na_by_level};
use sjcm::model::params::predict_height;
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

fn run_join(t1: &RTree<2>, t2: &RTree<2>) -> sjcm::join::JoinResultSet {
    JoinSession::new(t1, t2)
        .config(JoinConfig {
            buffer: BufferPolicy::Path,
            collect_pairs: false,
            ..JoinConfig::default()
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result
}

fn rel_err(est: f64, got: u64) -> f64 {
    (est - got as f64).abs() / got as f64
}

#[test]
fn na_model_tracks_executor_on_uniform_data() {
    for (n1, n2, seed) in [(4_000, 4_000, 1), (8_000, 2_000, 2), (2_000, 8_000, 3)] {
        let t1 = uniform_tree(n1, 0.5, seed);
        let t2 = uniform_tree(n2, 0.5, seed + 100);
        let result = run_join(&t1, &t2);
        let cfg = ModelConfig::paper(2);
        let p1 = TreeParams::<2>::from_data(DataProfile::new(n1 as u64, 0.5), &cfg);
        let p2 = TreeParams::<2>::from_data(DataProfile::new(n2 as u64, 0.5), &cfg);
        let na = join_cost_na(&p1, &p2);
        let da = join_cost_da(&p1, &p2);
        assert!(
            rel_err(na, result.na_total()) < 0.20,
            "{n1}/{n2}: NA model {na:.0} vs measured {} ({:.1}%)",
            result.na_total(),
            100.0 * rel_err(na, result.na_total())
        );
        assert!(
            rel_err(da, result.da_total()) < 0.25,
            "{n1}/{n2}: DA model {da:.0} vs measured {}",
            result.da_total()
        );
        assert!(da <= na * 1.0001, "model must keep DA ≤ NA");
        assert!(result.da_total() <= result.na_total(), "executor invariant");
    }
}

#[test]
fn measured_params_make_the_traversal_model_tight() {
    // The parameter-source ablation: with parameters read from the built
    // trees, the traversal model (Eqs 6-12) should be within a few
    // percent. This needs a scale where the formulas' uniform-placement
    // assumption holds: below ~10K objects the leaf extents are so large
    // relative to the workspace that Eq 6's Minkowski term carries an
    // ~8-11% systematic overestimate, so 12K is the smallest cardinality
    // that exercises the paper's intended regime.
    let t1 = uniform_tree(12_000, 0.5, 11);
    let t2 = uniform_tree(12_000, 0.5, 12);
    let result = run_join(&t1, &t2);
    let p1 = measured_params::<2>(&t1.stats());
    let p2 = measured_params::<2>(&t2.stats());
    let na = join_cost_na(&p1, &p2);
    assert!(
        rel_err(na, result.na_total()) < 0.10,
        "measured-params NA {na:.0} vs {} should be tight",
        result.na_total()
    );
    let da = join_cost_da(&p1, &p2);
    assert!(
        rel_err(da, result.da_total()) < 0.15,
        "measured-params DA {da:.0} vs {}",
        result.da_total()
    );
}

#[test]
fn per_level_na_breakdown_matches_executor_shape() {
    let t1 = uniform_tree(6_000, 0.5, 21);
    let t2 = uniform_tree(6_000, 0.5, 22);
    assert_eq!(t1.height(), t2.height());
    let result = run_join(&t1, &t2);
    let cfg = ModelConfig::paper(2);
    let p1 = TreeParams::<2>::from_data(DataProfile::new(6_000, 0.5), &cfg);
    let p2 = TreeParams::<2>::from_data(DataProfile::new(6_000, 0.5), &cfg);
    for (pair, est) in join_cost_na_by_level(&p1, &p2) {
        let got = result.na_at_paper_level(1, pair.j1);
        if got < 50 {
            // Upper levels hold a handful of nodes at this scale; the
            // expectation-based model has no meaningful relative
            // accuracy over counts this small.
            continue;
        }
        assert!(
            rel_err(est, got) < 0.35,
            "level {:?}: est {est:.0} vs measured {got}",
            pair
        );
    }
}

#[test]
fn predicted_heights_match_built_trees_at_test_scale() {
    let cfg = ModelConfig::paper(2);
    for (n, seed) in [(1_000usize, 31u64), (5_000, 32), (20_000, 33)] {
        let tree = uniform_tree(n, 0.5, seed);
        let h = predict_height(n as u64, &cfg);
        // Eq 2 may overshoot by one near fanout powers (see
        // EXPERIMENTS.md); never more, never under by more than 0.
        assert!(
            h >= tree.height() && h <= tree.height() + 1,
            "N = {n}: predicted {h}, built {}",
            tree.height()
        );
    }
}

#[test]
fn different_height_joins_are_modeled_sanely() {
    // Force a genuine height difference with paper config: 800 vs 20K.
    let t1 = uniform_tree(20_000, 0.5, 41);
    let t2 = uniform_tree(800, 0.5, 42);
    assert!(t1.height() > t2.height());
    let result = run_join(&t1, &t2);
    let cfg = ModelConfig::paper(2);
    let p1 = TreeParams::<2>::from_data(DataProfile::new(20_000, 0.5), &cfg);
    let p2 = TreeParams::<2>::from_data(DataProfile::new(800, 0.5), &cfg);
    let na = join_cost_na(&p1, &p2);
    let da = join_cost_da(&p1, &p2);
    assert!(na > 0.0 && da > 0.0);
    // Within a loose band (Eq 11/12 at small scale).
    assert!(
        rel_err(na, result.na_total()) < 0.45,
        "NA {na:.0} vs {}",
        result.na_total()
    );
    assert!(result.da_total() <= result.na_total());
}

#[test]
fn role_asymmetry_agrees_between_model_and_executor() {
    // Equal heights, different cardinalities: both the model and the
    // measurement must prefer the smaller index in the query role.
    let big = uniform_tree(8_000, 0.5, 51);
    let small = uniform_tree(2_000, 0.5, 52);
    assert_eq!(big.height(), small.height());
    let rule = run_join(&big, &small).da_total();
    let anti = run_join(&small, &big).da_total();
    assert!(rule < anti, "measured: {rule} vs {anti}");
    let cfg = ModelConfig::paper(2);
    let pb = TreeParams::<2>::from_data(DataProfile::new(8_000, 0.5), &cfg);
    let ps = TreeParams::<2>::from_data(DataProfile::new(2_000, 0.5), &cfg);
    assert!(join_cost_da(&pb, &ps) < join_cost_da(&ps, &pb));
}
