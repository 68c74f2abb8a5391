//! Cross-crate correctness: every join algorithm returns exactly the
//! brute-force pair set on every data generator, including after a
//! persistence round-trip.

use sjcm::join::baselines::{index_nested_loop_join, nested_loop_join};
use sjcm::join::{JoinPredicate, MatchKernel};
use sjcm::prelude::*;

fn build(items: &[(sjcm::geom::Rect<2>, ObjectId)]) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::with_capacity(12));
    for &(r, id) in items {
        tree.insert(r, id);
    }
    tree
}

fn ided(rects: Vec<sjcm::geom::Rect<2>>) -> Vec<(sjcm::geom::Rect<2>, ObjectId)> {
    sjcm::datagen::with_ids(rects)
        .into_iter()
        .map(|(r, id)| (r, ObjectId(id)))
        .collect()
}

fn sorted(mut pairs: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
    pairs.sort();
    pairs
}

fn datasets() -> Vec<(&'static str, Vec<(sjcm::geom::Rect<2>, ObjectId)>)> {
    vec![
        (
            "uniform",
            ided(sjcm::datagen::uniform::generate::<2>(
                sjcm::datagen::uniform::UniformConfig::new(800, 0.4, 1),
            )),
        ),
        (
            "clusters",
            ided(sjcm::datagen::skewed::gaussian_clusters::<2>(
                sjcm::datagen::skewed::ClusterConfig::new(800, 0.3, 2),
            )),
        ),
        (
            "powerlaw",
            ided(sjcm::datagen::skewed::power_law::<2>(800, 0.3, 2.5, 3)),
        ),
        (
            "tiger",
            ided(sjcm::datagen::tiger::generate(
                sjcm::datagen::tiger::TigerConfig::roads(800, 4),
            )),
        ),
    ]
}

#[test]
fn sj_matches_brute_force_on_every_generator() {
    let sets = datasets();
    for (name1, a) in &sets {
        for (name2, b) in &sets {
            let ta = build(a);
            let tb = build(b);
            let expected = sorted(nested_loop_join(a, b));
            let got = sorted(
                JoinSession::new(&ta, &tb)
                    .run()
                    .expect("ungoverned join cannot fail")
                    .result
                    .pairs,
            );
            assert_eq!(got, expected, "{name1} × {name2}");
        }
    }
}

/// Figure 2's one match order, under both kernels and every buffer
/// policy.
#[test]
fn all_match_orders_and_buffers_agree() {
    let sets = datasets();
    let (_, a) = &sets[0];
    let (_, b) = &sets[3];
    let ta = build(a);
    let tb = build(b);
    let expected = sorted(nested_loop_join(a, b));
    for kernel in [MatchKernel::Scalar, MatchKernel::Batched] {
        for buffer in [
            BufferPolicy::None,
            BufferPolicy::Path,
            BufferPolicy::Lru(32),
        ] {
            let got = sorted(
                JoinSession::new(&ta, &tb)
                    .config(JoinConfig {
                        kernel,
                        buffer,
                        ..JoinConfig::default()
                    })
                    .run()
                    .expect("ungoverned join cannot fail")
                    .result
                    .pairs,
            );
            assert_eq!(got, expected, "{kernel:?}/{buffer:?}");
        }
    }
}

#[test]
fn index_nested_loop_and_parallel_agree() {
    let sets = datasets();
    let (_, a) = &sets[1];
    let (_, b) = &sets[2];
    let ta = build(a);
    let tb = build(b);
    let expected = sorted(nested_loop_join(a, b));
    assert_eq!(sorted(index_nested_loop_join(&ta, b).pairs), expected);
    for threads in [2, 3, 8] {
        let got = sorted(
            JoinSession::new(&ta, &tb)
                .config(JoinConfig::default())
                .scheduler(Scheduler::CostGuided { threads })
                .run()
                .expect("ungoverned join cannot fail")
                .result
                .pairs,
        );
        assert_eq!(got, expected, "{threads} threads");
    }
}

#[test]
fn distance_join_matches_brute_force_on_skewed_data() {
    let sets = datasets();
    let (_, a) = &sets[1];
    let (_, b) = &sets[3];
    let ta = build(a);
    let tb = build(b);
    for eps in [0.0, 0.01, 0.05] {
        let mut expected: Vec<(ObjectId, ObjectId)> = Vec::new();
        for &(r1, id1) in a {
            for &(r2, id2) in b {
                if r1.within_distance(&r2, eps) {
                    expected.push((id1, id2));
                }
            }
        }
        expected.sort();
        let got = sorted(
            JoinSession::new(&ta, &tb)
                .config(JoinConfig {
                    predicate: JoinPredicate::WithinDistance(eps),
                    ..JoinConfig::default()
                })
                .run()
                .expect("ungoverned join cannot fail")
                .result
                .pairs,
        );
        assert_eq!(got, expected, "eps = {eps}");
    }
}

#[test]
fn join_over_persisted_trees_is_identical() {
    let sets = datasets();
    let (_, a) = &sets[0];
    let (_, b) = &sets[1];
    let ta = build(a);
    let tb = build(b);
    let expected = sorted(
        JoinSession::new(&ta, &tb)
            .run()
            .expect("ungoverned join cannot fail")
            .result
            .pairs,
    );

    let mut store = InMemoryPageStore::with_default_page_size();
    let ha = ta.save(&mut store).unwrap();
    let hb = tb.save(&mut store).unwrap();
    let la = RTree::<2>::load(&store, ha, *ta.config()).unwrap();
    let lb = RTree::<2>::load(&store, hb, *tb.config()).unwrap();
    la.check_invariants().unwrap();
    lb.check_invariants().unwrap();

    // f32 widening can only create node-level false positives, never
    // lose object pairs; object rects themselves round outward too, so
    // the pair set may only grow by boundary-touching pairs. For these
    // seeds it is exactly equal.
    let got = sorted(
        JoinSession::new(&la, &lb)
            .run()
            .expect("ungoverned join cannot fail")
            .result
            .pairs,
    );
    assert_eq!(got, expected);
}

#[test]
fn bulk_loaded_trees_join_identically_to_inserted_ones() {
    let sets = datasets();
    let (_, a) = &sets[0];
    let (_, b) = &sets[2];
    let inserted_a = build(a);
    let packed_a = RTree::bulk_load(
        RTreeConfig::with_capacity(12),
        a.clone(),
        BulkLoad::Str,
        1.0,
    );
    let tb = build(b);
    let from_inserted = sorted(
        JoinSession::new(&inserted_a, &tb)
            .run()
            .expect("ungoverned join cannot fail")
            .result
            .pairs,
    );
    let from_packed = sorted(
        JoinSession::new(&packed_a, &tb)
            .run()
            .expect("ungoverned join cannot fail")
            .result
            .pairs,
    );
    assert_eq!(from_inserted, from_packed);
}
