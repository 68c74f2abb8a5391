//! Oracle-based property tests: the R-tree against a flat-list oracle
//! under randomized operation sequences — the standard way to fuzz an
//! index structure.

use proptest::prelude::*;
use sjcm_geom::{Point, Rect};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};

#[derive(Debug, Clone)]
enum Op {
    Insert { cx: f64, cy: f64, w: f64, h: f64 },
    Query { cx: f64, cy: f64, w: f64, h: f64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.0f64..1.0, 0.0f64..1.0, 0.001f64..0.1, 0.001f64..0.1)
            .prop_map(|(cx, cy, w, h)| Op::Insert { cx, cy, w, h }),
        2 => (0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.5, 0.01f64..0.5)
            .prop_map(|(cx, cy, w, h)| Op::Query { cx, cy, w, h }),
    ]
}

fn run_ops(ops: Vec<Op>, config: RTreeConfig) -> Result<(), TestCaseError> {
    let mut tree = RTree::<2>::new(config);
    let mut oracle: Vec<(Rect<2>, ObjectId)> = Vec::new();
    let mut next_id = 0u32;
    for op in ops {
        match op {
            Op::Insert { cx, cy, w, h } => {
                let r = Rect::centered(Point::new([cx, cy]), [w, h]);
                tree.insert(r, ObjectId(next_id));
                oracle.push((r, ObjectId(next_id)));
                next_id += 1;
            }
            Op::Query { cx, cy, w, h } => {
                let q = Rect::centered(Point::new([cx, cy]), [w, h]);
                let mut got = tree.query_window(&q);
                got.sort();
                let mut want: Vec<ObjectId> = oracle
                    .iter()
                    .filter(|(r, _)| r.intersects(&q))
                    .map(|&(_, id)| id)
                    .collect();
                want.sort();
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(tree.len(), oracle.len());
    }
    tree.check_invariants()
        .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rstar_survives_random_operation_sequences(ops in prop::collection::vec(op(), 1..120)) {
        run_ops(ops, RTreeConfig::with_capacity(6))?;
    }

    #[test]
    fn bulk_loaded_tree_answers_like_oracle(
        n in 1usize..400,
        seed in 0u64..1000,
        fill in 0.4f64..1.0,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<(Rect<2>, ObjectId)> = (0..n)
            .map(|i| {
                let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
                (
                    Rect::centered(c, [rng.gen_range(0.001..0.05); 2]),
                    ObjectId(i as u32),
                )
            })
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::with_capacity(8), items.clone(), BulkLoad::Str, fill);
        tree.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(tree.len(), n);
        let q = Rect::new([0.25, 0.25], [0.75, 0.6]).unwrap();
        let mut got = tree.query_window(&q);
        got.sort();
        let mut want: Vec<ObjectId> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn persistence_fuzz(n in 1usize..200, seed in 0u64..1000) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sjcm_storage::InMemoryPageStore;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RTree::<2>::new(RTreeConfig::with_capacity(8));
        for i in 0..n {
            let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            tree.insert(Rect::centered(c, [0.01, 0.02]), ObjectId(i as u32));
        }
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
        loaded
            .check_invariants()
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(loaded.len(), n);
        // No object may be lost under any window.
        let q = Rect::centered(
            Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]),
            [0.4, 0.4],
        );
        let orig = tree.query_window(&q);
        let got = loaded.query_window(&q);
        for id in orig {
            prop_assert!(got.contains(&id));
        }
    }
}
