//! Baseline join algorithms.
//!
//! * [`nested_loop_join`] — brute force over the object lists; the
//!   correctness oracle for every other algorithm and the "no index"
//!   baseline of the benchmarks.
//! * [`index_nested_loop_join`] — one window query per outer object, the
//!   way Aref & Samet \[AS94\] modeled a join as a set of range queries.
//!   Counting its node accesses shows why the synchronized traversal
//!   wins: the inner tree's upper levels are re-read once per outer
//!   object.

use sjcm_geom::Rect;
use sjcm_rtree::{ObjectId, RTree};

/// Brute-force nested loop over two object lists. O(|a|·|b|); use for
/// correctness checks and small baselines only.
pub fn nested_loop_join<const N: usize>(
    a: &[(Rect<N>, ObjectId)],
    b: &[(Rect<N>, ObjectId)],
) -> Vec<(ObjectId, ObjectId)> {
    let mut out = Vec::new();
    for &(r1, id1) in a {
        for &(r2, id2) in b {
            if r1.intersects(&r2) {
                out.push((id1, id2));
            }
        }
    }
    out
}

/// Result of an index-nested-loop join.
#[derive(Debug, Clone)]
pub struct IndexNestedLoopResult {
    /// Qualifying `(indexed object, probe object)` pairs.
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Total node accesses over all probe queries, **including** the root
    /// access of each probe (each probe is an independent range query;
    /// its root read hits the buffer in practice, but NA counts logical
    /// accesses).
    pub node_accesses: u64,
}

/// Joins an indexed data set against a probe list by running one window
/// query per probe object.
pub fn index_nested_loop_join<const N: usize>(
    indexed: &RTree<N>,
    probes: &[(Rect<N>, ObjectId)],
) -> IndexNestedLoopResult {
    let mut pairs = Vec::new();
    let mut node_accesses = 0u64;
    for &(rect, probe_id) in probes {
        let (hits, visits) = indexed.query_window_counting(&rect);
        node_accesses += visits.iter().sum::<u64>();
        for hit in hits {
            pairs.push((hit, probe_id));
        }
    }
    IndexNestedLoopResult {
        pairs,
        node_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::JoinResultSet;
    use crate::session::JoinSession;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_rtree::RTreeConfig;

    fn random_items(n: usize, side: f64, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx: f64 = rng.gen_range(0.0..1.0);
                let cy: f64 = rng.gen_range(0.0..1.0);
                (
                    Rect::centered(sjcm_geom::Point::new([cx, cy]), [side, side]),
                    ObjectId(i as u32),
                )
            })
            .collect()
    }

    /// The default sequential SJ through the session.
    fn spatial_join(r1: &RTree<2>, r2: &RTree<2>) -> JoinResultSet {
        JoinSession::new(r1, r2)
            .run()
            .expect("ungoverned join cannot fail")
            .result
    }

    #[test]
    fn all_three_algorithms_agree() {
        let a = random_items(400, 0.02, 1);
        let b = random_items(300, 0.02, 2);
        let mut ta = RTree::<2>::new(RTreeConfig::with_capacity(8));
        for &(r, id) in &a {
            ta.insert(r, id);
        }
        let mut tb = RTree::<2>::new(RTreeConfig::with_capacity(8));
        for &(r, id) in &b {
            tb.insert(r, id);
        }
        let mut brute = nested_loop_join(&a, &b);
        let mut inl = index_nested_loop_join(&ta, &b).pairs;
        let mut sj = spatial_join(&ta, &tb).pairs;
        brute.sort();
        inl.sort();
        sj.sort();
        assert_eq!(brute, inl);
        assert_eq!(brute, sj);
    }

    #[test]
    fn synchronized_traversal_beats_index_nested_loop_on_io() {
        let a = random_items(3_000, 0.01, 3);
        let b = random_items(3_000, 0.01, 4);
        let mut ta = RTree::<2>::new(RTreeConfig::with_capacity(16));
        for &(r, id) in &a {
            ta.insert(r, id);
        }
        let mut tb = RTree::<2>::new(RTreeConfig::with_capacity(16));
        for &(r, id) in &b {
            tb.insert(r, id);
        }
        let inl = index_nested_loop_join(&ta, &b);
        let sj = spatial_join(&ta, &tb);
        assert!(
            sj.na_total() < inl.node_accesses,
            "SJ {} vs INL {}",
            sj.na_total(),
            inl.node_accesses
        );
    }

    #[test]
    fn empty_inputs() {
        let a = random_items(10, 0.05, 5);
        assert!(nested_loop_join::<2>(&a, &[]).is_empty());
        assert!(nested_loop_join::<2>(&[], &a).is_empty());
        let tree = RTree::<2>::new(RTreeConfig::with_capacity(8));
        let r = index_nested_loop_join(&tree, &a);
        assert!(r.pairs.is_empty());
        // Each probe still reads the (empty) root once.
        assert_eq!(r.node_accesses, a.len() as u64);
    }
}
