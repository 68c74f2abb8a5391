//! Tree-identity pin for the packing path.
//!
//! STR packing orders each level by `lo + hi`, then `lo`, then input
//! position, so a packed tree is a function of its input and fill alone.
//! On input where no two entries of one level share both `lo` and `hi` in
//! some dimension, the third key never decides, and the tree is the one
//! any exact `(lo + hi, lo)` sort produces. The constants below are FNV-1a
//! fingerprints over every node id, level, rectangle bit pattern and child
//! id of such trees, recorded on the commit before STR sorted keys instead
//! of entries. Every test first checks that its input is tie-free at
//! every level, so a pin can only move when the packer does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm::geom::{Point, Rect};
use sjcm::rtree::{BulkLoad, Child, ObjectId, RTree, RTreeConfig};
use std::collections::HashSet;

fn fingerprint<const N: usize>(tree: &RTree<N>) -> u64 {
    let mut bytes = Vec::new();
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    word(u64::from(tree.root_id().0));
    word(tree.height() as u64);
    word(tree.len() as u64);
    for (id, node) in tree.iter_nodes() {
        word(u64::from(id.0));
        word(u64::from(node.level));
        word(node.entries.len() as u64);
        for e in &node.entries {
            for k in 0..N {
                word(e.rect.lo_k(k).to_bits());
                word(e.rect.hi_k(k).to_bits());
            }
            match e.child {
                Child::Node(n) => word(u64::from(n.0) << 1),
                Child::Object(o) => word(u64::from(o.0) << 1 | 1),
            }
        }
    }
    sjcm::storage::fnv1a(&bytes)
}

/// Panics if two entries of one level share `lo` and `hi` in some
/// dimension: there the order would rest on the position key.
fn assert_tie_free<const N: usize>(tree: &RTree<N>) {
    for level in 0..tree.height() as u8 {
        for k in 0..N {
            let mut seen = HashSet::new();
            for (_, node) in tree.iter_nodes().filter(|(_, n)| n.level == level) {
                for e in &node.entries {
                    let interval = (e.rect.lo_k(k).to_bits(), e.rect.hi_k(k).to_bits());
                    assert!(
                        seen.insert(interval),
                        "level {level} repeats {interval:?} in dimension {k}"
                    );
                }
            }
        }
    }
}

fn pack<const N: usize>(rects: Vec<Rect<N>>, fill: f64) -> RTree<N> {
    let items = rects
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, ObjectId(i as u32)))
        .collect();
    let tree = RTree::bulk_load(RTreeConfig::paper(N), items, BulkLoad::Str, fill);
    tree.check_invariants().expect("packed tree is valid");
    assert_tie_free(&tree);
    tree
}

/// `n` rectangles, centres uniform in the unit cube, each side drawn from
/// `[0, 0.02)`. Only additions and multiplications on the seeded draws:
/// a library function such as `powf` may round differently in debug
/// and release builds, and the pins hold in both.
fn uniform<const N: usize>(n: usize, seed: u64) -> Vec<Rect<N>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let center = Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0)));
            let sides = std::array::from_fn(|_| rng.gen_range(0.0..0.02));
            Rect::centered(center, sides)
        })
        .collect()
}

fn assert_fingerprint<const N: usize>(tree: &RTree<N>, want: u64) {
    let got = fingerprint(tree);
    assert_eq!(
        got, want,
        "tree fingerprint {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn uniform_1d_20k() {
    let tree = pack(uniform::<1>(20_000, 1998), 0.67);
    assert_fingerprint(&tree, 0x5628_1527_a109_c4f4);
}

#[test]
fn uniform_2d_20k_at_three_fills() {
    for (fill, want) in [
        (0.67, 0x2ccf_1551_ba9e_4fde),
        (0.8, 0x81b6_b32d_a130_bdb6),
        (1.0, 0x57b9_ad61_c298_95b5),
    ] {
        let tree = pack(uniform::<2>(20_000, 1998), fill);
        assert_fingerprint(&tree, want);
    }
}

#[test]
fn uniform_2d_60k_three_levels_up() {
    let tree = pack(uniform::<2>(60_000, 7), 0.67);
    assert!(tree.height() >= 3, "height {}", tree.height());
    assert_fingerprint(&tree, 0x276c_d6a6_b2ed_d53f);
}

#[test]
fn uniform_3d_10k() {
    let tree = pack(uniform::<3>(10_000, 1998), 0.67);
    assert_fingerprint(&tree, 0xa56c_e1f0_ff1c_7ee9);
}

/// One full node; exactly `M²` objects, every page full on both levels;
/// one object past that boundary.
#[test]
fn page_boundaries_2d() {
    for (n, height, want) in [
        (50, 1, 0x6112_a2a4_d593_fc72),
        (2_500, 2, 0x05e8_be85_c451_89b8),
        (2_501, 3, 0x83b9_9ae9_f0e0_52dd),
    ] {
        let tree = pack(uniform::<2>(n, 11), 1.0);
        assert_eq!(tree.height(), height, "{n} objects");
        assert_fingerprint(&tree, want);
    }
}
