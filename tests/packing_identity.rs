//! Tree-identity pin for the packing path.
//!
//! STR packing orders each level by `lo + hi`, then `lo`, then input
//! position, so a packed tree is a function of its input and fill alone.
//! On input where no two entries of one level share both `lo` and `hi` in
//! some dimension, the third key never decides, and the tree is the one
//! any exact `(lo + hi, lo)` sort produces. Each tree has two pins, both
//! FNV-1a prints of every level, rectangle bit pattern and child. The id
//! print also hashes every node id and names children by id; the shape
//! print names them by breadth-first position and hashes no id. The
//! shape prints were recorded on the commit before node ids became
//! dense, and equal the trees of the commit before STR sorted keys
//! instead of entries. The id prints were re-recorded when ids became
//! dense: the packer no longer leaves slot 0 free, so every id moved
//! down by one, and nothing else did. Every test first checks that its
//! input is tie-free at every level, so a pin can only move when the
//! packer (or, for the id print, the numbering) does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm::geom::{Point, Rect};
use sjcm::rtree::{BulkLoad, Child, ObjectId, RTree, RTreeConfig};
use std::collections::HashSet;

/// FNV-1a, the hash every pinned print in this file was recorded with.
/// Its constants are the pins' own: changing one moves every pin.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

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
    fnv1a(&bytes)
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

/// FNV-1a over the tree with no node id in it: the nodes breadth-first,
/// root first and each level's children in (parent, entry) order, every
/// child named by its breadth-first position. Two trees that differ
/// only in how their nodes are numbered print the same.
fn shape_print<const N: usize>(tree: &RTree<N>) -> u64 {
    let mut bytes = Vec::new();
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    word(tree.height() as u64);
    word(tree.len() as u64);
    let mut order = vec![tree.root_id()];
    let mut at = 0;
    while let Some(&id) = order.get(at) {
        let node = tree.node(id);
        word(u64::from(node.level));
        word(node.entries.len() as u64);
        for e in &node.entries {
            for k in 0..N {
                word(e.rect.lo_k(k).to_bits());
                word(e.rect.hi_k(k).to_bits());
            }
            match e.child {
                Child::Node(n) => {
                    word((order.len() as u64) << 1);
                    order.push(n);
                }
                Child::Object(o) => word(u64::from(o.0) << 1 | 1),
            }
        }
        at += 1;
    }
    fnv1a(&bytes)
}

/// Checks both prints: `ids`, the [`fingerprint`], and `shape`, the
/// id-free [`shape_print`].
fn assert_prints<const N: usize>(tree: &RTree<N>, ids: u64, shape: u64) {
    let got = fingerprint(tree);
    assert_eq!(got, ids, "tree fingerprint {got:#018x}, pinned {ids:#018x}");
    let got = shape_print(tree);
    assert_eq!(got, shape, "shape print {got:#018x}, pinned {shape:#018x}");
}

#[test]
fn uniform_1d_20k() {
    let tree = pack(uniform::<1>(20_000, 1998), 0.67);
    assert_prints(&tree, 0x1a4f_df93_5db6_d2b2, 0x3362_0e99_b179_c8e9);
}

#[test]
fn uniform_2d_20k_at_three_fills() {
    for (fill, ids, shape) in [
        (0.67, 0xe2eb_6a72_e96f_1f96, 0x72b6_742a_e88d_bb5f),
        (0.8, 0x701d_597c_f4e9_90cb, 0xd73d_6bc5_1d86_5917),
        (1.0, 0x4639_7c0c_a71f_0a53, 0x2575_4102_3900_496a),
    ] {
        let tree = pack(uniform::<2>(20_000, 1998), fill);
        assert_prints(&tree, ids, shape);
    }
}

#[test]
fn uniform_2d_60k_three_levels_up() {
    let tree = pack(uniform::<2>(60_000, 7), 0.67);
    assert!(tree.height() >= 3, "height {}", tree.height());
    assert_prints(&tree, 0x5af0_f907_d452_a103, 0x679d_38b7_5d06_724e);
}

#[test]
fn uniform_3d_10k() {
    let tree = pack(uniform::<3>(10_000, 1998), 0.67);
    assert_prints(&tree, 0x5f72_b7fc_0249_f2be, 0x0e39_ba21_17ad_d305);
}

/// One full node; exactly `M²` objects, every page full on both levels;
/// one object past that boundary.
#[test]
fn page_boundaries_2d() {
    for (n, height, ids, shape) in [
        (50, 1, 0x5253_7bee_5c66_e6d2, 0xa39c_7d57_d4cb_5632),
        (2_500, 2, 0x4afa_e989_1d31_efca, 0x379b_4d61_98f9_952f),
        (2_501, 3, 0xd027_6eda_a835_68fe, 0xc8e2_954d_20b8_e888),
    ] {
        let tree = pack(uniform::<2>(n, 11), 1.0);
        assert_eq!(tree.height(), height, "{n} objects");
        assert_prints(&tree, ids, shape);
    }
}
