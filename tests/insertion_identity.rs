//! Tree-identity pin for the insertion path.
//!
//! `RTree::insert` is deterministic, so an insertion-built tree is a
//! function of its input sequence alone. The constants below are FNV-1a
//! fingerprints over every node id, level, rectangle bit pattern and
//! child id, recorded on the commit *before* ChooseSubtree, the R\* split
//! and forced reinsertion were rewritten to prune their candidate sets
//! (DESIGN.md row 21) — the saved, loaded and grown tree's on the commit
//! before insertion took parent rectangles by union, and re-recorded
//! when the loader stopped leaving slot 0 free; its id-free shape print,
//! recorded on the commit before that, holds. Any change to the
//! write path that moves one bit of one rectangle, reorders one node's
//! entries or allocates node ids in a different order fails here — which
//! is the point: every figure under `results/` is measured on trees built
//! this way.

use sjcm::datagen::uniform::{generate, UniformConfig};
use sjcm::geom::Rect;
use sjcm::rtree::{Child, ObjectId, RTree, RTreeConfig};

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

fn assert_fingerprint<const N: usize>(tree: &RTree<N>, want: u64) {
    let got = fingerprint(tree);
    assert_eq!(
        got, want,
        "tree fingerprint {got:#018x}, pinned {want:#018x}"
    );
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

fn build<const N: usize>(config: RTreeConfig, rects: Vec<Rect<N>>) -> RTree<N> {
    let mut tree = RTree::new(config);
    for (r, id) in sjcm::datagen::with_ids(rects) {
        tree.insert(r, ObjectId(id));
    }
    tree.check_invariants()
        .expect("insertion-built tree is valid");
    tree
}

#[test]
fn uniform_2d_20k() {
    let tree = build(
        RTreeConfig::paper(2),
        generate::<2>(UniformConfig::new(20_000, 0.5, 1998)),
    );
    assert_fingerprint(&tree, 0x3186_3dca_df07_a605);
}

#[test]
fn uniform_1d_20k() {
    let tree = build(
        RTreeConfig::paper(1),
        generate::<1>(UniformConfig::new(20_000, 0.5, 1998)),
    );
    assert_fingerprint(&tree, 0xa058_6304_1d2b_cef8);
}

#[test]
fn uniform_3d_10k() {
    let tree = build(
        RTreeConfig::paper(3),
        generate::<3>(UniformConfig::new(10_000, 0.5, 1998)),
    );
    assert_fingerprint(&tree, 0xff18_27be_d346_2a05);
}

#[test]
fn tiger_roads_20k() {
    let tree = build(
        RTreeConfig::paper(2),
        sjcm::datagen::tiger::generate(sjcm::datagen::tiger::TigerConfig::roads(20_000, 1998)),
    );
    assert_fingerprint(&tree, 0xcc40_4fc3_16b6_57d1);
}

/// A directory under the system temp dir, removed with everything in it
/// when dropped.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sjcm_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Insertion into a tree that went through a file: the roads tree above,
/// saved with `FilePageStore`, loaded back, then grown by 5K more roads.
/// Every file the repo writes has parent rectangles equal to their
/// children's MBRs (outward `f32` rounding is monotone), so the loaded
/// tree's parents are tight and insertion may union into them.
#[test]
fn tiger_roads_20k_saved_loaded_then_5k_inserted() {
    use sjcm::datagen::tiger::{generate, TigerConfig};
    use sjcm::storage::FilePageStore;
    let config = RTreeConfig::paper(2);
    let tree = build(config, generate(TigerConfig::roads(20_000, 1998)));
    let dir = TempDir::new("insert_after_load");
    let path = dir.0.join("roads.pages");
    let handle = {
        let mut store = FilePageStore::create(&path, 1024).unwrap();
        tree.save(&mut store).unwrap()
    };
    let store = FilePageStore::open(&path, 1024).unwrap();
    let mut tree = RTree::<2>::load(&store, handle, config).unwrap();
    for (r, id) in sjcm::datagen::with_ids(generate(TigerConfig::roads(5_000, 424_242))) {
        tree.insert(r, ObjectId(20_000 + id));
    }
    tree.check_invariants()
        .expect("loaded-then-grown tree is valid");
    assert_eq!(tree.len(), 25_000);
    assert_prints(&tree, 0x1f97_bebc_a497_47e3, 0x0e0f_9a6f_629b_bf0c);
}
