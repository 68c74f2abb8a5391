//! The loader and saver move tree files in runs of pages. Pinned here:
//! what they produce (the loaded tree, id for id, and the saved file,
//! byte for byte, are what the page-at-a-time loader and saver produced),
//! what they touch (a tree's own pages and nothing else) and how they
//! ask for it (runs from a store that has them, one `read` per page from
//! one that does not).

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm_geom::{Point, Rect};
use sjcm_rtree::{BulkLoad, Child, ObjectId, PersistedTree, RTree, RTreeConfig};
use sjcm_storage::{
    digest_term, encodable, encode_page, DiskNode, FilePageStore, InMemoryPageStore, NodePage,
    PageId, PageStore, StorageError,
};
use std::cell::{Cell, RefCell};
use std::path::PathBuf;

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

fn items(n: usize, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            (Rect::centered(c, [0.01, 0.02]), ObjectId(i as u32))
        })
        .collect()
}

/// Height 3, packed: page ids ascend level by level.
fn packed_tree() -> RTree<2> {
    RTree::bulk_load(RTreeConfig::paper(2), items(5000, 41), BulkLoad::Str, 0.8)
}

/// Height 5, built by insertion: levels are interleaved in id order,
/// and the root is not the last node.
fn grown_tree() -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::with_capacity(8));
    for (r, id) in items(3000, 42) {
        tree.insert(r, id);
    }
    tree
}

fn fingerprint(tree: &RTree<2>) -> u64 {
    let mut bytes = Vec::new();
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    word(u64::from(tree.root_id().0));
    word(tree.len() as u64);
    for (id, node) in tree.iter_nodes() {
        word(u64::from(id.0));
        word(u64::from(node.level));
        word(node.entries.len() as u64);
        for e in &node.entries {
            for k in 0..2 {
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

/// FNV-1a over the tree with no node id in it: the nodes breadth-first,
/// root first and each level's children in (parent, entry) order, every
/// child named by its breadth-first position. Two trees that differ
/// only in how their nodes are numbered print the same.
fn shape_print(tree: &RTree<2>) -> u64 {
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
            for k in 0..2 {
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

struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("sjcm_persist_runs_{name}_{}", std::process::id()));
        TempFile(p)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Fingerprints of the saved file and of the tree loaded back from it.
/// The packed tree's file with its trailers zeroed was recorded from the
/// per-page saver on the commit before run I/O replaced it; the sealed
/// file's print when pages gained their checksum trailer, which is all
/// that changed on disk. The `grown` tree's file prints were recorded
/// when it became insertion-built alone, on the commit before node ids
/// became dense. Then the loaded trees' id prints moved: the loader
/// numbers a tree's nodes from 0 instead of leaving slot 0 free. Their
/// id-free [`shape_print`]s, recorded on the commit before, hold: only
/// the ids moved.
#[test]
fn saved_files_and_loaded_trees_are_what_the_per_page_code_produced() {
    let cases = [
        (
            "packed",
            packed_tree(),
            0x8b60_ce5c_0012_f77a_u64,
            0xec6a_1cbb_4d1a_8a7b_u64,
            0x3f04_c1fa_f97c_9a8f_u64,
            0x1c6d_5c42_8563_a3e9_u64,
        ),
        (
            "grown",
            grown_tree(),
            0xd424_bf77_cacf_1cc1,
            0xc606_dea4_13fd_43f0,
            0xee0a_6a94_6988_a275,
            0x2891_9031_845b_900b,
        ),
    ];
    for (name, tree, unsealed_print, file_print, tree_print, tree_shape) in cases {
        let file = TempFile::new(name);
        let handle = {
            let mut store = FilePageStore::create(&file.0, 1024).unwrap();
            tree.save(&mut store).unwrap()
        };
        let mut bytes = std::fs::read(&file.0).unwrap();
        let saved = fnv1a(&bytes);
        assert_eq!(saved, file_print, "{name}: saved file {saved:#018x}");
        for page in bytes.chunks_exact_mut(1024) {
            page[1016..].fill(0);
        }
        let unsealed = fnv1a(&bytes);
        assert_eq!(
            unsealed, unsealed_print,
            "{name}: saved file without trailers {unsealed:#018x}"
        );
        let store = FilePageStore::open(&file.0, 1024).unwrap();
        let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
        loaded.check_invariants().unwrap();
        let got = fingerprint(&loaded);
        assert_eq!(got, tree_print, "{name}: loaded tree {got:#018x}");
        let got = shape_print(&loaded);
        assert_eq!(got, tree_shape, "{name}: loaded tree's shape {got:#018x}");
    }
}

/// Forwards everything — runs included — and keeps the tally.
#[derive(Default)]
struct Tally {
    reads: Cell<usize>,
    read_runs: Cell<usize>,
    writes: usize,
    write_runs: usize,
    /// Every page a `read` or `read_run` asked for.
    pages_read: RefCell<Vec<PageId>>,
    allocated: Vec<PageId>,
}

struct Counting<S> {
    inner: S,
    tally: Tally,
}

impl<S> Counting<S> {
    fn new(inner: S) -> Self {
        Counting {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<S: PageStore> PageStore for Counting<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        let id = self.inner.allocate()?;
        self.tally.allocated.push(id);
        Ok(id)
    }
    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.tally.writes += 1;
        self.inner.write(id, data)
    }
    fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        self.tally.write_runs += 1;
        self.inner.write_run(first, bytes)
    }
    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        self.tally.reads.set(self.tally.reads.get() + 1);
        self.tally.pages_read.borrow_mut().push(id);
        self.inner.read(id)
    }
    fn read_run(&self, first: PageId, count: usize, out: &mut Vec<u8>) -> Result<(), StorageError> {
        self.tally.read_runs.set(self.tally.read_runs.get() + 1);
        let ids = (first.0..first.0 + count as u32).map(PageId);
        self.tally.pages_read.borrow_mut().extend(ids);
        self.inner.read_run(first, count, out)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

/// A store that knows nothing about runs: only the required methods, so
/// `read_run` and `write_run` are the trait's provided bodies.
struct PerPage<S>(S);

impl<S: PageStore> PageStore for PerPage<S> {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.0.allocate()
    }
    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.0.write(id, data)
    }
    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        self.0.read(id)
    }
}

#[test]
fn a_file_store_is_asked_for_runs_and_never_for_a_page() {
    let tree = packed_tree();
    let file = TempFile::new("runs");
    let mut store = Counting::new(FilePageStore::create(&file.0, 1024).unwrap());
    let handle = tree.save(&mut store).unwrap();
    assert!(handle.pages >= 128, "{} pages", handle.pages);
    assert_eq!(store.tally.writes, 0);
    assert!(
        (1..=handle.pages / 16).contains(&store.tally.write_runs),
        "{} write runs for {} pages",
        store.tally.write_runs,
        handle.pages
    );
    let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
    assert_eq!(loaded.node_count(), handle.pages);
    assert_eq!(store.tally.reads.get(), 0);
    assert!(
        (1..=handle.pages / 16).contains(&store.tally.read_runs.get()),
        "{} read runs for {} pages",
        store.tally.read_runs.get(),
        handle.pages
    );
    assert_eq!(store.tally.pages_read.borrow().len(), handle.pages);
}

#[test]
fn a_store_without_runs_sees_one_read_and_one_write_per_page() {
    for tree in [packed_tree(), grown_tree()] {
        let inner = Counting::new(InMemoryPageStore::with_default_page_size());
        let mut store = PerPage(inner);
        let handle = tree.save(&mut store).unwrap();
        let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
        assert_eq!(loaded.node_count(), handle.pages);
        let tally = &store.0.tally;
        assert_eq!(tally.writes, handle.pages);
        assert_eq!(tally.reads.get(), handle.pages);
        assert_eq!((tally.write_runs, tally.read_runs.get()), (0, 0));
    }
}

/// Two trees in one store, their pages between filler pages that no
/// loader may decode.
#[test]
fn trees_sharing_a_store_load_from_their_own_pages_only() {
    fn filler(store: &mut Counting<InMemoryPageStore>, n: usize) {
        for _ in 0..n {
            let id = store.allocate().unwrap();
            store.write(id, b"not a node").unwrap();
        }
    }
    let mut store = Counting::new(InMemoryPageStore::with_default_page_size());
    let trees = [grown_tree(), packed_tree()];
    let mut saved: Vec<(PersistedTree, Vec<PageId>)> = Vec::new();
    for tree in &trees {
        filler(&mut store, 20);
        let before = store.tally.allocated.len();
        let handle = tree.save(&mut store).unwrap();
        saved.push((handle, store.tally.allocated[before..].to_vec()));
    }
    filler(&mut store, 20);
    for (tree, (handle, own)) in trees.iter().zip(&saved) {
        assert_eq!(own.len(), handle.pages);
        store.tally.pages_read.borrow_mut().clear();
        let loaded = RTree::<2>::load(&store, *handle, *tree.config()).unwrap();
        assert_eq!(loaded.node_count(), tree.node_count());
        assert_eq!(loaded.len(), tree.len());
        loaded.check_invariants().unwrap();
        let mut read = store.tally.pages_read.borrow().clone();
        read.sort();
        assert_eq!(&read, own, "pages read are the tree's own, each once");
    }
}

/// Rewrites one page of the save `handle` describes through `edit`,
/// sealed as a save seals it, and returns the handle with the digest
/// such a save would record: what a tool that means the edit would
/// write, so the loader's structural checks are what it meets.
fn edit_page(
    store: &mut InMemoryPageStore,
    handle: PersistedTree,
    page: PageId,
    edit: impl FnOnce(&mut DiskNode<2>),
) -> PersistedTree {
    let old = store.read(page).unwrap();
    let (_, old_sum) = NodePage::<2>::parse_sealed(&old, page).unwrap();
    let mut node = DiskNode::<2>::decode(&old).unwrap();
    edit(&mut node);
    let mut new = vec![0; 1024];
    let new_sum = encode_page(node.level, node.entries.into_iter(), &mut new).unwrap();
    store.write(page, &new).unwrap();
    PersistedTree {
        digest: handle
            .digest
            .wrapping_sub(digest_term(page, old_sum))
            .wrapping_add(digest_term(page, new_sum)),
        ..handle
    }
}

fn malformed(store: &InMemoryPageStore, handle: PersistedTree, needle: &str) {
    match RTree::<2>::load(store, handle, RTreeConfig::paper(2)) {
        Err(StorageError::MalformedNode(msg)) => {
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}")
        }
        other => panic!("expected a malformed-node error, got {other:?}"),
    }
}

#[test]
fn structural_damage_is_a_typed_error() {
    let tree = packed_tree();
    let saved = || {
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        (store, handle)
    };
    let root_children = |store: &InMemoryPageStore, handle: PersistedTree| {
        DiskNode::<2>::decode(&store.read(handle.root).unwrap())
            .unwrap()
            .entries
    };

    // Two parents: the root names one child twice.
    let (mut store, handle) = saved();
    let handle = edit_page(&mut store, handle, handle.root, |n| {
        n.entries[1].child = n.entries[0].child
    });
    malformed(&store, handle, "two parents");

    // A cycle: a child of the root names the root.
    let (mut store, handle) = saved();
    let child = PageId(root_children(&store, handle)[0].child);
    let handle = edit_page(&mut store, handle, child, |n| {
        n.entries[0].child = handle.root.0
    });
    malformed(&store, handle, "at level 2 under parent level 1");

    // A level mismatch: the root names a leaf.
    let (mut store, handle) = saved();
    let leaf = (0..handle.pages as u32)
        .map(PageId)
        .find(|&p| {
            DiskNode::<2>::decode(&store.read(p).unwrap())
                .unwrap()
                .level
                == 0
        })
        .unwrap();
    let handle = edit_page(&mut store, handle, handle.root, |n| {
        n.entries[0].child = leaf.0
    });
    malformed(&store, handle, "at level 0 under parent level 2");

    // A child id with a high bit flipped is a page the store does not
    // have — and nothing is sized by it.
    let (mut store, handle) = saved();
    let flipped = root_children(&store, handle)[0].child | 1 << 31;
    let handle = edit_page(&mut store, handle, handle.root, |n| {
        n.entries[0].child = flipped
    });
    assert_eq!(
        RTree::<2>::load(&store, handle, RTreeConfig::paper(2)).unwrap_err(),
        StorageError::UnknownPage(PageId(flipped))
    );
}

/// A parent entry must contain its child: the join restricts a node's
/// partners by the rectangle it was reached through, so a shrunk one
/// would lose pairs without a sound. A looser one is legal.
#[test]
fn a_parent_entry_must_contain_its_child() {
    let tree = packed_tree();
    let saved = || {
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        (store, handle)
    };
    let (mut store, handle) = saved();
    let child = DiskNode::<2>::decode(&store.read(handle.root).unwrap())
        .unwrap()
        .child_page(0);
    let handle = edit_page(&mut store, handle, handle.root, |n| {
        let r = n.entries[0].rect;
        let half = [0, 1].map(|k| (r.lo_k(k) + r.hi_k(k)) / 2.0);
        n.entries[0].rect = Rect::new(r.lo().coords(), half).unwrap();
    });
    malformed(
        &store,
        handle,
        &format!("page {child} has an entry outside its parent entry's rectangle"),
    );

    let (mut store, handle) = saved();
    let handle = edit_page(&mut store, handle, handle.root, |n| {
        n.entries[0].rect = n.entries[0].rect.minkowski(0.05)
    });
    let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
    assert_eq!(loaded.len(), tree.len());
    let everything = Rect::new([-1.0, -1.0], [2.0, 2.0]).unwrap();
    let mut all = loaded.query_window(&everything);
    all.sort();
    assert_eq!(
        all,
        (0..tree.len() as u32).map(ObjectId).collect::<Vec<_>>()
    );
}

/// An edit written without its trailer is a corrupt page. Resealed, it
/// is a page of another save than the handle's, until the handle takes
/// the digest that save would record.
#[test]
fn an_edited_page_loads_only_resealed_and_under_its_own_digest() {
    let tree = packed_tree();
    let mut store = InMemoryPageStore::with_default_page_size();
    let handle = tree.save(&mut store).unwrap();
    let load = |store: &InMemoryPageStore, handle| RTree::<2>::load(store, handle, *tree.config());
    let widen = |n: &mut DiskNode<2>| n.entries[0].rect = n.entries[0].rect.minkowski(0.05);
    let original = store.read(handle.root).unwrap();
    let mut node = DiskNode::<2>::decode(&original).unwrap();
    widen(&mut node);
    store
        .write(handle.root, &node.encode(1024).unwrap())
        .unwrap();
    assert_eq!(
        load(&store, handle).unwrap_err(),
        StorageError::Corrupt(handle.root)
    );
    store.write(handle.root, &original).unwrap();
    let resealed = edit_page(&mut store, handle, handle.root, widen);
    assert_ne!(resealed.digest, handle.digest);
    assert_eq!(
        load(&store, handle).unwrap_err(),
        StorageError::DigestMismatch {
            handle: handle.digest,
            pages: resealed.digest
        }
    );
    assert_eq!(load(&store, resealed).unwrap().len(), tree.len());
}

#[test]
fn the_handle_is_checked_against_what_is_loaded() {
    let tree = packed_tree();
    let mut store = InMemoryPageStore::with_default_page_size();
    let handle = tree.save(&mut store).unwrap();
    for (wrong, needle) in [
        (
            PersistedTree {
                pages: handle.pages - 1,
                ..handle
            },
            "more than the handle's",
        ),
        (
            PersistedTree {
                pages: handle.pages + 1,
                ..handle
            },
            "the handle says",
        ),
        (
            PersistedTree {
                len: handle.len + 1,
                ..handle
            },
            "the handle says",
        ),
    ] {
        malformed(&store, wrong, needle);
    }
    // A non-root page taken for the root: fewer nodes than the handle
    // counts.
    let child = DiskNode::<2>::decode(&store.read(handle.root).unwrap())
        .unwrap()
        .child_page(0);
    let wrong = PersistedTree {
        root: child,
        ..handle
    };
    malformed(&store, wrong, "the handle says");
}

/// A rectangle with no page encoding — one whose outward `f32` rounding
/// overflows, an infinite one, a NaN one — is refused by the save with a
/// typed error, on the in-memory and on the file store, where it used to
/// be written and then refused by the loader. The refusal comes before
/// any page is allocated: the memory store has no page, and the file
/// stays empty.
#[test]
fn a_rectangle_the_loader_would_refuse_is_never_saved() {
    let unencodable = [
        Rect::new([0.0, 0.0], [1e39, 1.0]).unwrap(),
        Rect::new([0.0, -1e39], [1.0, 0.0]).unwrap(),
        Rect::centered(Point::new([f64::INFINITY, 0.5]), [0.1, 0.1]),
        Rect::centered(Point::new([0.5, f64::NAN]), [0.1, 0.1]),
    ];
    for rect in unencodable {
        let mut objects = items(300, 31);
        objects.insert(150, (rect, ObjectId(300)));
        let tree = RTree::bulk_load(RTreeConfig::paper(2), objects, BulkLoad::Str, 1.0);
        let refused = |r: Result<PersistedTree, StorageError>| {
            matches!(r, Err(StorageError::UnencodableRect { .. }))
        };
        let mut memory = InMemoryPageStore::with_default_page_size();
        assert!(refused(tree.save(&mut memory)), "{rect:?} saved to memory");
        assert_eq!(
            memory.read(PageId(0)).unwrap_err(),
            StorageError::UnknownPage(PageId(0)),
            "{rect:?}: a page allocated"
        );
        let file = TempFile::new("unencodable");
        let mut store = FilePageStore::create(&file.0, 1024).unwrap();
        assert!(refused(tree.save(&mut store)), "{rect:?} saved to a file");
        drop(store);
        assert_eq!(std::fs::metadata(&file.0).unwrap().len(), 0, "{rect:?}");
    }
}

/// The memory store as a second save sees a file store created over the
/// file of the first: page ids from 0 again, over the pages already
/// there, so the second save overwrites the first in place.
struct Rewound<'a> {
    inner: &'a mut InMemoryPageStore,
    next: u32,
    held: u32,
}

impl PageStore for Rewound<'_> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        if self.next == self.held {
            assert_eq!(self.inner.allocate()?, PageId(self.held));
            self.held += 1;
        }
        self.next += 1;
        Ok(PageId(self.next - 1))
    }
    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.inner.write(id, data)
    }
    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        self.inner.read(id)
    }
}

/// A save is all or nothing: one whose tree holds an entry the page
/// format cannot encode is refused before it writes a page. Saved over
/// an earlier save in place, on either store, it leaves that save
/// loadable under its own digest. The refused tree spans several runs
/// and its bad entry is in the last one, so a save that encoded run by
/// run would have overwritten the earlier save's pages first.
#[test]
fn a_refused_save_leaves_the_save_it_would_overwrite_loadable() {
    let good = packed_tree();
    let mut objects = items(6000, 43);
    // `total_cmp` sorts a NaN x last, so STR puts it in the last slab,
    // whose leaves are the last before the upper levels.
    objects.push((
        Rect::centered(Point::new([f64::NAN, 0.5]), [0.01, 0.01]),
        ObjectId(6000),
    ));
    let bad = RTree::bulk_load(RTreeConfig::paper(2), objects, BulkLoad::Str, 0.8);
    let runs = |tree: &RTree<2>| tree.node_count().div_ceil(64);
    let bad_node = bad
        .iter_nodes()
        .position(|(_, n)| n.entries.iter().any(|e| !encodable(&e.rect)))
        .unwrap();
    assert!(
        runs(&bad) >= 3 && bad_node / 64 == runs(&bad) - 1,
        "node {bad_node}"
    );
    assert!(runs(&good) >= 2);
    let refused = |r: Result<PersistedTree, StorageError>| {
        matches!(r, Err(StorageError::UnencodableRect { .. }))
    };
    let config = RTreeConfig::paper(2);

    let mut memory = InMemoryPageStore::with_default_page_size();
    let handle = good.save(&mut memory).unwrap();
    let want = shape_print(&RTree::load(&memory, handle, config).unwrap());
    let mut over = Rewound {
        inner: &mut memory,
        next: 0,
        held: handle.pages as u32,
    };
    assert!(refused(bad.save(&mut over)));
    let loaded = RTree::load(&memory, handle, config).expect("memory: the first save loads");
    assert_eq!(shape_print(&loaded), want);

    let file = TempFile::new("refused_over");
    let mut store = FilePageStore::create(&file.0, 1024).unwrap();
    assert_eq!(good.save(&mut store).unwrap(), handle);
    drop(store);
    let mut store = FilePageStore::create(&file.0, 1024).unwrap();
    assert!(refused(bad.save(&mut store)));
    drop(store);
    let store = FilePageStore::open(&file.0, 1024).unwrap();
    let loaded = RTree::load(&store, handle, config).expect("file: the first save loads");
    assert_eq!(shape_print(&loaded), want);
}
