//! Fault-tolerance coverage for paged persistence: corruption must
//! surface as [`StorageError::Corrupt`] — never as silently wrong MBRs —
//! no matter which buffer manager fronts the accesses, and torn or
//! missing files must come back as typed errors, not panics. A page's
//! checksum trailer is the one check that refuses a damaged page, on the
//! in-memory store and on a file alike.

mod fault;

use fault::{FaultCounters, FaultPlan, FaultyPageStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm_geom::{Point, Rect};
use sjcm_rtree::{BulkLoad, ObjectId, PersistedTree, RTree, RTreeConfig};
use sjcm_storage::{
    BufferManager, DiskNode, FilePageStore, InMemoryPageStore, LruBuffer, NoBuffer, PageId,
    PageStore, PathBuffer, StorageError,
};
use std::path::PathBuf;

fn sample_tree(n: usize, seed: u64) -> RTree<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<(Rect<2>, ObjectId)> = (0..n)
        .map(|i| {
            let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            (Rect::centered(c, [0.01, 0.02]), ObjectId(i as u32))
        })
        .collect();
    RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.8)
}

/// Finds a non-root interior page by decoding every saved page.
fn interior_page(store: &InMemoryPageStore, handle: PersistedTree) -> PageId {
    (0..handle.pages as u32)
        .map(PageId)
        .find(|&p| {
            p != handle.root
                && DiskNode::<2>::decode(&store.read(p).unwrap())
                    .map(|n| n.level >= 1)
                    .unwrap_or(false)
        })
        .expect("tree of height ≥ 3 has a non-root interior page")
}

#[test]
fn corrupt_interior_page_surfaces_under_every_buffer_manager() {
    let tree = sample_tree(5000, 11);
    assert!(tree.height() >= 3, "need a non-root interior level");
    let mut store = InMemoryPageStore::with_default_page_size();
    let handle = tree.save(&mut store).unwrap();
    let victim = interior_page(&store, handle);
    // The flipped byte is in the victim's trailer: the store hands it
    // back as written, and the loader's checksum refuses it.
    store.corrupt_for_test(victim).unwrap();

    let buffers: Vec<(&str, Box<dyn BufferManager>)> = vec![
        ("none", Box::new(NoBuffer::new())),
        ("path", Box::new(PathBuffer::new())),
        ("lru", Box::new(LruBuffer::new(8))),
    ];
    for (name, mut buf) in buffers {
        // The buffer layer only adjudicates hit vs miss — it caches no
        // bytes, so it cannot mask corruption. Touch the victim through
        // the manager, then prove the reload still detects it.
        for level in [2u8, 2, 1] {
            buf.access(victim, level);
        }
        let err = RTree::<2>::load(&store, handle, *tree.config()).unwrap_err();
        assert_eq!(
            err,
            StorageError::Corrupt(victim),
            "buffer manager {name} must not mask corruption"
        );
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sjcm_faulttol_{name}_{}", std::process::id()));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn truncated_file_reopens_as_typed_error_not_panic() {
    let path = temp_path("truncated");
    let _guard = Cleanup(path.clone());
    let tree = sample_tree(1000, 19);
    let handle = {
        let mut store = FilePageStore::create(&path, 1024).unwrap();
        // `save` syncs before returning, so the bytes are on disk.
        tree.save(&mut store).unwrap()
    };

    // Torn tail (truncation mid-page): the open itself reports the torn
    // page as corrupt.
    let full_len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full_len - 512).unwrap();
    drop(f);
    assert!(matches!(
        FilePageStore::open(&path, 1024),
        Err(StorageError::Corrupt(_))
    ));

    // Truncation at a page boundary: the open succeeds but the missing
    // pages are typed errors on access, and the load fails cleanly.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(1024).unwrap();
    drop(f);
    let store = FilePageStore::open(&path, 1024).unwrap();
    assert!(RTree::<2>::load(&store, handle, *tree.config()).is_err());

    // A missing file is an I/O error, not a malformed node.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        FilePageStore::open(&path, 1024),
        Err(StorageError::Io(_))
    ));
}

#[test]
fn file_backed_save_load_roundtrip_syncs() {
    let path = temp_path("roundtrip");
    let _guard = Cleanup(path.clone());
    let tree = sample_tree(1500, 23);
    let handle = {
        let mut store = FilePageStore::create(&path, 1024).unwrap();
        tree.save(&mut store).unwrap()
    };
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        handle.pages as u64 * 1024
    );
    let store = FilePageStore::open(&path, 1024).unwrap();
    let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
    assert_eq!(loaded.len(), tree.len());
    loaded.check_invariants().unwrap();
}

/// What a reload came to: the objects loaded, or the error; and what
/// the fault layer injected on the way.
type Verdict = (Result<usize, StorageError>, FaultCounters);

/// Reloads `handle` from `store` through a [`FaultyPageStore`] under
/// `plan` — page by page, through the provided `read_run`.
fn faulty_reload<S: PageStore>(store: S, handle: PersistedTree, plan: FaultPlan) -> Verdict {
    let faulty = FaultyPageStore::new(store, plan);
    let loaded = RTree::<2>::load(&faulty, handle, RTreeConfig::paper(2)).map(|t| t.len());
    (loaded, faulty.counters())
}

/// The fault matrix, run once over the in-memory simulator and once over
/// a real file in a temporary directory: each plan must reach the same
/// verdict, tallies included, on both — and the verdict the in-memory
/// runs are held to.
#[test]
fn the_fault_matrix_reaches_the_same_verdicts_on_a_real_disk() {
    let tree = sample_tree(3000, 29);
    let path = temp_path("matrix");
    let _guard = Cleanup(path.clone());
    let memory = || {
        let mut store = InMemoryPageStore::with_default_page_size();
        (tree.save(&mut store).unwrap(), store)
    };
    let (handle, _) = memory();
    let file_handle = tree
        .save(&mut FilePageStore::create(&path, 1024).unwrap())
        .unwrap();
    assert_eq!(file_handle, handle);

    let none = FaultPlan::none(31);
    type Check = Box<dyn Fn(&Verdict) -> bool>;
    let matrix: Vec<(&str, FaultPlan, Check)> = vec![
        ("clean", none, Box::new(|v| v.0 == Ok(3000))),
        (
            "lost pages",
            none.with_loss(0.05),
            Box::new(|v| matches!(&v.0, Err(StorageError::Io(m)) if m.contains("loss"))),
        ),
        // A flip lands anywhere in the page; the first one in a header,
        // an entry or a trailer is the page trailer's catch. The faulty
        // store keeps no checksum of its own: the flipped bytes reach
        // the loader, on either store.
        (
            "bit flips",
            none.with_flips(1.0),
            Box::new(|v| matches!(v.0, Err(StorageError::Corrupt(_))) && v.1.injected_flip > 0),
        ),
    ];
    for (name, plan, check) in matrix {
        let in_memory = faulty_reload(memory().1, handle, plan);
        let on_disk = faulty_reload(FilePageStore::open(&path, 1024).unwrap(), handle, plan);
        assert!(check(&in_memory), "{name}: {in_memory:?}");
        assert_eq!(on_disk, in_memory, "{name}");
    }

    // Allocation failures break a save to either store alike.
    let plan = none.with_alloc_failures(0.05);
    let mut faulty = FaultyPageStore::new(InMemoryPageStore::with_default_page_size(), plan);
    let in_memory = tree.save(&mut faulty).unwrap_err();
    let mut faulty = FaultyPageStore::new(FilePageStore::create(&path, 1024).unwrap(), plan);
    assert_eq!(tree.save(&mut faulty).unwrap_err(), in_memory);
    assert!(matches!(in_memory, StorageError::Io(_)));
}

/// Passes the first `runs` write runs through and fails every later one:
/// a save cut short, as by a crash, `runs` runs into overwriting a file.
struct CutAfter<S> {
    inner: S,
    runs: usize,
}

impl<S: PageStore> PageStore for CutAfter<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.inner.allocate()
    }
    fn write(&mut self, _: PageId, _: &[u8]) -> Result<(), StorageError> {
        unreachable!("a save writes runs")
    }
    fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        if self.runs == 0 {
            return Err(StorageError::Io("the save stops here".into()));
        }
        self.runs -= 1;
        self.inner.write_run(first, bytes)
    }
    fn read(&self, id: PageId) -> Result<bytes::Bytes, StorageError> {
        self.inner.read(id)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

/// `tree`'s rectangles packed again with every object id moved by
/// `shift`: the same nodes on the same pages, leaves that differ only in
/// their ids, upper pages byte for byte alike.
fn relabelled(tree: &RTree<2>, shift: u32) -> RTree<2> {
    let items = tree
        .objects()
        .into_iter()
        .map(|(r, ObjectId(id))| (r, ObjectId(id + shift)))
        .collect();
    RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.8)
}

/// Tree A saved, then tree B saved over it in place and cut after `k`
/// write runs, for every `k`. A handle loads exactly when the file holds
/// its save's pages byte for byte: A's at `k = 0` (nothing of B's
/// landed), B's once every run whose bytes differ from A's has. B larger
/// than A, smaller, and A relabelled — whose mixes pass every structural
/// check, so that only the digest refuses them, and whose upper pages
/// are A's own, so that B is whole one run early.
#[test]
fn a_save_cut_short_in_place_never_loads_as_either_tree() {
    let path = temp_path("torn_save");
    let _guard = Cleanup(path.clone());
    let config = RTreeConfig::paper(2);
    let save = |tree: &RTree<2>| {
        let handle = tree
            .save(&mut FilePageStore::create(&path, 1024).unwrap())
            .unwrap();
        (handle, std::fs::read(&path).unwrap())
    };
    let same = relabelled(&sample_tree(5000, 41), 0);
    for (a, b) in [
        (sample_tree(4000, 37), sample_tree(7000, 38)),
        (sample_tree(7000, 39), sample_tree(4000, 40)),
        (relabelled(&same, 1), same),
    ] {
        let (b_handle, b_bytes) = save(&b);
        let runs = b_handle.pages.div_ceil(64);
        assert!(runs >= 2, "{} pages", b_handle.pages);
        let mut mixed = 0;
        for k in 0..=runs {
            let (a_handle, a_bytes) = save(&a);
            let mut cut = CutAfter {
                inner: FilePageStore::create(&path, 1024).unwrap(),
                runs: k,
            };
            let saved = b.save(&mut cut);
            drop(cut);
            assert_eq!(saved.is_ok(), k == runs, "k = {k}");
            let now = std::fs::read(&path).unwrap();
            let store = FilePageStore::open(&path, 1024).unwrap();
            for (name, handle, bytes, len) in [
                ("A", a_handle, &a_bytes, a.len()),
                ("B", b_handle, &b_bytes, b.len()),
            ] {
                let whole = now.get(..bytes.len()) == Some(&bytes[..]);
                match RTree::<2>::load(&store, handle, config) {
                    Ok(tree) => {
                        assert!(whole, "k = {k}: a mix loaded as {name}");
                        assert_eq!(tree.len(), len);
                    }
                    Err(e) => {
                        assert!(!whole, "k = {k}: {name}'s pages refused: {e:?}");
                        mixed += 1;
                        // Same shape: nothing but the digest can tell.
                        if a.node_count() == b.node_count() {
                            let digest = matches!(e, StorageError::DigestMismatch { .. });
                            assert!(digest, "k = {k}: as {name}: {e:?}");
                        }
                    }
                }
            }
            if k == runs {
                assert_eq!(saved.unwrap(), b_handle);
                assert_eq!(now, b_bytes, "the file is B's, its length too");
            }
        }
        // A fails from k = 1 on, B at least at k = 0 and 1.
        assert!(mixed >= runs + 2, "{mixed} refusals over {runs} runs");
    }
}
