//! Fault-tolerance coverage for paged persistence: corruption must
//! surface as [`StorageError::Corrupt`] — never as silently wrong MBRs —
//! no matter which buffer manager fronts the accesses, and torn or
//! missing files must come back as typed errors, not panics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm_geom::{Point, Rect};
use sjcm_rtree::{BulkLoad, ObjectId, PersistedTree, RTree, RTreeConfig};
use sjcm_storage::{
    BufferManager, DiskNode, FaultyPageStore, FilePageStore, InMemoryPageStore, LruBuffer,
    NoBuffer, PageId, PageStore, PathBuffer, ResilientStore, RetryPolicy, StorageError,
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

#[test]
fn corrupt_page_is_quarantined_by_resilient_store() {
    let tree = sample_tree(5000, 13);
    let mut store = InMemoryPageStore::with_default_page_size();
    let handle = tree.save(&mut store).unwrap();
    let victim = interior_page(&store, handle);
    store.corrupt_for_test(victim).unwrap();

    // Corruption is not transient: retries burn down, the page lands in
    // quarantine, and the load still fails typed — never silently.
    let resilient = ResilientStore::new(store, RetryPolicy::default());
    let err = RTree::<2>::load(&resilient, handle, *tree.config()).unwrap_err();
    assert_eq!(err, StorageError::Corrupt(victim));
    assert_eq!(resilient.quarantined_pages(), vec![victim]);
    let c = resilient.counters();
    assert_eq!(c.quarantined, 1);
    assert_eq!(c.recovered, 0);
    assert!(c.retried > 0);
}

#[test]
fn transient_faults_on_reload_recover_through_resilient_store() {
    let tree = sample_tree(2000, 17);
    let mut store = InMemoryPageStore::with_default_page_size();
    let handle = tree.save(&mut store).unwrap();

    // Every page fails its first two reads; the default budget of three
    // retries absorbs that, so the reload succeeds bit-for-bit.
    let plan = sjcm_storage::FaultPlan::none(99).with_transient(1.0, 2);
    let faulty = FaultyPageStore::new(store, plan);
    let resilient = ResilientStore::new(faulty, RetryPolicy::default());
    let loaded = RTree::<2>::load(&resilient, handle, *tree.config()).unwrap();
    assert_eq!(loaded.len(), tree.len());
    assert_eq!(loaded.node_count(), tree.node_count());
    let c = resilient.counters();
    assert_eq!(c.quarantined, 0);
    assert_eq!(c.recovered as usize, handle.pages);
    assert_eq!(c.recovery_rate(), Some(1.0));
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
