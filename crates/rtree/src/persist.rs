//! Paged persistence: writing a tree to a [`PageStore`] in the paper's
//! 1 KiB node layout and loading it back.
//!
//! Persisted coordinates are `f32` with outward rounding (see
//! [`sjcm_storage::layout`]), so a reloaded tree's node rectangles may
//! exceed the in-memory originals by an ulp — queries stay correct (no
//! false negatives). Outward rounding is monotone, so every parent entry
//! of a loaded tree is still its child's MBR bit for bit, and
//! [`RTree::check_invariants`] accepts it without an `f32` tolerance.
//!
//! Every page carries a checksum of its header and entries in its
//! trailer, and every save records a digest of all the pages it wrote
//! (`(page id, checksum)` folded order-independently, see
//! [`sjcm_storage::digest_term`]). The loader checks both, so a page
//! damaged on disk fails as [`StorageError::Corrupt`], and a file that
//! holds pages of another save — one cut short while overwriting the
//! file in place, or a complete save whose handle was never updated —
//! fails as [`StorageError::DigestMismatch`] instead of loading a mix.

use crate::config::RTreeConfig;
use crate::node::{Child, Entry, Node, NodeId, ObjectId};
use crate::tree::RTree;
use sjcm_geom::Rect;
use sjcm_storage::{
    digest_term, encodable, encode_page, DiskEntry, NodePage, PageId, PageStore, StorageError,
};

/// Pages moved per store call. 64 pages of the paper's 1 KiB keep the
/// run buffer under glibc's 128 KiB `mmap` threshold, so it comes from
/// the heap like every other allocation of a load or save, and freeing
/// it cannot move that threshold for what runs next (EXPERIMENTS.md,
/// "Three heap hazards"). A constant, not a parameter.
const RUN_PAGES: usize = 64;

/// Handle to a persisted tree: everything needed to load it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistedTree {
    /// Page of the root node.
    pub root: PageId,
    /// Number of stored objects.
    pub len: usize,
    /// Number of pages written.
    pub pages: usize,
    /// Digest of the pages written: the wrapping sum of
    /// [`sjcm_storage::digest_term`] over every page's id and checksum.
    pub digest: u64,
}

impl<const N: usize> RTree<N> {
    /// Writes the tree to `store`, one node per page, returning the root
    /// page handle. All or nothing on an entry the page format cannot
    /// hold: [`StorageError::UnencodableRect`] comes before any page is
    /// allocated or written, so a save over an earlier one in place
    /// leaves that one loadable.
    pub fn save(&self, store: &mut dyn PageStore) -> Result<PersistedTree, StorageError> {
        for (_, node) in self.iter_nodes() {
            if let Some(entry) = node.entries.iter().position(|e| !encodable(&e.rect)) {
                return Err(StorageError::UnencodableRect { entry });
            }
        }
        // Allocate ids first so children can be referenced before being
        // written: node `i` goes to `page_of[i]`.
        let pages = self.node_count();
        let page_of = (0..pages)
            .map(|_| store.allocate())
            .collect::<Result<Vec<PageId>, _>>()?;
        // Encode nodes whose pages are consecutive into one buffer and
        // hand it over as a run (a store allocates densely, so every
        // run but the last is full).
        let page_size = store.page_size();
        let mut run = Vec::with_capacity(RUN_PAGES.min(pages) * page_size);
        let mut first = PageId::INVALID;
        let mut digest = 0u64;
        for (id, node) in self.iter_nodes() {
            let page = page_of[id.0 as usize];
            let held = run.len() / page_size;
            if held == RUN_PAGES || first.0.checked_add(held as u32) != Some(page.0) {
                if held > 0 {
                    store.write_run(first, &run)?;
                }
                run.clear();
                first = page;
            }
            let at = run.len();
            run.resize(at + page_size, 0);
            let entries = node.entries.iter().map(|e| DiskEntry {
                rect: e.rect,
                child: match e.child {
                    Child::Object(ObjectId(o)) => o,
                    Child::Node(n) => page_of[n.0 as usize].index(),
                },
            });
            let sum = encode_page(node.level, entries, &mut run[at..])?;
            digest = digest.wrapping_add(digest_term(page, sum));
        }
        if !run.is_empty() {
            store.write_run(first, &run)?;
        }
        // A save is only durable once the store has flushed it; without
        // this, a crash after `save` returns could tear the file.
        store.sync()?;
        Ok(PersistedTree {
            root: page_of[self.root_id().0 as usize],
            len: self.len(),
            pages,
            digest,
        })
    }

    /// Loads a tree from `store`, starting at the persisted root page.
    ///
    /// The tree is read a level at a time, each level's pages in id
    /// order and consecutive ids as one [`PageStore::read_run`], and
    /// every page is decoded once, into its node. Each page's trailer is
    /// checked after its header and before its entries are decoded: a
    /// mismatch is [`StorageError::Corrupt`]. What comes back is
    /// checked against `handle`: a page reached twice, a child whose
    /// level is not its parent's minus one, a child with an entry
    /// outside the rectangle of the parent entry that points at it, a
    /// node count other than `handle.pages` or an object count other
    /// than `handle.len` is [`StorageError::MalformedNode`]; a child id
    /// the store does not have is the store's
    /// [`StorageError::UnknownPage`]. Last, the pages' digest must be
    /// `handle.digest`, or the load is [`StorageError::DigestMismatch`]:
    /// some page is another save's. Nothing is sized by an id read
    /// from a page. (A parent rectangle looser than its child's MBR is
    /// legal; one that cuts into it would make every search — and the
    /// join, which restricts a node's partners by that rectangle — miss
    /// what lies outside.) A loose parent is not tightened here: every
    /// file [`RTree::save`] writes has parents equal to their children's
    /// MBRs, since outward `f32` rounding is monotone, and a pass over
    /// the tree would sit on every query's path. Insertion unions into a
    /// parent rectangle, so a loose one stays loose, and covering, until
    /// a split or forced reinsertion on its path recomputes it.
    pub fn load(
        store: &dyn PageStore,
        handle: PersistedTree,
        config: RTreeConfig,
    ) -> Result<Self, StorageError> {
        let page_size = store.page_size();
        // `nodes` holds the tree breadth-first. The children of a level,
        // in (parent, entry) order, *are* the next level, so a child's
        // position is known without a page → node map; until its level
        // is linked, an internal entry carries its child's page id in
        // the `NodeId`.
        let mut nodes: Vec<Node<N>> = Vec::new();
        let mut pages = vec![handle.root.0];
        // `bounds[i]` is the rectangle of the entry that names
        // `pages[i]`; the root has none.
        let mut bounds: Vec<Rect<N>> = Vec::new();
        let mut by_page: Vec<u32> = Vec::new();
        let mut run = Vec::new();
        // Level of the nodes one level up; nothing is above the root.
        let mut parent: Option<u8> = None;
        let mut digest = 0u64;
        while !pages.is_empty() {
            let base = nodes.len();
            if base + pages.len() > handle.pages {
                return Err(StorageError::MalformedNode(format!(
                    "more than the handle's {} pages are reachable from {}",
                    handle.pages, handle.root
                )));
            }
            by_page.clear();
            by_page.extend(0..pages.len() as u32);
            by_page.sort_unstable_by_key(|&i| pages[i as usize]);
            if let Some(w) = by_page
                .windows(2)
                .find(|w| pages[w[0] as usize] == pages[w[1] as usize])
            {
                // A page reachable twice means the on-disk structure is
                // not a tree. (Twice at different depths fails the level
                // check instead: it cannot sit one below both parents.)
                return Err(StorageError::MalformedNode(format!(
                    "page {} reachable through two parents (cycle or DAG)",
                    PageId(pages[w[0] as usize])
                )));
            }
            nodes.resize_with(base + pages.len(), || Node::new(0));
            let mut rest = &by_page[..];
            while let Some(&head) = rest.first() {
                let first = pages[head as usize];
                let count = rest
                    .iter()
                    .take(RUN_PAGES)
                    .zip(first..=u32::MAX)
                    .take_while(|&(&i, id)| pages[i as usize] == id)
                    .count();
                store.read_run(PageId(first), count, &mut run)?;
                if run.len() != count * page_size {
                    return Err(StorageError::Io(format!(
                        "store returned {} bytes for {count} pages from {}",
                        run.len(),
                        PageId(first)
                    )));
                }
                for (&i, data) in rest.iter().zip(run.chunks_exact(page_size)) {
                    let (i, id) = (i as usize, PageId(pages[i as usize]));
                    let (page, sum) = NodePage::<N>::parse_sealed(data, id)?;
                    digest = digest.wrapping_add(digest_term(id, sum));
                    if let Some(parent) = parent.filter(|&p| p != page.level().wrapping_add(1)) {
                        return Err(StorageError::MalformedNode(format!(
                            "page {id} at level {} under parent level {parent}",
                            page.level()
                        )));
                    }
                    nodes[base + i] = decode_node(page, id, bounds.get(i))?;
                }
                rest = &rest[count..];
            }
            // Link the level: its children's pages become the next
            // level, and each entry now names its child's position.
            pages.clear();
            bounds.clear();
            let level = nodes[base].level;
            if level > 0 {
                let next = nodes.len();
                for node in &mut nodes[base..] {
                    for e in &mut node.entries {
                        let position = NodeId((next + pages.len()) as u32);
                        pages.push(
                            std::mem::replace(&mut e.child, Child::Node(position))
                                .node()
                                .0,
                        );
                        bounds.push(e.rect);
                    }
                }
            }
            parent = Some(level);
        }
        let leaf_entries: usize = nodes.iter().filter(|n| n.is_leaf()).map(Node::len).sum();
        if nodes.len() != handle.pages || leaf_entries != handle.len {
            return Err(StorageError::MalformedNode(format!(
                "{} nodes holding {leaf_entries} objects are reachable from {}; \
                 the handle says {} pages and {} objects",
                nodes.len(),
                handle.root,
                handle.pages,
                handle.len
            )));
        }
        if digest != handle.digest {
            return Err(StorageError::DigestMismatch {
                handle: handle.digest,
                pages: digest,
            });
        }
        Ok(RTree::from_breadth_first(config, nodes, handle.len))
    }
}

/// Page `id` into one node, `entries` allocated at its final length. An
/// internal entry's child is left as the child's *page* id. Every entry
/// must lie inside `bound`, the rectangle of the parent entry naming
/// the page (the root has none): four comparisons per entry in 2-D,
/// made in the decode loop.
fn decode_node<const N: usize>(
    page: NodePage<'_, N>,
    id: PageId,
    bound: Option<&Rect<N>>,
) -> Result<Node<N>, StorageError> {
    let level = page.level();
    // The bound moves into the loop by value, and the flag is written
    // only on a failure, so the loop's state stays in registers.
    let (lo, hi) = match bound {
        Some(b) => (b.lo().coords(), b.hi().coords()),
        None => ([f64::NEG_INFINITY; N], [f64::INFINITY; N]),
    };
    let mut outside = false;
    let flag = &mut outside;
    let entries = page.decode_entries(move |DiskEntry { rect, child }| {
        let mut inside = true;
        for k in 0..N {
            inside &= (lo[k] <= rect.lo_k(k)) & (rect.hi_k(k) <= hi[k]);
        }
        if !inside {
            *flag = true;
        }
        Entry {
            rect,
            child: if level == 0 {
                Child::Object(ObjectId(child))
            } else {
                Child::Node(NodeId(child))
            },
        }
    })?;
    if outside {
        return Err(StorageError::MalformedNode(format!(
            "page {id} has an entry outside its parent entry's rectangle"
        )));
    }
    Ok(Node { level, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkLoad;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::Point;
    use sjcm_storage::InMemoryPageStore;

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

    #[test]
    fn save_load_roundtrip_preserves_answers() {
        let tree = sample_tree(2000, 1);
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        assert_eq!(handle.pages, tree.node_count());
        let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.node_count(), tree.node_count());
        loaded.check_invariants().unwrap();
        // Every original object must still be found (f32 widening can
        // only add candidates, never lose them).
        let q = Rect::new([0.1, 0.3], [0.5, 0.6]).unwrap();
        let mut orig = tree.query_window(&q);
        orig.sort();
        let got = loaded.query_window(&q);
        for id in &orig {
            assert!(got.contains(id), "lost {id:?} across persistence");
        }
    }

    #[test]
    fn roundtrip_insertion_built_tree() {
        let mut tree = RTree::<2>::new(RTreeConfig::with_capacity(8));
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..500u32 {
            let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            tree.insert(Rect::centered(c, [0.02, 0.02]), ObjectId(i));
        }
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
        loaded.check_invariants().unwrap();
        assert_eq!(loaded.query_window(&Rect::unit()).len(), 500);
    }

    #[test]
    fn empty_tree_roundtrip() {
        let tree = RTree::<2>::new(RTreeConfig::paper(2));
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        assert_eq!(handle.pages, 1);
        let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.height(), 1);
    }

    #[test]
    fn load_detects_corruption() {
        let tree = sample_tree(200, 3);
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        store.corrupt_for_test(handle.root).unwrap();
        // The flipped byte is in the root page's trailer: the checksum,
        // not a structural check, refuses it.
        let err = RTree::<2>::load(&store, handle, *tree.config()).unwrap_err();
        assert_eq!(err, StorageError::Corrupt(handle.root));
    }

    #[test]
    fn load_rejects_wrong_dimensionality() {
        let tree = sample_tree(100, 4);
        let mut store = InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        let err = RTree::<3>::load(&store, handle, RTreeConfig::paper(3)).unwrap_err();
        assert!(matches!(err, StorageError::MalformedNode(_)));
    }

    #[test]
    fn one_kib_pages_fit_paper_capacity() {
        // A full paper-config node (M = 50 in 2-D) must encode into one
        // 1 KiB page.
        let items: Vec<(Rect<2>, ObjectId)> = (0..50u32)
            .map(|i| {
                let x = f64::from(i) / 50.0;
                (Rect::new([x, 0.0], [x + 0.01, 0.01]).unwrap(), ObjectId(i))
            })
            .collect();
        let tree = RTree::<2>::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 1.0);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.node(tree.root_id()).len(), 50);
        let mut store = InMemoryPageStore::with_default_page_size();
        tree.save(&mut store).unwrap();
    }
}
