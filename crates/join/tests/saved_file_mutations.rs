//! A seeded, offline byte-mutation loop over a saved 2-D tree file.
//!
//! Each round damages the file — bytes of a page's header, its entries,
//! its checksum trailer or the zero tail between them, or whole pages
//! swapped in from another save at the same ids — loads the tree back
//! through `FilePageStore` and joins it. Every round must end in a typed
//! `StorageError` or in a join equal to the brute-force nested loop
//! (`oracle.rs`'s reference): never a panic, a hang or a different
//! answer. Sharper than that, since every covered byte is under the page
//! checksum and every page under the save's digest: each mutation of a
//! header, entry or trailer byte and each swapped page fails, and each
//! tail mutation loads the same tree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjcm_datagen::uniform::{generate, UniformConfig};
use sjcm_geom::Rect;
use sjcm_join::baselines::nested_loop_join;
use sjcm_join::JoinSession;
use sjcm_rtree::{BulkLoad, ObjectId, PersistedTree, RTree, RTreeConfig};
use sjcm_storage::layout::{entry_size, HEADER_SIZE, TRAILER_SIZE};
use sjcm_storage::{FilePageStore, PageId, StorageError, DEFAULT_PAGE_SIZE};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

const PAGE: usize = DEFAULT_PAGE_SIZE;
const ROUNDS: usize = 10_000;

type Pairs = Vec<(ObjectId, ObjectId)>;

/// `n` rectangles drawn from `seed`, their ids counted from `first_id`.
fn items(n: usize, seed: u64, first_id: u32) -> Vec<(Rect<2>, ObjectId)> {
    generate::<2>(UniformConfig::new(n, 0.4, seed))
        .into_iter()
        .zip(first_id..)
        .map(|(r, id)| (r, ObjectId(id)))
        .collect()
}

/// Packed at half fill: height 3 from 700 objects, every page with a
/// zero tail.
fn packed(n: usize, seed: u64, first_id: u32) -> RTree<2> {
    let items = items(n, seed, first_id);
    RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.5)
}

struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("sjcm_mutations_{name}_{}", std::process::id()));
        TempFile(p)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn save(tree: &RTree<2>, file: &TempFile) -> (PersistedTree, Vec<u8>) {
    let mut store = FilePageStore::create(&file.0, PAGE).unwrap();
    let handle = tree.save(&mut store).unwrap();
    (handle, std::fs::read(&file.0).unwrap())
}

fn sorted(mut pairs: Pairs) -> Pairs {
    pairs.sort_unstable();
    pairs
}

/// Loads the file and joins it with `other`: the sorted pairs, or the
/// load's error.
fn load_and_join(
    store: &FilePageStore,
    handle: PersistedTree,
    other: &RTree<2>,
) -> Result<Pairs, StorageError> {
    let tree = RTree::<2>::load(store, handle, RTreeConfig::paper(2))?;
    let joined = JoinSession::new(&tree, other).run().unwrap().result;
    Ok(sorted(joined.pairs))
}

/// Writes `bytes` at byte `at` of the file behind the store's back.
fn put(raw: &mut File, at: usize, bytes: &[u8]) {
    raw.seek(SeekFrom::Start(at as u64)).unwrap();
    raw.write_all(bytes).unwrap();
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Header,
    Entries,
    Trailer,
    Tail,
    Swap,
}

const REGIONS: [Region; 5] = [
    Region::Header,
    Region::Entries,
    Region::Trailer,
    Region::Tail,
    Region::Swap,
];

#[test]
fn every_mutation_fails_typed_or_joins_like_the_brute_force() {
    let tree = packed(700, 31, 0);
    let other = packed(300, 32, 0);
    // Two other saves of the same size: one of other data, whose pages
    // the structural checks mostly refuse, and one of the same
    // rectangles under other ids, whose leaves pass every structural
    // check and whose upper pages are the tree's own, byte for byte.
    let strangers = [packed(700, 33, 0), packed(700, 31, 1)];
    let file = TempFile::new("tree");
    let (handle, clean) = save(&tree, &file);
    let foreign = strangers.map(|stranger| {
        let file = TempFile::new("stranger");
        let (_, bytes) = save(&stranger, &file);
        assert_eq!(bytes.len(), clean.len());
        bytes
    });
    assert_eq!(tree.height(), 3);

    let store = FilePageStore::open(&file.0, PAGE).unwrap();
    let loaded = RTree::<2>::load(&store, handle, *tree.config()).unwrap();
    let want = sorted(nested_loop_join(&loaded.objects(), &other.objects()));
    assert!(want.len() > 100, "{} pairs", want.len());
    assert_eq!(load_and_join(&store, handle, &other), Ok(want.clone()));

    // The store reads the file on every load; mutations go through a
    // second handle on it and are undone after each round.
    let mut raw = File::options().write(true).open(&file.0).unwrap();
    let pages = clean.len() / PAGE;
    let used = |page: usize| {
        let count = u16::from_le_bytes([clean[page * PAGE + 2], clean[page * PAGE + 3]]);
        HEADER_SIZE + usize::from(count) * entry_size(2)
    };
    let mut rng = StdRng::seed_from_u64(0x6d75_7461_7465);
    let mut rounds = [0usize; REGIONS.len()];
    for round in 0..ROUNDS {
        let kind = rng.gen_range(0..REGIONS.len());
        let region = REGIONS[kind];
        let page = rng.gen_range(0..pages);
        // Byte ranges touched, to restore from `clean` afterwards, and,
        // for a swap, whether every page swapped in equals the one it
        // replaced.
        let mut touched: Vec<(usize, usize)> = Vec::new();
        let mut same = true;
        if region == Region::Swap {
            let foreign = &foreign[rng.gen_range(0..foreign.len())];
            for _ in 0..rng.gen_range(1..=3) {
                let at = rng.gen_range(0..pages) * PAGE;
                put(&mut raw, at, &foreign[at..at + PAGE]);
                touched.push((at, at + PAGE));
                same &= foreign[at..at + PAGE] == clean[at..at + PAGE];
            }
        } else {
            let range = match region {
                Region::Header => 0..HEADER_SIZE,
                Region::Entries => HEADER_SIZE..used(page),
                Region::Trailer => PAGE - TRAILER_SIZE..PAGE,
                _ => used(page)..PAGE - TRAILER_SIZE,
            };
            for _ in 0..rng.gen_range(1..=4) {
                let at = page * PAGE + rng.gen_range(range.clone());
                put(&mut raw, at, &[clean[at] ^ rng.gen_range(1..=255u8)]);
                touched.push((at, at + 1));
            }
        }
        let tag = format!("round {round}: {region:?} page {page}");
        match (region, load_and_join(&store, handle, &other)) {
            (Region::Tail, Ok(pairs)) => assert_eq!(pairs, want, "{tag}"),
            // Pages swapped for identical ones.
            (Region::Swap, Ok(pairs)) if same => assert_eq!(pairs, want, "{tag}"),
            (Region::Entries | Region::Trailer, Err(e)) => {
                assert_eq!(e, StorageError::Corrupt(PageId(page as u32)), "{tag}")
            }
            (Region::Header, Err(e)) => assert!(
                matches!(e, StorageError::Corrupt(_) | StorageError::MalformedNode(_)),
                "{tag}: {e:?}"
            ),
            (Region::Swap, Err(_)) if !same => {}
            (_, outcome) => panic!("{tag}: {outcome:?}"),
        }
        rounds[kind] += 1;
        for (a, b) in touched {
            put(&mut raw, a, &clean[a..b]);
        }
    }
    assert_eq!(std::fs::read(&file.0).unwrap(), clean);
    assert_eq!(load_and_join(&store, handle, &other), Ok(want));
    for (region, rounds) in REGIONS.iter().zip(rounds) {
        assert!(rounds > ROUNDS / 10, "{region:?}: {rounds} rounds");
    }
}

/// A page of another save of the same rectangles under other ids
/// passes every structural check: only the digest tells the file is a
/// mix. Pages that save wrote byte for byte alike swap for themselves.
#[test]
fn a_page_from_another_save_at_the_same_id_is_a_digest_mismatch() {
    let tree = packed(700, 41, 0);
    let relabelled = packed(700, 41, 1);
    let (file, stranger_file) = (TempFile::new("mixed"), TempFile::new("mixed_stranger"));
    let (handle, clean) = save(&tree, &file);
    let (_, foreign) = save(&relabelled, &stranger_file);
    let mut raw = File::options().write(true).open(&file.0).unwrap();
    let store = FilePageStore::open(&file.0, PAGE).unwrap();
    let mut swapped = 0;
    for page in 0..clean.len() / PAGE {
        let at = page * PAGE;
        put(&mut raw, at, &foreign[at..at + PAGE]);
        let loaded = RTree::<2>::load(&store, handle, *tree.config());
        if clean[at..at + PAGE] == foreign[at..at + PAGE] {
            assert_eq!(loaded.unwrap().len(), tree.len(), "page {page}");
        } else {
            swapped += 1;
            assert!(
                matches!(loaded, Err(StorageError::DigestMismatch { handle: h, .. }) if h == handle.digest),
                "page {page}: {loaded:?}"
            );
        }
        put(&mut raw, at, &clean[at..at + PAGE]);
    }
    // Every leaf differs; the upper levels do not.
    assert_eq!(swapped, tree.node_count() - 3);
}
