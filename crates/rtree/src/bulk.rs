//! Bulk loading ("packing") of R-trees.
//!
//! The one packer is **STR** (Sort-Tile-Recursive, Leutenegger et al.):
//! it recursively sorts and tiles the data into slabs of whole pages,
//! dimension by dimension — `⌈P^(1/N)⌉` cuts per dimension for `P`
//! pages, so the tiles that become nodes are near-square. Works for any
//! `N`.
//!
//! Packed trees have near-100% fill by default; a `fill` factor below
//! 1.0 reproduces insertion-like utilization (the paper's c = 67%) for
//! experiments that want packed construction speed with insertion-like
//! node geometry.
//!
//! Along each dimension, entries are ordered by `lo + hi` (the center,
//! without the halving), then by `lo`, then by their position in the
//! level's input: leaves in the order of `items`, upper entries in the
//! order their nodes were packed. No two entries compare equal, so the
//! tree is a function of the input and the fill alone. The position
//! decides only between entries that share both `lo` and `hi` in the
//! dimension being cut.

use crate::config::RTreeConfig;
use crate::node::{Entry, Node, NodeId, ObjectId};
use crate::tree::RTree;
use sjcm_geom::Rect;

/// Bulk-loading algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkLoad {
    /// Sort-Tile-Recursive.
    Str,
}

impl<const N: usize> RTree<N> {
    /// Builds a tree from `(rect, id)` pairs using the given packer and
    /// fill factor (fraction of `M` used per node, clamped to
    /// `[2m/M, 1]`).
    ///
    /// ```
    /// use sjcm_rtree::{RTree, RTreeConfig, ObjectId, BulkLoad};
    /// use sjcm_geom::Rect;
    /// let items: Vec<_> = (0..1000u32)
    ///     .map(|i| {
    ///         let x = (i % 100) as f64 / 100.0;
    ///         let y = (i / 100) as f64 / 10.0;
    ///         (Rect::new([x, y], [x + 0.005, y + 0.005]).unwrap(), ObjectId(i))
    ///     })
    ///     .collect();
    /// let tree = RTree::<2>::bulk_load(
    ///     RTreeConfig::paper(2), items, BulkLoad::Str, 1.0);
    /// assert_eq!(tree.len(), 1000);
    /// ```
    pub fn bulk_load(
        mut config: RTreeConfig,
        items: Vec<(Rect<N>, ObjectId)>,
        algorithm: BulkLoad,
        fill: f64,
    ) -> Self {
        config.validate().expect("invalid R-tree configuration");
        // STR is the one packer.
        let BulkLoad::Str = algorithm;
        let cap_f = (config.max_entries as f64 * fill).floor() as usize;
        let cap = cap_f.clamp(2, config.max_entries);
        // The last-two-chunk balancing in `pack_level` needs cap ≥ 2m. A
        // fill target below 2m/M is legitimate for a packed tree, so the
        // tree's own minimum fill is relaxed to match instead of raising
        // the cap.
        if cap < 2 * config.min_entries {
            config.min_entries = (cap / 2).max(1);
        }
        if items.is_empty() {
            return RTree::new(config);
        }
        let mut tree = RTree::without_nodes(config);
        tree.set_len(items.len());

        let leaves: Vec<Entry<N>> = items
            .into_iter()
            .map(|(rect, id)| Entry::leaf(rect, id))
            .collect();
        let mut level_nodes = pack_str(&mut tree, &leaves, 0, cap, config.min_entries);

        // Build upper levels until a single node remains.
        let mut level: u8 = 0;
        while level_nodes.len() > 1 {
            level += 1;
            let entries: Vec<Entry<N>> = level_nodes
                .iter()
                .map(|&id| {
                    let mbr = tree.node(id).mbr().expect("packed nodes are non-empty");
                    Entry::internal(mbr, id)
                })
                .collect();
            level_nodes = pack_str(&mut tree, &entries, level, cap, config.min_entries);
        }
        tree.set_root(level_nodes[0]);
        tree
    }
}

/// Entries per slab when `len` entries, packed `cap` to a node, are cut
/// along one of `remaining_dims` dimensions still to be tiled: with
/// `P = ⌈len/cap⌉` pages, `S = ⌈P^(1/remaining_dims)⌉` slabs of
/// `⌈P/S⌉` pages each (Leutenegger et al.). The length is a multiple of
/// `cap`, so `pack_level`'s chunking never puts one node across two
/// slabs and the page count stays `P`.
fn str_slab_len(len: usize, cap: usize, remaining_dims: usize) -> usize {
    let pages = len.div_ceil(cap);
    // The ceiling of the root, in integers: a float root can land a hair
    // above an exact one (27^⅓) and cut a slab too many.
    let mut slabs = 1usize;
    while slabs.saturating_pow(remaining_dims as u32) < pages {
        slabs += 1;
    }
    cap * pages.div_ceil(slabs)
}

/// Packs one level in STR order: each node is gathered straight from
/// `entries` through the ordered keys.
fn pack_str<const N: usize>(
    tree: &mut RTree<N>,
    entries: &[Entry<N>],
    level: u8,
    cap: usize,
    min_entries: usize,
) -> Vec<NodeId> {
    let order = str_order(entries, cap);
    let ordered = order.iter().map(|key| entries[key.at as usize]);
    pack_level(tree, ordered, level, cap, min_entries)
}

/// An entry's place along one dimension: `lo + hi`, then `lo`, each as
/// the `u64` whose unsigned order is `f64::total_cmp`'s, then the entry's
/// position in the level's input. Positions differ, so no two keys are
/// equal and every sort of them agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    sum: u64,
    lo: u64,
    at: u32,
}

impl Key {
    fn new<const N: usize>(rect: &Rect<N>, dim: usize, at: u32) -> Self {
        let lo = rect.lo_k(dim);
        Self {
            sum: total_order_bits(lo + rect.hi_k(dim)),
            lo: total_order_bits(lo),
            at,
        }
    }
}

/// `x`'s bits remapped so that unsigned integer order is
/// `f64::total_cmp` order: a negative value has every bit flipped, any
/// other has its sign bit set.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// STR order of one level, as keys whose `at` is the position in
/// `entries`: slabs of whole pages cut along the first dimension, each
/// cut the same way along the next, the tiles of the last dimension
/// sorted. Every dimension is cut into about `P^(1/N)` pieces for `P`
/// pages, so the tiles come out near-square; STR tiles by pages, so it
/// takes the node capacity `pack_level` will chunk by: a tile is meant
/// to become exactly one node.
fn str_order<const N: usize>(entries: &[Entry<N>], cap: usize) -> Vec<Key> {
    assert!(
        u32::try_from(entries.len()).is_ok(),
        "a level holds fewer than 2^32 entries"
    );
    let mut keys: Vec<Key> = (0u32..)
        .zip(entries)
        .map(|(at, e)| Key::new(&e.rect, 0, at))
        .collect();
    order_dim(&mut keys, entries, 0, cap);
    keys
}

/// Orders `keys`, all along `dim`, in STR order from `dim` on. Below the
/// last dimension only the slabs' contents matter — the next dimension
/// reorders each slab — so the slabs are cut by selection, not sorted.
fn order_dim<const N: usize>(keys: &mut [Key], entries: &[Entry<N>], dim: usize, cap: usize) {
    if keys.len() <= 1 {
        return;
    }
    if dim + 1 >= N {
        keys.sort_unstable();
        return;
    }
    let slab_len = str_slab_len(keys.len(), cap, N - dim);
    cut_slabs(keys, slab_len);
    for slab in keys.chunks_mut(slab_len) {
        for key in slab.iter_mut() {
            *key = Key::new(&entries[key.at as usize].rect, dim + 1, key.at);
        }
        order_dim(slab, entries, dim + 1, cap);
    }
}

/// Partitions `keys` so that each `slab_len`-long chunk holds the keys a
/// sort would put there, in no particular order: a selection at the
/// middle slab boundary, then the same on both halves.
fn cut_slabs(keys: &mut [Key], slab_len: usize) {
    let slabs = keys.len().div_ceil(slab_len);
    if slabs <= 1 {
        return;
    }
    let mid = slabs / 2 * slab_len;
    keys.select_nth_unstable(mid);
    let (below, above) = keys.split_at_mut(mid);
    cut_slabs(below, slab_len);
    cut_slabs(above, slab_len);
}

/// Chunks ordered entries into nodes of `cap` entries, balancing the last
/// two chunks so no node falls below the minimum fill.
fn pack_level<const N: usize>(
    tree: &mut RTree<N>,
    entries: impl IntoIterator<Item = Entry<N>, IntoIter: ExactSizeIterator>,
    level: u8,
    cap: usize,
    min_entries: usize,
) -> Vec<NodeId> {
    let mut entries = entries.into_iter();
    let total = entries.len();
    let mut sizes: Vec<usize> = Vec::new();
    let mut remaining = total;
    while remaining > 0 {
        if remaining > cap {
            // If taking a full chunk would leave an underfull remainder
            // that a single next chunk must absorb, shrink this chunk.
            let after = remaining - cap;
            if after < min_entries && after > 0 && total > cap {
                let take = remaining - min_entries;
                let take = take.clamp(min_entries, cap);
                sizes.push(take);
                remaining -= take;
            } else {
                sizes.push(cap);
                remaining -= cap;
            }
        } else {
            sizes.push(remaining);
            remaining = 0;
        }
    }
    let mut out = Vec::with_capacity(sizes.len());
    for size in sizes {
        let node = Node {
            level,
            entries: entries.by_ref().take(size).collect(),
        };
        out.push(tree.alloc(node));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::Point;

    /// STR order as it was computed before the packer ordered keys:
    /// each slab fully sorted along each dimension, recursively, here
    /// on positions into `entries` and with the tie rule spelled out as
    /// the comparator's third part.
    fn reference_order<const N: usize>(
        entries: &[Entry<N>],
        order: &mut [usize],
        dim: usize,
        cap: usize,
    ) {
        if order.len() <= 1 {
            return;
        }
        order.sort_unstable_by(|&a, &b| {
            let (a_rect, b_rect) = (&entries[a].rect, &entries[b].rect);
            let (a_lo, b_lo) = (a_rect.lo_k(dim), b_rect.lo_k(dim));
            (a_lo + a_rect.hi_k(dim))
                .total_cmp(&(b_lo + b_rect.hi_k(dim)))
                .then_with(|| a_lo.total_cmp(&b_lo))
                .then_with(|| a.cmp(&b))
        });
        if dim + 1 >= N {
            return;
        }
        for slab in order.chunks_mut(str_slab_len(order.len(), cap, N - dim)) {
            reference_order(entries, slab, dim + 1, cap);
        }
    }

    /// Entries whose every interval is drawn from a coarse lattice —
    /// `lo` in quarter steps on `[-0.5, 1]`, extent 0 to 2 steps — so
    /// that equal centers, equal intervals, whole duplicates and
    /// zero-extent rectangles are common; each `u32` shapes one entry.
    fn lattice_entries<const N: usize>(words: &[u32]) -> Vec<Entry<N>> {
        (0u32..)
            .zip(words)
            .map(|(id, &w)| {
                let cell = |k: usize| (w >> (5 * k)) & 0x1f;
                let lo: [f64; N] = std::array::from_fn(|k| f64::from(cell(k) % 7) / 4.0 - 0.5);
                let hi = std::array::from_fn(|k| lo[k] + f64::from(cell(k) / 7 % 3) / 4.0);
                Entry::leaf(Rect::new(lo, hi).unwrap(), ObjectId(id))
            })
            .collect()
    }

    fn order_matches_reference<const N: usize>(
        words: &[u32],
        cap: usize,
    ) -> Result<(), TestCaseError> {
        let entries = lattice_entries::<N>(words);
        let got: Vec<usize> = str_order(&entries, cap)
            .iter()
            .map(|key| key.at as usize)
            .collect();
        let mut want: Vec<usize> = (0..entries.len()).collect();
        reference_order(&entries, &mut want, 0, cap);
        prop_assert_eq!(got, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn key_order_is_the_full_sort_with_ties_by_position(
            words in prop::collection::vec(any::<u32>(), 0..400),
            cap in 2usize..12,
        ) {
            order_matches_reference::<1>(&words, cap)?;
            order_matches_reference::<2>(&words, cap)?;
            order_matches_reference::<3>(&words, cap)?;
        }
    }

    #[test]
    fn key_bits_order_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    fn random_items(n: usize, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
                (Rect::centered(c, [0.01, 0.01]), ObjectId(i as u32))
            })
            .collect()
    }

    #[test]
    fn str_load_is_valid_and_queryable() {
        let items = random_items(3000, 1);
        let tree = RTree::<2>::bulk_load(
            RTreeConfig::with_capacity(16),
            items.clone(),
            BulkLoad::Str,
            1.0,
        );
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 3000);
        let q = Rect::new([0.2, 0.2], [0.4, 0.4]).unwrap();
        let mut got = tree.query_window(&q);
        got.sort();
        let mut want: Vec<ObjectId> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn full_fill_produces_fewer_nodes_than_insertion() {
        let items = random_items(2000, 3);
        let packed = RTree::<2>::bulk_load(
            RTreeConfig::with_capacity(16),
            items.clone(),
            BulkLoad::Str,
            1.0,
        );
        let mut inserted = RTree::<2>::new(RTreeConfig::with_capacity(16));
        for (r, id) in items {
            inserted.insert(r, id);
        }
        assert!(
            packed.node_count() < inserted.node_count(),
            "packed {} vs inserted {}",
            packed.node_count(),
            inserted.node_count()
        );
    }

    #[test]
    fn partial_fill_matches_target() {
        let items = random_items(4000, 4);
        let tree =
            RTree::<2>::bulk_load(RTreeConfig::with_capacity(20), items, BulkLoad::Str, 0.67);
        tree.check_invariants().unwrap();
        let s = tree.stats();
        // Leaf fanout ≈ floor(20 · 0.67) = 13.
        let leaf = s.level(1).unwrap();
        assert!(
            (12.0..=14.0).contains(&leaf.avg_fanout),
            "fanout {}",
            leaf.avg_fanout
        );
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let empty =
            RTree::<2>::bulk_load(RTreeConfig::with_capacity(8), vec![], BulkLoad::Str, 1.0);
        assert!(empty.is_empty());
        empty.check_invariants().unwrap();

        let one = RTree::<2>::bulk_load(
            RTreeConfig::with_capacity(8),
            vec![(Rect::unit(), ObjectId(1))],
            BulkLoad::Str,
            1.0,
        );
        assert_eq!(one.len(), 1);
        assert_eq!(one.height(), 1);
        one.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_exact_page_boundary() {
        // Exactly cap² items: two perfectly full levels.
        let items = random_items(64, 5);
        let tree = RTree::<2>::bulk_load(RTreeConfig::with_capacity(8), items, BulkLoad::Str, 1.0);
        tree.check_invariants().unwrap();
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.stats().level(1).unwrap().node_count, 8);
    }

    /// `⌈√len⌉` slabs whatever the node capacity: the ordering the page
    /// tiling is measured against.
    fn sqrt_n_order(entries: &mut [Entry<2>]) {
        entries.sort_by(|a, b| a.rect.center()[0].total_cmp(&b.rect.center()[0]));
        let slabs = (entries.len() as f64).sqrt().ceil() as usize;
        for slab in entries.chunks_mut(entries.len().div_ceil(slabs)) {
            slab.sort_by(|a, b| a.rect.center()[1].total_cmp(&b.rect.center()[1]));
        }
    }

    fn node_mbrs(tree: &RTree<2>, ids: &[NodeId]) -> Vec<Rect<2>> {
        ids.iter().map(|&id| tree.node(id).mbr().unwrap()).collect()
    }

    fn mean_aspect(tiles: &[Rect<2>]) -> f64 {
        tiles.iter().map(|r| r.extent(0) / r.extent(1)).sum::<f64>() / tiles.len() as f64
    }

    fn total_margin(tiles: &[Rect<2>]) -> f64 {
        tiles.iter().map(Rect::margin).sum()
    }

    #[test]
    fn str_tiles_are_near_square_and_tighter_than_sqrt_n_slabs() {
        let (n, cap) = (10_000, 16);
        let items = random_items(n, 7);
        let tree = RTree::<2>::bulk_load(
            RTreeConfig::with_capacity(cap),
            items.clone(),
            BulkLoad::Str,
            1.0,
        );
        tree.check_invariants().unwrap();
        let tiles = node_mbrs(&tree, &tree.node_ids_at_level(0));
        assert_eq!(tiles.len(), n.div_ceil(cap));
        let aspect = mean_aspect(&tiles);
        assert!((0.5..=2.0).contains(&aspect), "mean width/height {aspect}");

        let mut entries: Vec<Entry<2>> = items.iter().map(|&(r, id)| Entry::leaf(r, id)).collect();
        sqrt_n_order(&mut entries);
        let mut slabbed = RTree::<2>::new(RTreeConfig::with_capacity(cap));
        let ids = pack_level(&mut slabbed, entries, 0, cap, 6);
        let strips = node_mbrs(&slabbed, &ids);
        assert_eq!(strips.len(), tiles.len(), "page count must not move");
        let strip_aspect = mean_aspect(&strips);
        assert!(
            strip_aspect < 0.2,
            "√N slabs cut thin strips: {strip_aspect}"
        );
        let (margin, strip_margin) = (total_margin(&tiles), total_margin(&strips));
        assert!(
            margin < 0.75 * strip_margin,
            "tiled {margin} vs slabbed {strip_margin}"
        );
    }

    #[test]
    fn str_slabs_end_on_node_boundaries() {
        // 625 pages → 25 slabs of 25 pages: in pack order, every run of
        // 25 leaves is one slab, so its objects lie left of the next
        // run's. A leaf across two slabs would hold objects of both.
        let (n, cap) = (10_000, 16);
        assert_eq!(str_slab_len(n, cap, 2), 25 * cap);
        let tree = RTree::<2>::bulk_load(
            RTreeConfig::with_capacity(cap),
            random_items(n, 8),
            BulkLoad::Str,
            1.0,
        );
        let leaves = tree.node_ids_at_level(0);
        let x_range = |ids: &[NodeId]| {
            ids.iter()
                .flat_map(|&id| tree.node(id).entries.iter())
                .map(|e| e.rect.center()[0])
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(x), hi.max(x))
                })
        };
        let slabs: Vec<(f64, f64)> = leaves.chunks(25).map(x_range).collect();
        assert_eq!(slabs.len(), 25);
        for pair in slabs.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "slabs interleave: {pair:?}");
        }
        // 27 pages in 3-D are 3 × 3 × 3, not the 4 a rounded-up float
        // cube root would cut.
        assert_eq!(str_slab_len(27 * cap, cap, 3), 9 * cap);
        // Whatever the input size, a slab is a whole number of pages.
        for len in [1, 15, 16, 17, 255, 256, 257, 1_000, 59_999] {
            for dims in 1..=3 {
                assert_eq!(str_slab_len(len, cap, dims) % cap, 0, "{len} in {dims}-D");
            }
        }
    }

    #[test]
    fn str_page_count_is_exact_at_both_fills() {
        for (fill, cap) in [(1.0, 50), (0.67, 33)] {
            for n in [1, 20, 33, 50, 51, 2_500, 10_000] {
                let tree = RTree::<2>::bulk_load(
                    RTreeConfig::paper(2),
                    random_items(n, 9),
                    BulkLoad::Str,
                    fill,
                );
                tree.check_invariants().unwrap();
                assert_eq!(
                    tree.node_ids_at_level(0).len(),
                    n.div_ceil(cap),
                    "{n} objects at fill {fill}"
                );
            }
        }
    }

    #[test]
    fn three_dimensional_bulk_load() {
        let mut rng = StdRng::seed_from_u64(10);
        let items: Vec<(Rect<3>, ObjectId)> = (0..4_000u32)
            .map(|i| {
                let c = Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0)));
                (Rect::centered(c, [0.02; 3]), ObjectId(i))
            })
            .collect();
        let tree = RTree::<3>::bulk_load(
            RTreeConfig::with_capacity(10),
            items.clone(),
            BulkLoad::Str,
            1.0,
        );
        tree.check_invariants().unwrap();
        assert_eq!(tree.node_ids_at_level(0).len(), 400);
        let q = Rect::new([0.1, 0.2, 0.3], [0.4, 0.5, 0.6]).unwrap();
        let mut got = tree.query_window(&q);
        got.sort();
        let mut want: Vec<ObjectId> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        want.sort();
        assert_eq!(got, want);
        // 400 pages → ⌈400^⅓⌉ = 8 cuts per dimension: tiles about as
        // deep as they are wide.
        let (mut x, mut z) = (0.0, 0.0);
        for id in tree.node_ids_at_level(0) {
            let mbr = tree.node(id).mbr().unwrap();
            x += mbr.extent(0);
            z += mbr.extent(2);
        }
        assert!((0.5..=2.0).contains(&(x / z)), "width/depth {}", x / z);
    }

    #[test]
    fn one_dimensional_bulk_load() {
        let items: Vec<(Rect<1>, ObjectId)> = (0..500u32)
            .map(|i| {
                let lo = f64::from(i) / 500.0;
                (Rect::new([lo], [lo + 0.001]).unwrap(), ObjectId(i))
            })
            .collect();
        let tree = RTree::<1>::bulk_load(RTreeConfig::with_capacity(10), items, BulkLoad::Str, 1.0);
        tree.check_invariants().unwrap();
        let hits = tree.query_window(&Rect::new([0.0], [0.1]).unwrap());
        assert_eq!(hits.len(), 51); // i = 0..=50 start at ≤ 0.1
    }
}
