//! On-page binary layout of R-tree nodes.
//!
//! The paper's node capacities — M = 84 for n = 1 and M = 50 for n = 2 on
//! 1 KiB pages — correspond to an entry of `2·n` single-precision
//! coordinates plus a 4-byte child pointer (8·n + 4 bytes) under an
//! 8-byte page header. The last 8 bytes of every page are a trailer
//! holding a checksum of the header and entry bytes ([`checksum`]), so a
//! node gets `1024 − 16` bytes: `1008 / 12 = 84` and `1008 / 20 = 50`,
//! the paper's numbers. The trailer fits in what a full page left over
//! (8–16 bytes) up to n = 4 (M = 36 at n = 3, 28 at n = 4); at n = 5 a
//! 1 KiB page holds 22 entries instead of 23. [`max_entries`] computes
//! exactly that, and the encoder refuses to build nodes that would not
//! fit their page.
//!
//! The checksum only says a page is the one *some* save wrote. A save
//! that overwrites a file in place and stops half way leaves old pages
//! that are each self-consistent, so a save also folds every page's
//! `(id, checksum)` into one order-independent digest ([`digest_term`])
//! that its handle records and the loader recomputes.
//!
//! In memory the tree keeps `f64` rectangles; on the page they are
//! quantized to `f32` with **outward rounding** (low corners toward −∞,
//! high corners toward +∞) so that a persisted node's rectangle always
//! *covers* the exact one. A bounding rectangle that shrank under
//! rounding could make range queries miss answers; growing by at most one
//! ulp only costs the occasional extra node visit.

use crate::page::{PageId, StorageError};
use bytes::Buf;
use sjcm_geom::Rect;

/// Size of the node header in bytes: magic, level, entry count, dims,
/// three reserved bytes.
pub const HEADER_SIZE: usize = 8;

/// Size of the page trailer in bytes: the page's [`checksum`], in the
/// last bytes of the page.
pub const TRAILER_SIZE: usize = 8;

/// Bytes per entry for dimensionality `n`: `2·n` `f32` coordinates plus a
/// `u32` child pointer / object id.
pub const fn entry_size(n: usize) -> usize {
    8 * n + 4
}

/// Maximum number of entries an R-tree node can hold on a page of
/// `page_size` bytes in `n` dimensions — the paper's `M`.
///
/// The header and the trailer take 16 bytes of the page; the trailer
/// costs no entry up to n = 4 on 1 KiB pages, and one (23 → 22) at
/// n = 5.
///
/// ```
/// use sjcm_storage::max_entries;
/// assert_eq!(max_entries(1024, 1), 84); // paper, n = 1
/// assert_eq!(max_entries(1024, 2), 50); // paper, n = 2
/// assert_eq!(max_entries(1024, 3), 36);
/// assert_eq!(max_entries(1024, 5), 22); // 23 without the trailer
/// ```
pub const fn max_entries(page_size: usize, n: usize) -> usize {
    (page_size - HEADER_SIZE - TRAILER_SIZE) / entry_size(n)
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One multiply–rotate round, one multiply per word: a bijection of
/// `acc` for a fixed word and of the word for a fixed `acc`, so a change
/// confined to one word always changes the lane. The rotation carries
/// the multiply's high bits into the next round's low ones.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(P1).rotate_left(31)
}

#[inline(always)]
fn word_at(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an eight-byte slice"))
}

/// The 64-bit checksum a page's trailer holds, over its header and entry
/// bytes: four independent multiply–rotate lanes over 32-byte blocks,
/// then the last words one at a time, then a final avalanche — a word
/// per step, not a byte (a byte-at-a-time FNV-1a would cost about 1 µs
/// per page). Not cryptographic: it catches torn and damaged pages, and
/// any change confined to one aligned 8-byte word, a bit flip included,
/// always changes it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = round(*lane, word_at(&block[8 * k..8 * k + 8]));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add(bytes.len() as u64);
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h = round(h, word_at(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // The last bytes as one zero-extended word: the input's last
        // eight bytes shifted past those already hashed, or a copy when
        // the input is shorter than a word. No copy of variable length
        // on a page's path.
        let last = match bytes.len().checked_sub(8) {
            Some(at) => word_at(&bytes[at..]) >> (8 * (8 - tail.len())),
            None => {
                let mut padded = [0u8; 8];
                padded[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(padded)
            }
        };
        h = round(h, last);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P1);
    h ^ (h >> 32)
}

/// Page `id`'s share of a save's digest, for a page whose trailer holds
/// `checksum`. A save's digest is the wrapping sum of the terms of every
/// page it wrote, so it does not depend on the order pages are written
/// or read in; a page of another save, or a page moved to another id,
/// changes it.
pub fn digest_term(id: PageId, checksum: u64) -> u64 {
    // The SplitMix64 finalizer over the checksum offset by the id.
    let mut x = checksum.wrapping_add(u64::from(id.0).wrapping_mul(P1));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const MAGIC: u8 = 0x52; // 'R'

/// One serialized node entry: a bounding rectangle and either a child
/// page id (internal nodes) or an object id (leaf nodes). The paper's
/// layout gives both the same 4-byte representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskEntry<const N: usize> {
    /// Bounding rectangle (outward-rounded on disk).
    pub rect: Rect<N>,
    /// Child page id or object id, depending on `level`.
    pub child: u32,
}

/// A node in its serialized form: its level (0 = leaf) and entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskNode<const N: usize> {
    /// Level of the node; leaves are level 0. (The paper numbers leaves
    /// as level 1 in the formulas; the crate-internal convention is
    /// 0-based and the cost-model crate does the shifting explicitly.)
    pub level: u8,
    /// Node entries, at most [`max_entries`] for the page size in use.
    pub entries: Vec<DiskEntry<N>>,
}

/// Largest `f32` not exceeding `x` (rounding toward −∞): the nearest
/// `f32`, or its neighbour toward −∞ when the nearest lies above `x` —
/// a select between two words, not a branch.
#[inline]
fn f32_down(x: f64) -> f32 {
    let f = x as f32;
    let bits = f.to_bits();
    // One step toward −∞ in sign-magnitude: a positive value loses one
    // ulp of magnitude; zero (either sign) and negative values take the
    // sign bit and gain one. Never taken for −∞ or NaN, which no `f64`
    // lies below.
    let below = if f > 0.0 {
        bits.wrapping_sub(1)
    } else {
        (bits | 1 << 31).wrapping_add(1)
    };
    f32::from_bits(if f64::from(f) > x { below } else { bits })
}

/// Smallest `f32` not below `x` (rounding toward +∞): [`f32_down`]
/// mirrored, as rounding to nearest is symmetric in the sign.
#[inline]
fn f32_up(x: f64) -> f32 {
    -f32_down(-x)
}

/// Refuses a node of `count` entries that a page of `page_size` bytes
/// cannot hold.
fn check_capacity<const N: usize>(count: usize, page_size: usize) -> Result<(), StorageError> {
    let cap = max_entries(page_size, N);
    if count > cap {
        return Err(StorageError::MalformedNode(format!(
            "{count} entries exceed page capacity {cap} (n = {N})"
        )));
    }
    Ok(())
}

/// `Rect::new`'s test on one dimension's decoded corners: finite and
/// ordered at once, NaN failing every comparison.
#[inline]
fn decodable(lo: f32, hi: f32) -> bool {
    (f32::MIN <= lo) & (lo <= hi) & (hi <= f32::MAX)
}

/// Whether [`encode_page`] accepts an entry with rectangle `r`: the
/// encoder's own corner check, without writing anything. A save runs it
/// over every entry before its first page reaches the store.
pub fn encodable<const N: usize>(r: &Rect<N>) -> bool {
    (0..N).fold(true, |ok, k| {
        ok & decodable(f32_down(r.lo_k(k)), f32_up(r.hi_k(k)))
    })
}

/// Writes header and entries at the front of `out` (long enough by the
/// caller's capacity check) and returns the bytes written. Each entry
/// fills one fixed `entry_size(N)` slot: `lo₀ hi₀ … lo_{N−1} hi_{N−1}`
/// as outward-rounded `f32`s, then the child. Fails with
/// [`StorageError::UnencodableRect`] on the first entry whose rounded
/// corners the decoder's [`Rect::new`] would refuse, checked in the
/// same pass; `out` then holds a partial node.
fn write_node<const N: usize>(
    level: u8,
    entries: impl ExactSizeIterator<Item = DiskEntry<N>>,
    out: &mut [u8],
) -> Result<usize, StorageError> {
    let used = HEADER_SIZE + entries.len() * entry_size(N);
    out[0] = MAGIC;
    out[1] = level;
    out[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    out[4] = N as u8;
    out[5..HEADER_SIZE].fill(0);
    let slots = out[HEADER_SIZE..used].chunks_exact_mut(entry_size(N));
    let mut first_bad = usize::MAX;
    for (i, (slot, e)) in slots.zip(entries).enumerate() {
        let mut ok = true;
        for k in 0..N {
            let (lo, hi) = (f32_down(e.rect.lo_k(k)), f32_up(e.rect.hi_k(k)));
            ok &= decodable(lo, hi);
            slot[8 * k..8 * k + 4].copy_from_slice(&lo.to_le_bytes());
            slot[8 * k + 4..8 * k + 8].copy_from_slice(&hi.to_le_bytes());
        }
        slot[8 * N..].copy_from_slice(&e.child.to_le_bytes());
        first_bad = first_bad.min(if ok { usize::MAX } else { i });
    }
    match first_bad {
        usize::MAX => Ok(used),
        entry => Err(StorageError::UnencodableRect { entry }),
    }
}

/// Serializes one node into `page` — a whole page, its length the page
/// size — zero-filling what the entries leave and sealing it with the
/// trailer: the bytes a store holds for the node, written in place (no
/// buffer per node). Returns the checksum the trailer holds. Fails like
/// [`DiskNode::encode`] on a node the page cannot fit or an entry it
/// cannot encode, leaving `page` unsealed.
pub fn encode_page<const N: usize>(
    level: u8,
    entries: impl ExactSizeIterator<Item = DiskEntry<N>>,
    page: &mut [u8],
) -> Result<u64, StorageError> {
    check_capacity::<N>(entries.len(), page.len())?;
    let used = write_node(level, entries, page)?;
    let (body, trailer) = page.split_at_mut(page.len() - TRAILER_SIZE);
    body[used..].fill(0);
    let sum = checksum(&body[..used]);
    trailer.copy_from_slice(&sum.to_le_bytes());
    Ok(sum)
}

/// A validated view of one serialized node: the header is checked, the
/// entries are decoded on request — straight into whatever the caller
/// builds of them, with no `Vec<DiskEntry>` in between.
#[derive(Debug, Clone, Copy)]
pub struct NodePage<'a, const N: usize> {
    level: u8,
    /// Exactly `len · entry_size(N)` bytes.
    entries: &'a [u8],
}

impl<'a, const N: usize> NodePage<'a, N> {
    /// Validates magic, dimensionality and entry count of `data` (a page,
    /// or just its used prefix).
    pub fn parse(mut data: &'a [u8]) -> Result<Self, StorageError> {
        if data.len() < HEADER_SIZE {
            return Err(StorageError::MalformedNode(format!(
                "page too short: {} bytes",
                data.len()
            )));
        }
        let magic = data.get_u8();
        if magic != MAGIC {
            return Err(StorageError::MalformedNode(format!(
                "bad magic byte 0x{magic:02x}"
            )));
        }
        let level = data.get_u8();
        let count = data.get_u16_le() as usize;
        let dims = data.get_u8() as usize;
        if dims != N {
            return Err(StorageError::MalformedNode(format!(
                "dimensionality mismatch: page has {dims}, expected {N}"
            )));
        }
        data.advance(3);
        let entries = data.get(..count * entry_size(N)).ok_or_else(|| {
            StorageError::MalformedNode(format!(
                "entry area truncated: {} bytes for {count} entries",
                data.len()
            ))
        })?;
        Ok(Self { level, entries })
    }

    /// Parses a whole page as [`NodePage::parse`] does, with the entries
    /// kept clear of the trailer, then checks the trailer against the
    /// header and entry bytes: a mismatch is [`StorageError::Corrupt`]
    /// of page `id`. Returns the view and the page's checksum. A
    /// structural error is reported before the checksum is looked at.
    pub fn parse_sealed(page: &'a [u8], id: PageId) -> Result<(Self, u64), StorageError> {
        if page.len() < HEADER_SIZE + TRAILER_SIZE {
            return Err(StorageError::MalformedNode(format!(
                "page too short: {} bytes",
                page.len()
            )));
        }
        let (body, trailer) = page.split_at(page.len() - TRAILER_SIZE);
        let node = Self::parse(body)?;
        let sum = checksum(&body[..HEADER_SIZE + node.entries.len()]);
        if sum != word_at(trailer) {
            return Err(StorageError::Corrupt(id));
        }
        Ok((node, sum))
    }

    /// Level of the node; leaves are level 0.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len() / entry_size(N)
    }

    /// `true` for a node without entries (an empty tree's root).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Decodes the entries in page order, each through `make`, into a
    /// vector allocated at its final length; every rectangle is checked
    /// for well-formedness on the way.
    pub fn decode_entries<T>(
        &self,
        mut make: impl FnMut(DiskEntry<N>) -> T,
    ) -> Result<Vec<T>, StorageError> {
        // Collected from an exact-length iterator, the loop writes in
        // place and calls nothing that could reallocate, so `make`'s
        // state stays in registers. The first bad rectangle is
        // remembered (a stand-in is decoded) and reported at the end.
        let mut bad = None;
        let first_bad = &mut bad;
        let entries = self
            .entries
            .chunks_exact(entry_size(N))
            .map(move |entry| {
                let word = |i: usize| -> [u8; 4] {
                    entry[4 * i..4 * i + 4]
                        .try_into()
                        .expect("a four-byte slice")
                };
                let lo = std::array::from_fn(|k| f64::from(f32::from_le_bytes(word(2 * k))));
                let hi = std::array::from_fn(|k| f64::from(f32::from_le_bytes(word(2 * k + 1))));
                let child = u32::from_le_bytes(word(2 * N));
                let rect = Rect::new(lo, hi).unwrap_or_else(|e| {
                    first_bad.get_or_insert(e);
                    Rect::unit()
                });
                make(DiskEntry { rect, child })
            })
            .collect();
        match bad {
            None => Ok(entries),
            Some(e) => Err(StorageError::MalformedNode(format!("bad rectangle: {e}"))),
        }
    }
}

impl<const N: usize> DiskNode<N> {
    /// Serializes the node for a page of `page_size` bytes.
    ///
    /// Fails with [`StorageError::MalformedNode`] when the node holds more
    /// entries than the page can fit, and with
    /// [`StorageError::UnencodableRect`] on a rectangle that would not
    /// decode, keeping both kinds of node impossible to persist by
    /// construction.
    pub fn encode(&self, page_size: usize) -> Result<Vec<u8>, StorageError> {
        check_capacity::<N>(self.entries.len(), page_size)?;
        let mut buf = vec![0u8; HEADER_SIZE + self.entries.len() * entry_size(N)];
        write_node(self.level, self.entries.iter().copied(), &mut buf)?;
        Ok(buf)
    }

    /// Deserializes a node, validating magic, dimensionality, entry count
    /// and rectangle well-formedness.
    pub fn decode(data: &[u8]) -> Result<Self, StorageError> {
        let page = NodePage::<N>::parse(data)?;
        Ok(Self {
            level: page.level(),
            entries: page.decode_entries(|entry| entry)?,
        })
    }

    /// Convenience: interpret a child field as a page id (internal nodes).
    pub fn child_page(&self, idx: usize) -> PageId {
        PageId(self.entries[idx].child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sjcm_geom::Rect;

    /// The branchy rounding the encoder used before [`f32_down`] became
    /// a select: the reference the new one must match bit for bit.
    fn reference_f32_down(x: f64) -> f32 {
        let f = x as f32;
        if f64::from(f) > x {
            f32_prev(f)
        } else {
            f
        }
    }

    fn reference_f32_up(x: f64) -> f32 {
        let f = x as f32;
        if f64::from(f) < x {
            f32_next(f)
        } else {
            f
        }
    }

    fn f32_prev(f: f32) -> f32 {
        if f.is_nan() || (f.is_infinite() && f < 0.0) {
            return f;
        }
        if f > 0.0 {
            f32::from_bits(f.to_bits() - 1)
        } else if f == 0.0 {
            // Covers +0.0 and -0.0: the next value toward −∞ is the
            // smallest negative subnormal.
            -f32::from_bits(1)
        } else {
            f32::from_bits(f.to_bits() + 1)
        }
    }

    fn f32_next(f: f32) -> f32 {
        -f32_prev(-f)
    }

    /// The encoder before entries went into fixed slots, over a whole
    /// page: the bytes [`encode_page`] must reproduce.
    fn reference_page<const N: usize>(level: u8, entries: &[DiskEntry<N>], page: &mut [u8]) {
        page[0] = MAGIC;
        page[1] = level;
        page[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        page[4] = N as u8;
        page[5..HEADER_SIZE].fill(0);
        let mut at = HEADER_SIZE;
        let mut put = |word: [u8; 4]| {
            page[at..at + 4].copy_from_slice(&word);
            at += 4;
        };
        for e in entries {
            for k in 0..N {
                put(reference_f32_down(e.rect.lo_k(k)).to_le_bytes());
                put(reference_f32_up(e.rect.hi_k(k)).to_le_bytes());
            }
            put(e.child.to_le_bytes());
        }
        page[at..].fill(0);
        let sum = checksum(&page[..at]);
        let trailer = page.len() - TRAILER_SIZE;
        page[trailer..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A non-NaN `f64` from one of the families where outward rounding
    /// can go wrong, picked by `family` and shaped by `bits`.
    fn edge_value(family: u32, bits: u64) -> f64 {
        let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
        let small = (bits & 0xff) as i64 - 128;
        let step = |x: f64, ulps: i64| f64::from_bits(x.to_bits().wrapping_add_signed(ulps));
        let x = match family {
            // Any bit pattern.
            0 => f64::from_bits(bits),
            // `f64` subnormals.
            1 => sign * f64::from_bits(bits & ((1 << 52) - 1)),
            // `f32` subnormals, exactly.
            2 => sign * f64::from(f32::from_bits(bits as u32 & 0x007f_ffff)),
            // Values that are exactly an `f32`.
            3 => f64::from(f32::from_bits(bits as u32)),
            // Halfway between two neighbouring `f32`s, where rounding to
            // nearest ties to even.
            4 => {
                let a = f32::from_bits(bits as u32 & 0x7f7f_ffff);
                sign * (f64::from(a) + f64::from(f32::from_bits(a.to_bits() + 1))) / 2.0
            }
            // A few `f64` ulps either side of ±`f32::MAX` and of the
            // halfway point past it, where the cast overflows to ∞.
            5 => {
                let max = f64::from(f32::MAX);
                let half_past = max + f64::from(f32::MAX - f32::from_bits(0x7f7f_fffe)) / 2.0;
                sign * step(if bits & 0x100 == 0 { max } else { half_past }, small)
            }
            // Beyond the `f32` range, up to `f64::MAX`.
            6 => sign * f64::from(f32::MAX) * (2.0f64).powi((bits >> 8) as i32 & 0x3ff),
            // A few `f64` ulps either side of an `f32`.
            7 => step(f64::from(f32::from_bits(bits as u32 & 0x7f7f_ffff)), small) * sign,
            // Workspace coordinates.
            8 => sign * (bits >> 11) as f64 / (1u64 << 53) as f64,
            // ±0, ±∞ and the ends of the ranges.
            _ => [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                f64::from_bits(1),
                f64::from(f32::MIN_POSITIVE),
                f64::from(f32::from_bits(1)),
            ][(bits % 10) as usize],
        };
        if x.is_nan() {
            sign
        } else {
            x
        }
    }

    fn edge_value_strategy() -> impl Strategy<Value = f64> {
        (0u32..10, any::<u64>()).prop_map(|(family, bits)| edge_value(family, bits))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn select_rounding_matches_the_branchy_reference(x in edge_value_strategy()) {
            prop_assert_eq!(f32_down(x).to_bits(), reference_f32_down(x).to_bits());
            prop_assert_eq!(f32_up(x).to_bits(), reference_f32_up(x).to_bits());
        }
    }

    /// Encodes nodes of `N`-D entries cut from `values` (two per
    /// dimension, ordered into a finite rectangle), as many as a 1 KiB
    /// page holds, with both encoders over differently dirty pages. The
    /// entries whose reference rounding leaves the `f32` range are taken
    /// out of that node; the first of them, put back among the others,
    /// must be refused by its position, a second one behind it changing
    /// nothing.
    fn same_page<const N: usize>(values: &[(u32, u64)], level: u8) -> Result<(), TestCaseError> {
        let finite = |&(family, bits): &(u32, u64)| {
            let x = edge_value(family, bits);
            if x.is_finite() {
                x
            } else {
                x.signum() * f64::MAX
            }
        };
        let entries: Vec<DiskEntry<N>> = values
            .chunks_exact(2 * N)
            .take(max_entries(1024, N))
            .map(|chunk| {
                let x: Vec<f64> = chunk.iter().map(finite).collect();
                let lo = std::array::from_fn(|k| x[2 * k].min(x[2 * k + 1]));
                let hi = std::array::from_fn(|k| x[2 * k].max(x[2 * k + 1]));
                DiskEntry {
                    rect: Rect::new(lo, hi).unwrap(),
                    child: chunk[0].1 as u32,
                }
            })
            .collect();
        let encodable = |e: &DiskEntry<N>| {
            (0..N).all(|k| {
                reference_f32_down(e.rect.lo_k(k)).is_finite()
                    && reference_f32_up(e.rect.hi_k(k)).is_finite()
            })
        };
        let (mut entries, bad): (Vec<_>, Vec<_>) = entries.into_iter().partition(encodable);
        let mut page = vec![0xa5; 1024];
        encode_page(level, entries.iter().copied(), &mut page).unwrap();
        let mut want = vec![0x5a; 1024];
        reference_page(level, &entries, &mut want);
        prop_assert_eq!(&page, &want);
        if let Some(&first) = bad.first() {
            entries.truncate(max_entries(1024, N) - bad.len().min(2));
            let at = first.child as usize % (entries.len() + 1);
            entries.insert(at, first);
            entries.extend(bad.get(1));
            prop_assert_eq!(
                encode_page(level, entries.iter().copied(), &mut page),
                Err(StorageError::UnencodableRect { entry: at })
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pages_are_the_reference_encoders_bytes(
            values in prop::collection::vec((0u32..10, any::<u64>()), 0..320),
            level in 0u8..4,
        ) {
            same_page::<1>(&values, level)?;
            same_page::<2>(&values, level)?;
            same_page::<3>(&values, level)?;
        }
    }

    fn sample_node() -> DiskNode<2> {
        DiskNode {
            level: 1,
            entries: vec![
                DiskEntry {
                    rect: Rect::new([0.1, 0.2], [0.3, 0.4]).unwrap(),
                    child: 7,
                },
                DiskEntry {
                    rect: Rect::new([0.5, 0.0], [0.9, 1.0]).unwrap(),
                    child: 42,
                },
            ],
        }
    }

    #[test]
    fn paper_capacities() {
        assert_eq!(max_entries(1024, 1), 84);
        assert_eq!(max_entries(1024, 2), 50);
        assert_eq!(max_entries(1024, 3), 36);
        assert_eq!(max_entries(1024, 4), 28);
        // The trailer's one entry, and only at n = 5 on 1 KiB pages.
        assert_eq!(max_entries(1024, 5), 22);
        assert_eq!((1024 - HEADER_SIZE) / entry_size(5), 23);
        assert_eq!(max_entries(4096, 2), 204);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let node = sample_node();
        let bytes = node.encode(1024).unwrap();
        assert_eq!(bytes.len(), HEADER_SIZE + 2 * entry_size(2));
        let back = DiskNode::<2>::decode(&bytes).unwrap();
        assert_eq!(back.level, 1);
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].child, 7);
        assert_eq!(back.child_page(1), PageId(42));
    }

    #[test]
    fn roundtrip_rects_cover_originals() {
        let node = sample_node();
        let back = DiskNode::<2>::decode(&node.encode(1024).unwrap()).unwrap();
        for (orig, dec) in node.entries.iter().zip(&back.entries) {
            assert!(
                dec.rect.contains_rect(&orig.rect),
                "decoded {dec:?} must cover original {orig:?}"
            );
            // ...and by no more than a couple of f32 ulps per side.
            for k in 0..2 {
                assert!((dec.rect.extent(k) - orig.rect.extent(k)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn outward_rounding_never_shrinks() {
        for &x in &[0.0, 0.1, -0.1, 1.0 / 3.0, 0.999_999_9, 1e-300, -1e-300] {
            assert!(f64::from(f32_down(x)) <= x, "down({x})");
            assert!(f64::from(f32_up(x)) >= x, "up({x})");
        }
    }

    #[test]
    fn f32_neighbors() {
        assert!(f32_prev(1.0) < 1.0);
        assert!(f32_next(1.0) > 1.0);
        assert!(f32_prev(0.0) < 0.0);
        assert!(f32_next(0.0) > 0.0);
        assert!(f32_prev(-1.0) < -1.0);
        assert_eq!(f32_prev(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn encode_rejects_overfull_node() {
        let entry = DiskEntry {
            rect: Rect::<2>::unit(),
            child: 0,
        };
        let node = DiskNode {
            level: 0,
            entries: vec![entry; 51],
        };
        assert!(matches!(
            node.encode(1024),
            Err(StorageError::MalformedNode(_))
        ));
        let ok = DiskNode {
            level: 0,
            entries: vec![entry; 50],
        };
        assert!(ok.encode(1024).is_ok());
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample_node().encode(1024).unwrap();
        bytes[0] = 0x00;
        assert!(matches!(
            DiskNode::<2>::decode(&bytes),
            Err(StorageError::MalformedNode(_))
        ));
    }

    #[test]
    fn decode_rejects_wrong_dimensionality() {
        let bytes = sample_node().encode(1024).unwrap();
        assert!(matches!(
            DiskNode::<3>::decode(&bytes),
            Err(StorageError::MalformedNode(_))
        ));
    }

    #[test]
    fn decode_rejects_truncated_entries() {
        let bytes = sample_node().encode(1024).unwrap();
        assert!(matches!(
            DiskNode::<2>::decode(&bytes[..bytes.len() - 1]),
            Err(StorageError::MalformedNode(_))
        ));
        assert!(matches!(
            DiskNode::<2>::decode(&bytes[..4]),
            Err(StorageError::MalformedNode(_))
        ));
    }

    #[test]
    fn encode_page_is_encode_padded_over_a_dirty_buffer() {
        let node = sample_node();
        let mut page = vec![0xaa; 1024];
        let sum = encode_page(node.level, node.entries.iter().copied(), &mut page).unwrap();
        let mut expected = node.encode(1024).unwrap();
        assert_eq!(sum, checksum(&expected));
        expected.resize(1024 - TRAILER_SIZE, 0);
        expected.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(page, expected);
        let view = NodePage::<2>::parse(&page).unwrap();
        assert_eq!((view.level(), view.len()), (1, 2));
        let children = view.decode_entries(|e| e.child).unwrap();
        assert_eq!(children, [7, 42]);
        // The page's capacity is its own length.
        let entry = node.entries[0];
        assert!(matches!(
            encode_page(0, [entry; 51].into_iter(), &mut page),
            Err(StorageError::MalformedNode(_))
        ));
        assert!(encode_page(0, [entry; 50].into_iter(), &mut page).is_ok());
    }

    #[test]
    fn a_sealed_page_parses_and_any_changed_byte_before_the_tail_is_caught() {
        let node = sample_node();
        let mut page = vec![0u8; 1024];
        let sum = encode_page(node.level, node.entries.iter().copied(), &mut page).unwrap();
        let (view, got) = NodePage::<2>::parse_sealed(&page, PageId(3)).unwrap();
        assert_eq!((view.level(), view.len(), got), (1, 2, sum));
        let used = HEADER_SIZE + 2 * entry_size(2);
        // Every byte of the header, the entries and the trailer, every
        // bit: a typed error, never a page. Bytes between the entries
        // and the trailer are not covered; they decode to nothing.
        for at in (0..used).chain(1024 - TRAILER_SIZE..1024) {
            for bit in 0..8 {
                let mut bad = page.clone();
                bad[at] ^= 1 << bit;
                match NodePage::<2>::parse_sealed(&bad, PageId(3)) {
                    Err(StorageError::Corrupt(PageId(3)) | StorageError::MalformedNode(_)) => {}
                    other => panic!("byte {at} bit {bit}: {other:?}"),
                }
            }
        }
        let mut tail = page.clone();
        tail[used] = 0xff;
        assert!(NodePage::<2>::parse_sealed(&tail, PageId(3)).is_ok());
        // Structure is checked first: a bad magic byte is still
        // malformed, not corrupt.
        let mut magic = page.clone();
        magic[0] = 0;
        assert!(matches!(
            NodePage::<2>::parse_sealed(&magic, PageId(3)),
            Err(StorageError::MalformedNode(_))
        ));
        // The entry count cannot reach into the trailer.
        let mut count = page;
        count[2..4].copy_from_slice(&51u16.to_le_bytes());
        assert!(matches!(
            NodePage::<2>::parse_sealed(&count, PageId(3)),
            Err(StorageError::MalformedNode(_))
        ));
        assert!(matches!(
            NodePage::<2>::parse_sealed(&[MAGIC; 15], PageId(3)),
            Err(StorageError::MalformedNode(_))
        ));
    }

    #[test]
    fn the_checksum_sees_every_word_length_and_position() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        // Lengths on and off the 8- and 32-byte grid, including the
        // empty input; each a different sum.
        let sums: Vec<u64> = (0..=bytes.len()).map(|n| checksum(&bytes[..n])).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sums.len());
        // A zero byte appended is a different input.
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 9]));
        // Any one-byte change anywhere.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert_ne!(checksum(&bad), sums[bytes.len()], "byte {at}");
        }
    }

    #[test]
    fn digest_terms_depend_on_the_id_and_the_checksum() {
        let a = digest_term(PageId(0), 7);
        assert_ne!(a, digest_term(PageId(1), 7));
        assert_ne!(a, digest_term(PageId(0), 8));
        // Two pages swapping their contents change the sum.
        let (x, y) = (checksum(b"one"), checksum(b"two"));
        let kept = digest_term(PageId(4), x).wrapping_add(digest_term(PageId(5), y));
        let swapped = digest_term(PageId(4), y).wrapping_add(digest_term(PageId(5), x));
        assert_ne!(kept, swapped);
    }

    #[test]
    fn empty_node_roundtrip() {
        let node = DiskNode::<1> {
            level: 3,
            entries: vec![],
        };
        let back = DiskNode::<1>::decode(&node.encode(1024).unwrap()).unwrap();
        assert_eq!(back.level, 3);
        assert!(back.entries.is_empty());
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let node = DiskNode::<1> {
            level: 0,
            entries: vec![DiskEntry {
                rect: Rect::new([0.123_456_789], [0.987_654_321]).unwrap(),
                child: 99,
            }],
        };
        let back = DiskNode::<1>::decode(&node.encode(1024).unwrap()).unwrap();
        assert!(back.entries[0].rect.contains_rect(&node.entries[0].rect));
    }
}
