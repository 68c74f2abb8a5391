//! Batched structure-of-arrays rectangle kernels.
//!
//! Some consumers answer one question many times in a row over the same
//! rectangle set: *which of these rectangles intersect this one?* The
//! array-of-structs [`Rect`] layout answers it one rectangle at a time,
//! branch-free but in scalar registers. This module keeps a rectangle
//! set as per-dimension `lo`/`hi` coordinate lanes ([`RectBatch`]) and
//! evaluates the predicate **eight lanes at a time, branch-free**, into
//! one `u64` mask word per block of 64 candidates, so LLVM
//! autovectorizes the comparisons on any stable toolchain (no
//! `std::simd` required).
//! Iterating a word's set bits in ascending order reproduces exactly the
//! candidate order a scalar loop would visit, so a batched consumer
//! returns exactly what its scalar twin does, in the same order.
//!
//! The transposition pays only where a set is tested many times: PBSM's
//! large-cell sweep fills its lanes once per cell and sweeps them with
//! every anchor. The tree join's node-pair match does not use lanes: a
//! node pair's restricted entries are too few (about 9 of 33 a side on
//! the paper's packed leaves) to repay transposing a node per pair.
//!
//! # Lanes
//!
//! The lanes are stored eight to a group — per dimension eight low
//! coordinates, then per dimension eight high ones — so a kernel reads
//! a group as fixed-size arrays, with no bounds check per lane. The
//! groups reach past the batch's `len` rectangles: lanes at or past
//! `len` are padding and hold whatever was written there last — zeros,
//! or a rectangle from before [`RectBatch::clear`], which a consumer
//! that refills one batch per use (`clear`, then [`RectBatch::push`])
//! leaves behind — and the word kernels mask them off.
//!
//! # Kernels
//!
//! * [`RectBatch::overlap_word`] — one-vs-many closed-intersection
//!   tests over a block of 64 lanes, one word out.
//! * [`RectBatch::within_word`] — the same for the Euclidean
//!   distance-within-ε predicate (the distance join), evaluated as a
//!   branch-free clamped-gap accumulation that reproduces
//!   [`Rect::min_dist2`] bit-for-bit.
//! * [`RectBatch::overlap_mask`] and [`RectBatch::within_mask`] — the
//!   two word kernels looped over a candidate range into an
//!   [`OverlapMask`].
//! * [`RectBatch::sweep_ref_cells`] — the fused sweep-and-reference-point
//!   kernel of PBSM's large-cell sweep. PBSM has one pair rule: a cell
//!   reports a candidate pair exactly when [`Rect::intersects`] holds and
//!   [`unit_grid_cell`] of the corner `max(a.lo, b.lo)` (the low corner
//!   of the intersection) is that cell. The kernel evaluates it in one
//!   pass that bounds the sweep run, tests the overlap on the lanes and
//!   finds the cell of each survivor; the small-cell sweep evaluates the
//!   same rule one candidate at a time.
//!
//! # Why the sweep kernels skip dimension 0
//!
//! A sweep along dimension 0 considers, for an anchor `a`, only
//! candidates `b` with `a.lo₀ ≤ b.lo₀ ≤ a.hi₀` (both lists sorted by
//! `lo₀`, the anchor is the side with the smaller `lo₀`, and the scan
//! stops at `b.lo₀ > a.hi₀`). Within that range `b.lo₀ ≤ a.hi₀` and
//! `a.lo₀ ≤ b.lo₀ ≤ b.hi₀`, so the dimension-0 test of
//! [`Rect::intersects`] is *always true* — evaluating it again is pure
//! waste. The reference-cell kernel tests dimensions `1..N` only, which
//! for the paper's 2-D workloads halves the comparison work on top of
//! the vectorization win. The argument needs coordinates that compare:
//! for a NaN the `lo₀` order and the run bound mean nothing, so PBSM
//! leaves every rectangle with a NaN coordinate, which meets nothing,
//! out of its partitions.

use crate::Rect;

/// Candidates per mask word.
const CHUNK: usize = 64;

/// Lanes the word kernels test at once; a word is built from up to
/// eight such groups.
const GROUP: usize = 8;

/// A bitmask over a candidate range, one bit per candidate, produced by
/// the [`RectBatch`] kernels. Bit `i` corresponds to candidate
/// `start + i` of the range the kernel was invoked on.
#[derive(Debug, Clone, Default)]
pub struct OverlapMask {
    words: Vec<u64>,
    len: usize,
}

impl OverlapMask {
    /// An empty mask (reusable across kernel calls; the kernels resize).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates covered by the mask.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mask covers no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (qualifying candidates).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether candidate `i` (range-relative) qualified.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / CHUNK] >> (i % CHUNK) & 1 == 1
    }

    /// Iterates the set bit positions in ascending order — the same
    /// order a scalar candidate loop visits, which is what keeps
    /// batched consumers byte-identical to their scalar twins.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| SetBits {
                word,
                base: w * CHUNK,
            })
    }

    /// Fills the mask over `start..end`, one word per 64 candidates from
    /// `word(base, len)`.
    fn fill(&mut self, start: usize, end: usize, mut word: impl FnMut(usize, usize) -> u64) {
        self.len = end - start;
        self.words.clear();
        self.words.extend(
            (start..end)
                .step_by(CHUNK)
                .map(|base| word(base, (end - base).min(CHUNK))),
        );
    }
}

/// Iterator over the set bits of one mask word.
struct SetBits {
    word: u64,
    base: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// Eight consecutive lanes of a [`RectBatch`]: per dimension the eight
/// low coordinates, then per dimension the eight high ones.
#[derive(Debug, Clone, Copy)]
struct Group<const N: usize> {
    lo: [[f64; GROUP]; N],
    hi: [[f64; GROUP]; N],
}

impl<const N: usize> Group<N> {
    const ZERO: Self = Self {
        lo: [[0.0; GROUP]; N],
        hi: [[0.0; GROUP]; N],
    };

    /// Bit `i` set iff `q` intersects lane `i`: one branch-free
    /// comparison loop per dimension over the eight lanes.
    #[inline(always)]
    fn overlap_bits(&self, q: &Rect<N>) -> u64 {
        let mut lanes = [true; GROUP];
        for k in 0..N {
            let (q_lo, q_hi) = (q.lo_k(k), q.hi_k(k));
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane &= (self.lo[k][i] <= q_hi) & (q_lo <= self.hi[k][i]);
            }
        }
        pack(lanes)
    }

    /// Bit `i` set iff lane `i` is within `√eps2` of `q`, through the
    /// clamped per-dimension gap (see [`RectBatch::within_word`]).
    #[inline(always)]
    fn within_bits(&self, q: &Rect<N>, eps2: f64) -> u64 {
        let mut d2 = [0.0f64; GROUP];
        for k in 0..N {
            let (q_lo, q_hi) = (q.lo_k(k), q.hi_k(k));
            for (i, d2) in d2.iter_mut().enumerate() {
                let gap = (self.lo[k][i] - q_hi).max(q_lo - self.hi[k][i]).max(0.0);
                *d2 += gap * gap;
            }
        }
        pack(d2.map(|d| d <= eps2))
    }

    /// Bit `i` set iff lane `i` starts no later than `limit` in
    /// dimension 0 and meets `q` in dimensions `1..N` — the sweep's
    /// run bound and the overlap test it does not imply.
    #[inline(always)]
    fn sweep_bits(&self, q: &Rect<N>, limit: f64) -> u64 {
        let mut lanes = self.lo[0].map(|lo| lo <= limit);
        for k in 1..N {
            let (q_lo, q_hi) = (q.lo_k(k), q.hi_k(k));
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane &= (self.lo[k][i] <= q_hi) & (q_lo <= self.hi[k][i]);
            }
        }
        pack(lanes)
    }
}

/// A rectangle set in structure-of-arrays layout: per dimension one
/// lane of low coordinates and one of high coordinates, stored eight
/// lanes to a group and padded past the last rectangle (module docs).
///
/// ```
/// use sjcm_geom::{Rect, RectBatch, OverlapMask};
/// let rects = [
///     Rect::new([0.0, 0.0], [0.2, 0.2]).unwrap(),
///     Rect::new([0.5, 0.5], [0.9, 0.9]).unwrap(),
///     Rect::new([0.1, 0.1], [0.6, 0.6]).unwrap(),
/// ];
/// let mut batch = RectBatch::new();
/// batch.extend(rects.iter().copied());
/// let q = Rect::new([0.15, 0.15], [0.4, 0.4]).unwrap();
/// let mut mask = OverlapMask::new();
/// batch.overlap_mask(&q, 0, batch.len(), &mut mask);
/// let hits: Vec<usize> = mask.iter_set().collect();
/// assert_eq!(hits, vec![0, 2]);
/// // The word kernel answers the same question for the first block.
/// assert_eq!(batch.overlap_word(&q, 0), 0b101);
/// ```
#[derive(Debug, Clone)]
pub struct RectBatch<const N: usize> {
    /// The lanes, eight to a group, covering at least `len` lanes; a
    /// push adds a group when the lane it writes lies past them.
    groups: Vec<Group<N>>,
    len: usize,
}

impl<const N: usize> Default for RectBatch<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> RectBatch<N> {
    /// An empty batch.
    pub fn new() -> Self {
        Self {
            groups: Vec::new(),
            len: 0,
        }
    }

    /// Number of rectangles in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the batch, keeping the lanes for reuse — the hot
    /// consumers refill one scratch batch per node visit. What the lanes
    /// held becomes padding.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one rectangle, into the lane after the last one.
    #[inline]
    pub fn push(&mut self, r: &Rect<N>) {
        let (g, i) = (self.len / GROUP, self.len % GROUP);
        if g == self.groups.len() {
            self.groups.push(Group::ZERO);
        }
        let group = &mut self.groups[g];
        for k in 0..N {
            group.lo[k][i] = r.lo_k(k);
            group.hi[k][i] = r.hi_k(k);
        }
        self.len += 1;
    }

    /// Appends every rectangle of the iterator.
    pub fn extend(&mut self, rects: impl IntoIterator<Item = Rect<N>>) {
        for r in rects {
            self.push(&r);
        }
    }

    /// Low coordinate of lane `i` in dimension `k`.
    #[inline]
    fn lo(&self, k: usize, i: usize) -> f64 {
        self.groups[i / GROUP].lo[k][i % GROUP]
    }

    /// Reconstructs rectangle `i` (corners are stored exactly, so this
    /// is lossless).
    pub fn get(&self, i: usize) -> Rect<N> {
        debug_assert!(i < self.len);
        let group = &self.groups[i / GROUP];
        Rect::from_corners(
            crate::Point::new(std::array::from_fn(|k| group.lo[k][i % GROUP])),
            crate::Point::new(std::array::from_fn(|k| group.hi[k][i % GROUP])),
        )
    }

    /// The closed-intersection word kernel for 64-lane block `block`:
    /// bit `i` is set iff `q.intersects(&self[64 · block + i])`. Bits
    /// of lanes at or past `len` — the padding the last group reads —
    /// are clear.
    ///
    /// The word is built from fixed groups of eight lanes, each one
    /// branch-free comparison loop per dimension — the shape LLVM turns
    /// into vector compares and ANDs.
    #[inline]
    pub fn overlap_word(&self, q: &Rect<N>, block: usize) -> u64 {
        self.block_word(block, |group| group.overlap_bits(q))
    }

    /// The Euclidean distance word kernel for 64-lane block `block`:
    /// bit `i` is set iff `q.within_distance(&self[64 · block + i], eps)`.
    /// The per-dimension gap is the branch-free
    /// `max(b.lo − q.hi, q.lo − b.hi, 0)` (at most one of the two
    /// differences is positive for a valid rectangle), so the
    /// accumulated squared distance is bit-identical to the scalar
    /// [`Rect::min_dist2`], which sums the same gaps. Padding is masked off as in
    /// [`RectBatch::overlap_word`] — at `eps = +∞` every lane
    /// qualifies, padding included.
    #[inline]
    pub fn within_word(&self, q: &Rect<N>, eps: f64, block: usize) -> u64 {
        let eps2 = eps * eps;
        self.block_word(block, |group| group.within_bits(q, eps2))
    }

    /// One word from the groups of block `block`, the low eight bits
    /// from its first group, with the padding lanes masked off.
    #[inline(always)]
    fn block_word(&self, block: usize, bits: impl Fn(&Group<N>) -> u64) -> u64 {
        let first = block * (CHUNK / GROUP);
        let end = self.len.div_ceil(GROUP).min(first + CHUNK / GROUP);
        let mut word = 0u64;
        for (g, group) in self.groups[first..end].iter().enumerate() {
            word |= bits(group) << (g * GROUP);
        }
        word & low_bits(self.len.saturating_sub(block * CHUNK).min(CHUNK))
    }

    /// The `len ≤ 64` bits of candidates `base..base + len`, cut out of
    /// the one or two block words `block_word` returns.
    fn range_word(&self, base: usize, len: usize, block_word: impl Fn(usize) -> u64) -> u64 {
        let (block, shift) = (base / CHUNK, base % CHUNK);
        let mut word = block_word(block) >> shift;
        if shift + len > CHUNK {
            word |= block_word(block + 1) << (CHUNK - shift);
        }
        word & low_bits(len)
    }

    /// One-vs-many closed-intersection kernel over candidates
    /// `start..end`: bit `i` of `mask` is set iff `q.intersects(&self[start + i])`.
    /// Each mask word is cut from one [`RectBatch::overlap_word`], or
    /// two when `start` is not a multiple of 64.
    pub fn overlap_mask(&self, q: &Rect<N>, start: usize, end: usize, mask: &mut OverlapMask) {
        debug_assert!(start <= end && end <= self.len);
        mask.fill(start, end, |base, len| {
            self.range_word(base, len, |block| self.overlap_word(q, block))
        });
    }

    /// One-vs-many Euclidean distance kernel: bit `i` is set iff
    /// `q.within_distance(&self[start + i], eps)`, each mask word cut
    /// from one or two [`RectBatch::within_word`]s.
    pub fn within_mask(
        &self,
        q: &Rect<N>,
        eps: f64,
        start: usize,
        end: usize,
        mask: &mut OverlapMask,
    ) {
        debug_assert!(start <= end && end <= self.len);
        mask.fill(start, end, |base, len| {
            self.range_word(base, len, |block| self.within_word(q, eps, block))
        });
    }

    /// Fused sweep kernel for PBSM duplicate suppression over one
    /// anchor's candidate run (the batch sorted by `lo₀`): the run bound
    /// `lo₀ ≤ limit` is folded into the lane tests and candidates are
    /// consumed a group of eight at a time starting at `start`, stopping
    /// after the first group whose last candidate is past the bound (the
    /// run cannot resume). One pass over memory, no separate end scan,
    /// and at most seven lanes tested past the run's end.
    ///
    /// `emit` receives the *batch-absolute* index of every candidate
    /// that (a) starts within the run, (b) overlaps `q` in dimensions
    /// `1..N` (dimension 0 is implied — module docs), and (c) has the
    /// low corner of its intersection with `q` in the unit-grid cell
    /// `cell` (grid `grid × … × grid`, row-major), in ascending order —
    /// exactly the candidates, and exactly the order, of the small-cell
    /// sweep loop.
    ///
    /// [`unit_grid_cell`] runs only for candidates that survive the lane
    /// tests: the float→integer cell conversion does not vectorize, and
    /// on realistic sweeps only a few percent of the candidate run truly
    /// intersects.
    pub fn sweep_ref_cells<F: FnMut(usize)>(
        &self,
        q: &Rect<N>,
        start: usize,
        limit: f64,
        grid: usize,
        cell: usize,
        mut emit: F,
    ) {
        debug_assert!(start <= self.len);
        let end_group = self.len.div_ceil(GROUP);
        for g in start / GROUP..end_group {
            let base = g * GROUP;
            // Lanes before `start` and past `len` are not candidates.
            let lanes =
                low_bits((self.len - base).min(GROUP)) & !low_bits(start.saturating_sub(base));
            let mut bits = self.groups[g].sweep_bits(q, limit) & lanes;
            while bits != 0 {
                let i = base + bits.trailing_zeros() as usize;
                if self.ref_cell_hit(q, i, grid, cell) {
                    emit(i);
                }
                bits &= bits - 1;
            }
            if self.lo(0, (base + GROUP).min(self.len) - 1) > limit {
                return;
            }
        }
    }

    /// Reference-point check for one candidate: is the corner
    /// `max(q.lo, lo)` in `cell`? (Overlap is assumed — callers test it
    /// first.)
    #[inline]
    fn ref_cell_hit(&self, q: &Rect<N>, i: usize, grid: usize, cell: usize) -> bool {
        unit_grid_cell::<N>(&std::array::from_fn(|k| q.lo_k(k).max(self.lo(k, i))), grid) == cell
    }
}

/// Builds a batch from a rectangle iterator.
impl<const N: usize> FromIterator<Rect<N>> for RectBatch<N> {
    fn from_iter<I: IntoIterator<Item = Rect<N>>>(iter: I) -> Self {
        let mut batch = Self::new();
        batch.extend(iter);
        batch
    }
}

/// Packs eight lanes into the low byte of a word, lane `i` to bit `i`.
#[inline(always)]
fn pack(lanes: [bool; GROUP]) -> u64 {
    lanes
        .iter()
        .enumerate()
        .fold(0, |word, (i, &lane)| word | u64::from(lane) << i)
}

/// The low `len` bits (`len ≤ 64`) set: the lanes of a block that hold
/// candidates rather than padding.
#[inline(always)]
fn low_bits(len: usize) -> u64 {
    u64::MAX.checked_shr((CHUNK - len) as u32).unwrap_or(0)
}

/// Row-major index of the unit-grid cell containing point `p` (clamped
/// into `[0,1]^N`, `grid` cells per dimension, dimension 0 fastest): the
/// one function that maps a point to its cell, for both PBSM sweeps'
/// reference point and the density surface.
pub fn unit_grid_cell<const N: usize>(p: &[f64; N], grid: usize) -> usize {
    let mut idx = 0usize;
    for k in (0..N).rev() {
        let i = ((p[k].clamp(0.0, 1.0) * grid as f64) as usize).min(grid - 1);
        idx = idx * grid + i;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rects_2d() -> Vec<Rect<2>> {
        vec![
            Rect::new([0.0, 0.0], [0.25, 0.25]).unwrap(),
            Rect::new([0.25, 0.0], [0.5, 0.25]).unwrap(), // touches [0]
            Rect::new([0.6, 0.6], [0.9, 0.9]).unwrap(),
            Rect::new([0.2, 0.2], [0.2, 0.2]).unwrap(), // degenerate point
            Rect::new([0.0, 0.5], [1.0, 0.5]).unwrap(), // degenerate line
        ]
    }

    #[test]
    fn overlap_mask_agrees_with_scalar() {
        let rects = rects_2d();
        let batch: RectBatch<2> = rects.iter().copied().collect();
        let mut mask = OverlapMask::new();
        for q in &rects {
            batch.overlap_mask(q, 0, batch.len(), &mut mask);
            for (i, r) in rects.iter().enumerate() {
                assert_eq!(mask.get(i), q.intersects(r), "q={q:?} r={r:?}");
            }
        }
    }

    #[test]
    fn mask_iter_set_is_ascending_and_complete() {
        let rects = rects_2d();
        let batch: RectBatch<2> = rects.iter().copied().collect();
        let q = Rect::new([0.0, 0.0], [1.0, 1.0]).unwrap();
        let mut mask = OverlapMask::new();
        batch.overlap_mask(&q, 0, batch.len(), &mut mask);
        let set: Vec<usize> = mask.iter_set().collect();
        assert_eq!(set, vec![0, 1, 2, 3, 4]);
        assert_eq!(mask.count(), 5);
    }

    #[test]
    fn subrange_masks_are_range_relative() {
        let rects = rects_2d();
        let batch: RectBatch<2> = rects.iter().copied().collect();
        let q = Rect::new([0.0, 0.0], [0.3, 0.3]).unwrap();
        let mut mask = OverlapMask::new();
        batch.overlap_mask(&q, 1, 4, &mut mask);
        assert_eq!(mask.len(), 3);
        let set: Vec<usize> = mask.iter_set().collect();
        // Range-relative indices: rects[1] and rects[3] qualify.
        assert_eq!(set, vec![0, 2]);
    }

    #[test]
    fn chunk_boundaries_are_handled() {
        // > 64 candidates exercises the multi-word path; every third
        // rectangle intersects the query.
        let rects: Vec<Rect<1>> = (0..200)
            .map(|i| {
                let lo = if i % 3 == 0 { 0.4 } else { 0.8 };
                Rect::new([lo], [lo + 0.1]).unwrap()
            })
            .collect();
        let batch: RectBatch<1> = rects.iter().copied().collect();
        let q = Rect::new([0.0], [0.5]).unwrap();
        let mut mask = OverlapMask::new();
        batch.overlap_mask(&q, 0, batch.len(), &mut mask);
        for (i, r) in rects.iter().enumerate() {
            assert_eq!(mask.get(i), q.intersects(r), "i={i}");
        }
        assert_eq!(
            mask.count(),
            rects.iter().filter(|r| q.intersects(r)).count()
        );
    }

    #[test]
    fn within_mask_agrees_with_scalar() {
        let rects = rects_2d();
        let batch: RectBatch<2> = rects.iter().copied().collect();
        let q = Rect::new([0.3, 0.3], [0.4, 0.4]).unwrap();
        let mut mask = OverlapMask::new();
        for eps in [0.0, 0.1, 0.25, 1.0] {
            batch.within_mask(&q, eps, 0, batch.len(), &mut mask);
            for (i, r) in rects.iter().enumerate() {
                assert_eq!(mask.get(i), q.within_distance(r, eps), "eps={eps} r={r:?}");
            }
        }
    }

    /// PBSM's pair rule: `cell` reports `q` × `r` exactly when they meet
    /// and the corner `max(q.lo, r.lo)` lies in it.
    fn reported(q: &Rect<2>, r: &Rect<2>, grid: usize, cell: usize) -> bool {
        let corner = [0, 1].map(|k| q.lo_k(k).max(r.lo_k(k)));
        q.intersects(r) && unit_grid_cell(&corner, grid) == cell
    }

    #[test]
    fn sweep_ref_cells_matches_scalar_composition() {
        // The degenerate candidates (a point, a line) over one run that
        // ends at q's dimension-0 high: emitted are exactly the
        // candidates whose intersection with q has its low corner in
        // `cell`, and one disjoint only in dimensions ≥ 1 is not. The
        // kernel does not re-test dimension 0, so only candidates that
        // meet q there are compared.
        let mut rects = rects_2d();
        rects.sort_by(|a, b| a.lo_k(0).total_cmp(&b.lo_k(0)));
        let batch: RectBatch<2> = rects.iter().copied().collect();
        let q = Rect::new([0.1, 0.1], [0.7, 0.7]).unwrap();
        let meets_dim0 =
            |i: &usize| q.lo_k(0) <= rects[*i].hi_k(0) && rects[*i].lo_k(0) <= q.hi_k(0);
        for grid in [1usize, 2, 4, 7] {
            for cell in 0..grid.pow(2) {
                let mut got = Vec::new();
                batch.sweep_ref_cells(&q, 0, q.hi_k(0), grid, cell, |i| got.push(i));
                got.retain(meets_dim0);
                let expect: Vec<usize> = (0..rects.len())
                    .filter(meets_dim0)
                    .filter(|&i| reported(&q, &rects[i], grid, cell))
                    .collect();
                assert_eq!(got, expect, "grid={grid} cell={cell}");
            }
        }
    }

    #[test]
    fn sweep_ref_cells_matches_scalar_sweep_loop() {
        // 200 candidates sorted by lo₀ — runs cross the 64-candidate
        // chunk boundary; narrow limits take the short-run fallback,
        // wide ones the chunked path. Both must reproduce the scalar
        // sweep inner loop (run bound → overlap → reference cell)
        // exactly, emission order included.
        let mut rects: Vec<Rect<2>> = (0..200)
            .map(|i| {
                let lo = i as f64 / 210.0;
                let y = (i % 7) as f64 / 8.0;
                Rect::new([lo, y], [lo + 0.03, y + 0.2]).unwrap()
            })
            .collect();
        rects.sort_by(|a, b| a.lo_k(0).total_cmp(&b.lo_k(0)));
        let batch: RectBatch<2> = rects.iter().copied().collect();
        let q = Rect::new([0.1, 0.15], [0.4, 0.55]).unwrap();
        for grid in [1usize, 3, 5] {
            for start in [0usize, 10, 64, 199, 200] {
                // Narrow limit (run < 16 → fallback) and wide limits
                // (multi-chunk runs), including one past every lo₀.
                for limit in [0.12, 0.4, 0.75, 2.0] {
                    for cell in 0..grid.pow(2) {
                        let mut got = Vec::new();
                        batch.sweep_ref_cells(&q, start, limit, grid, cell, |i| got.push(i));
                        let mut expect = Vec::new();
                        let mut i = start;
                        while i < rects.len() && rects[i].lo_k(0) <= limit {
                            if reported(&q, &rects[i], grid, cell) {
                                expect.push(i);
                            }
                            i += 1;
                        }
                        // Like the sweep consumers, only dim-0-overlap-
                        // implied candidates are meaningful; with this
                        // q and these limits the scalar filter above is
                        // the exact reference (q spans lo₀ 0.1..0.4 and
                        // every run starts inside it or emits nothing).
                        let expect: Vec<usize> = expect
                            .into_iter()
                            .filter(|&i| {
                                rects[i].lo_k(0) <= q.hi_k(0) && q.lo_k(0) <= rects[i].hi_k(0)
                            })
                            .collect();
                        let got: Vec<usize> = got
                            .into_iter()
                            .filter(|&i| {
                                rects[i].lo_k(0) <= q.hi_k(0) && q.lo_k(0) <= rects[i].hi_k(0)
                            })
                            .collect();
                        assert_eq!(
                            got, expect,
                            "grid={grid} cell={cell} start={start} limit={limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut batch: RectBatch<2> = rects_2d().into_iter().collect();
        assert_eq!(batch.len(), 5);
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&Rect::new([0.0, 0.0], [1.0, 1.0]).unwrap());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(0), Rect::new([0.0, 0.0], [1.0, 1.0]).unwrap());
    }

    #[test]
    fn unit_grid_cell_clamps_and_orders_row_major() {
        assert_eq!(unit_grid_cell(&[0.0, 0.0], 4), 0);
        assert_eq!(unit_grid_cell(&[0.99, 0.0], 4), 3);
        assert_eq!(unit_grid_cell(&[0.0, 0.99], 4), 12);
        assert_eq!(unit_grid_cell(&[1.0, 1.0], 4), 15); // clamped, not 16
        assert_eq!(unit_grid_cell(&[-3.0, 2.0], 4), 12);
    }
}
