//! Buffer managers.
//!
//! The distinction between the paper's two cost measures is entirely a
//! buffering question: **NA** counts every `ReadPage` call, **DA** counts
//! only the calls that miss the buffer, so `DA ≤ NA` always (§3). Three
//! schemes are provided:
//!
//! * [`NoBuffer`] — every access misses; models Eq 7/11 (`DA = NA`).
//! * [`PathBuffer`] — keeps the most recently visited page *per level*,
//!   i.e. the root-to-current-node path of one tree. This is exactly the
//!   "simple path buffer" behind Eqs 8–12.
//! * [`LruBuffer`] — least-recently-used buffer of parametric capacity,
//!   the §5 future-work extension (cf. Leutenegger & Lopez, ICDE 1998).

use crate::page::PageId;
use std::collections::HashMap;

/// Outcome of a buffered page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Page served from the buffer — a node access but not a disk access.
    Hit,
    /// Page fetched from disk — both a node access and a disk access.
    Miss,
}

impl AccessKind {
    /// `true` for [`AccessKind::Miss`].
    #[inline]
    pub fn is_miss(self) -> bool {
        matches!(self, AccessKind::Miss)
    }
}

/// A buffer manager decides, per page access, whether the page was
/// already resident. Implementations are deterministic functions of the
/// access trace, which keeps every experiment reproducible.
pub trait BufferManager {
    /// Registers an access to `page` at tree `level` and reports whether
    /// it hit. Levels use the crate convention (0 = leaf).
    fn access(&mut self, page: PageId, level: u8) -> AccessKind;

    /// Forgets all buffered pages.
    fn clear(&mut self);

    /// Human-readable scheme name for experiment reports.
    fn name(&self) -> &'static str;
}

/// The trivial scheme: nothing is ever buffered, so `DA = NA`.
#[derive(Debug, Default, Clone)]
pub struct NoBuffer;

impl NoBuffer {
    /// Creates the no-op buffer.
    pub fn new() -> Self {
        Self
    }
}

impl BufferManager for NoBuffer {
    fn access(&mut self, _page: PageId, _level: u8) -> AccessKind {
        AccessKind::Miss
    }

    fn clear(&mut self) {}

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Path buffer: one frame per tree level holding the most recently
/// visited page of that level. Re-visiting the same page consecutively
/// (at its level) hits; any other page evicts the frame.
///
/// This reproduces the behaviour analyzed in §3.1: the node pointed to by
/// the current outer-loop entry stays resident across the inner loop, so
/// the "query" tree's accesses mostly hit, while the "data" tree's
/// accesses mostly miss.
#[derive(Debug, Default, Clone)]
pub struct PathBuffer {
    frames: Vec<Option<PageId>>,
}

impl PathBuffer {
    /// Creates an empty path buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page currently buffered at `level`, if any.
    pub fn resident(&self, level: u8) -> Option<PageId> {
        self.frames.get(level as usize).copied().flatten()
    }
}

impl BufferManager for PathBuffer {
    fn access(&mut self, page: PageId, level: u8) -> AccessKind {
        let idx = level as usize;
        if self.frames.len() <= idx {
            self.frames.resize(idx + 1, None);
        }
        if self.frames[idx] == Some(page) {
            AccessKind::Hit
        } else {
            self.frames[idx] = Some(page);
            AccessKind::Miss
        }
    }

    fn clear(&mut self) {
        self.frames.clear();
    }

    fn name(&self) -> &'static str {
        "path"
    }
}

/// LRU buffer of fixed capacity (in pages), level-oblivious.
///
/// Implementation: a hash map from page to a monotonically increasing
/// "last used" stamp, plus a `BTreeMap` keyed by stamp as the recency
/// index, so eviction is O(log capacity) rather than a scan. Capacity 0
/// degenerates to [`NoBuffer`] behaviour.
#[derive(Debug, Clone)]
pub struct LruBuffer {
    capacity: usize,
    stamp: u64,
    resident: HashMap<PageId, u64>,
    by_stamp: std::collections::BTreeMap<u64, PageId>,
}

impl LruBuffer {
    /// Creates an LRU buffer holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            stamp: 0,
            resident: HashMap::with_capacity(capacity.min(1024)),
            by_stamp: std::collections::BTreeMap::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    fn evict_lru(&mut self) {
        if let Some((_, victim)) = self.by_stamp.pop_first() {
            self.resident.remove(&victim);
        }
    }
}

impl BufferManager for LruBuffer {
    fn access(&mut self, page: PageId, _level: u8) -> AccessKind {
        if self.capacity == 0 {
            return AccessKind::Miss;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(old) = self.resident.insert(page, stamp) {
            self.by_stamp.remove(&old);
            self.by_stamp.insert(stamp, page);
            return AccessKind::Hit;
        }
        self.by_stamp.insert(stamp, page);
        if self.resident.len() > self.capacity {
            // The just-inserted page has the freshest stamp, so it is
            // never its own victim.
            self.evict_lru();
        }
        AccessKind::Miss
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.by_stamp.clear();
        self.stamp = 0;
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Buffer scheme for both trees of a join (each tree gets its own
/// instance — the paper's path buffer is explicitly per-tree). A
/// recorded [`AccessTrace`](crate::AccessTrace) carries the policy it
/// was recorded under, so replay knows which configuration reproduces
/// the recorded hit/miss stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// No buffering: DA = NA.
    None,
    /// Per-tree most-recently-visited-path buffer (§3.1).
    Path,
    /// Per-tree LRU buffer of the given page capacity (§5 extension).
    Lru(usize),
}

impl BufferPolicy {
    /// A fresh buffer manager implementing this policy.
    pub fn build(self) -> Box<dyn BufferManager> {
        match self {
            BufferPolicy::None => Box::new(NoBuffer::new()),
            BufferPolicy::Path => Box::new(PathBuffer::new()),
            BufferPolicy::Lru(cap) => Box::new(LruBuffer::new(cap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn no_buffer_always_misses() {
        let mut b = NoBuffer::new();
        assert_eq!(b.access(p(1), 0), AccessKind::Miss);
        assert_eq!(b.access(p(1), 0), AccessKind::Miss);
    }

    #[test]
    fn path_buffer_hits_on_repeat_at_same_level() {
        let mut b = PathBuffer::new();
        assert_eq!(b.access(p(1), 2), AccessKind::Miss);
        assert_eq!(b.access(p(1), 2), AccessKind::Hit);
        assert_eq!(b.resident(2), Some(p(1)));
    }

    #[test]
    fn path_buffer_one_frame_per_level() {
        let mut b = PathBuffer::new();
        b.access(p(1), 1);
        b.access(p(2), 0);
        // Level 1 frame untouched by level-0 traffic.
        assert_eq!(b.access(p(1), 1), AccessKind::Hit);
        // Different page at level 1 evicts.
        assert_eq!(b.access(p(3), 1), AccessKind::Miss);
        assert_eq!(b.access(p(1), 1), AccessKind::Miss);
    }

    #[test]
    fn path_buffer_models_figure3_case_i() {
        // Figure 3 case (i): the paper keeps one path buffer *per tree*.
        // Entry D2's child node (page 10, tree R2) is fetched from disk
        // once per R1 parent node it is compared under — here A1 and B1 —
        // even though it is *accessed* once per overlapping R1 entry.
        let mut r1_buf = PathBuffer::new();
        let mut r2_buf = PathBuffer::new();
        let mut d2_misses = 0;
        let mut d2_accesses = 0;
        // Under parent A1: D2 overlaps {D1, E1}.
        for r1_child in [20, 21] {
            r1_buf.access(p(r1_child), 0);
            d2_accesses += 1;
            if r2_buf.access(p(10), 0).is_miss() {
                d2_misses += 1;
            }
        }
        // E2 (same R2 node as D2) is processed next under A1, evicting
        // D2's child from R2's level-0 frame.
        r2_buf.access(p(11), 0);
        // Under parent B1: D2 overlaps {H1, I1}.
        for r1_child in [30, 31] {
            r1_buf.access(p(r1_child), 0);
            d2_accesses += 1;
            if r2_buf.access(p(10), 0).is_miss() {
                d2_misses += 1;
            }
        }
        // NA counts 4 accesses; DA counts one miss per intersected R1
        // parent node {A1, B1} = 2, exactly Eq 8's intsect(...) factor.
        assert_eq!(d2_accesses, 4);
        assert_eq!(d2_misses, 2);
    }

    #[test]
    fn path_buffer_clear() {
        let mut b = PathBuffer::new();
        b.access(p(1), 0);
        b.clear();
        assert_eq!(b.access(p(1), 0), AccessKind::Miss);
        // A page that displaced another is forgotten by `clear` too.
        assert_eq!(b.access(p(1), 0), AccessKind::Hit);
        assert_eq!(b.access(p(2), 0), AccessKind::Miss);
        assert_eq!(b.access(p(3), 1), AccessKind::Miss);
        b.clear();
        assert_eq!(b.resident(0), None);
        assert_eq!(b.access(p(2), 0), AccessKind::Miss);
        assert_eq!(b.access(p(3), 1), AccessKind::Miss);
    }

    #[test]
    fn lru_hits_within_capacity() {
        let mut b = LruBuffer::new(2);
        assert_eq!(b.access(p(1), 0), AccessKind::Miss);
        assert_eq!(b.access(p(2), 0), AccessKind::Miss);
        assert_eq!(b.access(p(1), 0), AccessKind::Hit);
        assert_eq!(b.access(p(2), 0), AccessKind::Hit);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.access(p(1), 0);
        b.access(p(2), 0);
        b.access(p(1), 0); // 2 is now LRU
        assert_eq!(b.access(p(3), 0), AccessKind::Miss); // evicts 2
        assert_eq!(b.access(p(2), 0), AccessKind::Miss); // evicts 1
        assert_eq!(b.access(p(3), 0), AccessKind::Hit);
        assert_eq!(b.access(p(1), 0), AccessKind::Miss); // evicts 2
        assert_eq!(b.access(p(3), 0), AccessKind::Hit);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn lru_capacity_zero_is_no_buffer() {
        let mut b = LruBuffer::new(0);
        assert_eq!(b.access(p(1), 0), AccessKind::Miss);
        assert_eq!(b.access(p(1), 0), AccessKind::Miss);
        assert!(b.is_empty());
    }

    #[test]
    fn lru_never_evicts_fresh_insert() {
        let mut b = LruBuffer::new(1);
        b.access(p(1), 0);
        b.access(p(2), 0); // evicts 1, keeps 2
        assert_eq!(b.access(p(2), 0), AccessKind::Hit);
    }

    #[test]
    fn lru_dominates_path_dominates_none_on_a_trace() {
        // On any trace, a big-enough LRU cannot miss more than the path
        // buffer, which cannot miss more than no buffer. Spot-check on a
        // representative mixed trace.
        let trace: Vec<(u32, u8)> = vec![
            (1, 2),
            (2, 1),
            (3, 0),
            (2, 1),
            (4, 0),
            (3, 0),
            (2, 1),
            (1, 2),
            (5, 1),
            (2, 1),
        ];
        let mut none = NoBuffer::new();
        let mut path = PathBuffer::new();
        let mut lru = LruBuffer::new(16);
        let (mut m_none, mut m_path, mut m_lru) = (0, 0, 0);
        for &(pg, lvl) in &trace {
            m_none += usize::from(none.access(p(pg), lvl).is_miss());
            m_path += usize::from(path.access(p(pg), lvl).is_miss());
            m_lru += usize::from(lru.access(p(pg), lvl).is_miss());
        }
        assert_eq!(m_none, trace.len());
        assert!(m_lru <= m_path);
        assert!(m_path <= m_none);
    }
}
