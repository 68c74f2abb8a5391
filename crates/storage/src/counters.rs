//! Per-level access statistics.
//!
//! The analytical model predicts NA and DA *per tree and per level*
//! (Eqs 6, 8, 9); the experiments compare those predictions against the
//! per-level tallies collected here during actual SJ runs.

use crate::buffer::AccessKind;

/// Buffer hit ratio `hits / (hits + misses)` — the one definition
/// shared by [`AccessStats::hit_ratio`] and the experiments' trace
/// tables. Zero-access semantics are explicit: with no accesses the
/// ratio is **undefined** (`None`), not 0.0 — an untouched buffer is
/// not a buffer that always missed.
pub fn hit_ratio(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    if total == 0 {
        None
    } else {
        Some(hits as f64 / total as f64)
    }
}

/// Node/disk access counts for one tree, broken down by level
/// (0 = leaf, following the crate convention; the cost-model crate maps
/// to the paper's 1-based levels).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessStats {
    na_by_level: Vec<u64>,
    da_by_level: Vec<u64>,
}

impl AccessStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one page access at `level` with the buffer outcome `kind`.
    pub fn record(&mut self, level: u8, kind: AccessKind) {
        let idx = level as usize;
        if self.na_by_level.len() <= idx {
            self.na_by_level.resize(idx + 1, 0);
            self.da_by_level.resize(idx + 1, 0);
        }
        self.na_by_level[idx] += 1;
        if kind.is_miss() {
            self.da_by_level[idx] += 1;
        }
    }

    /// Total node accesses (every `ReadPage`).
    pub fn na_total(&self) -> u64 {
        self.na_by_level.iter().sum()
    }

    /// Total disk accesses (buffer misses).
    pub fn da_total(&self) -> u64 {
        self.da_by_level.iter().sum()
    }

    /// Node accesses at `level`, 0 when never touched.
    pub fn na_at(&self, level: u8) -> u64 {
        self.na_by_level.get(level as usize).copied().unwrap_or(0)
    }

    /// Disk accesses at `level`, 0 when never touched.
    pub fn da_at(&self, level: u8) -> u64 {
        self.da_by_level.get(level as usize).copied().unwrap_or(0)
    }

    /// Highest level that saw any access, or `None` when empty.
    pub fn max_level(&self) -> Option<u8> {
        self.na_by_level
            .iter()
            .rposition(|&c| c > 0)
            .map(|l| l as u8)
    }

    /// Per-level `(level, NA, DA)` triples for every level touched so
    /// far, in ascending level order — the counter plumbing a live
    /// progress sink drains periodically (it diffs two snapshots of
    /// this iterator, so reading must not perturb the tallies).
    pub fn per_level(&self) -> impl Iterator<Item = (u8, u64, u64)> + '_ {
        self.na_by_level
            .iter()
            .zip(&self.da_by_level)
            .enumerate()
            .map(|(i, (&na, &da))| (i as u8, na, da))
    }

    /// Adds another tally into this one (used to combine the per-thread
    /// statistics of the parallel join).
    pub fn merge(&mut self, other: &AccessStats) {
        if self.na_by_level.len() < other.na_by_level.len() {
            self.na_by_level.resize(other.na_by_level.len(), 0);
            self.da_by_level.resize(other.da_by_level.len(), 0);
        }
        for (i, &c) in other.na_by_level.iter().enumerate() {
            self.na_by_level[i] += c;
        }
        for (i, &c) in other.da_by_level.iter().enumerate() {
            self.da_by_level[i] += c;
        }
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        self.na_by_level.clear();
        self.da_by_level.clear();
    }

    /// Buffer hit ratio implied by the tallies: hits are `NA − DA`
    /// (accesses the buffer absorbed), misses are `DA`. Delegates to
    /// the shared [`hit_ratio`] helper; `None` when no accesses were
    /// recorded.
    pub fn hit_ratio(&self) -> Option<f64> {
        let na = self.na_total();
        let da = self.da_total();
        hit_ratio(na - da, da)
    }

    /// The structural invariant `DA ≤ NA`, level by level. Always true
    /// for tallies produced through [`AccessStats::record`]; asserted by
    /// tests after every experiment.
    pub fn da_bounded_by_na(&self) -> bool {
        self.na_by_level
            .iter()
            .zip(&self.da_by_level)
            .all(|(na, da)| da <= na)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tallies_na_and_da() {
        let mut s = AccessStats::new();
        s.record(0, AccessKind::Miss);
        s.record(0, AccessKind::Hit);
        s.record(2, AccessKind::Miss);
        assert_eq!(s.na_total(), 3);
        assert_eq!(s.da_total(), 2);
        assert_eq!(s.na_at(0), 2);
        assert_eq!(s.da_at(0), 1);
        assert_eq!(s.na_at(1), 0);
        assert_eq!(s.na_at(2), 1);
        assert_eq!(s.max_level(), Some(2));
        assert!(s.da_bounded_by_na());
    }

    #[test]
    fn empty_stats() {
        let s = AccessStats::new();
        assert_eq!(s.na_total(), 0);
        assert_eq!(s.da_total(), 0);
        assert_eq!(s.max_level(), None);
        assert!(s.da_bounded_by_na());
    }

    #[test]
    fn merge_adds_levelwise() {
        let mut a = AccessStats::new();
        a.record(0, AccessKind::Miss);
        let mut b = AccessStats::new();
        b.record(0, AccessKind::Hit);
        b.record(3, AccessKind::Miss);
        a.merge(&b);
        assert_eq!(a.na_at(0), 2);
        assert_eq!(a.da_at(0), 1);
        assert_eq!(a.na_at(3), 1);
        assert_eq!(a.max_level(), Some(3));
    }

    #[test]
    fn per_level_mirrors_the_accessors() {
        let mut s = AccessStats::new();
        s.record(0, AccessKind::Miss);
        s.record(0, AccessKind::Hit);
        s.record(2, AccessKind::Miss);
        let levels: Vec<_> = s.per_level().collect();
        assert_eq!(levels, vec![(0, 2, 1), (1, 0, 0), (2, 1, 1)]);
        assert!(AccessStats::new().per_level().next().is_none());
    }

    #[test]
    fn clear_resets() {
        let mut s = AccessStats::new();
        s.record(1, AccessKind::Miss);
        s.clear();
        assert_eq!(s.na_total(), 0);
        assert_eq!(s.max_level(), None);
    }

    #[test]
    fn hits_do_not_count_as_disk_accesses() {
        let mut s = AccessStats::new();
        for _ in 0..10 {
            s.record(0, AccessKind::Hit);
        }
        assert_eq!(s.na_total(), 10);
        assert_eq!(s.da_total(), 0);
    }

    #[test]
    fn hit_ratio_is_na_minus_da_over_na() {
        let mut s = AccessStats::new();
        assert_eq!(s.hit_ratio(), None);
        s.record(0, AccessKind::Miss);
        s.record(0, AccessKind::Hit);
        s.record(1, AccessKind::Hit);
        s.record(1, AccessKind::Hit);
        // NA = 4, DA = 1 ⇒ (4 − 1)/4.
        assert!((s.hit_ratio().unwrap() - 0.75).abs() < 1e-12);
        s.clear();
        assert_eq!(s.hit_ratio(), None);
    }
}
