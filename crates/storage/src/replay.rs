//! Trace-driven buffer what-if replay.
//!
//! A captured [`crate::recorder::AccessTrace`] fixes the *access
//! sequence* of a join run; the hit/miss outcome of each access is then
//! a deterministic function of the buffer policy. This module
//! re-simulates a trace under any [`BufferPolicy`]:
//!
//! * [`replay`] runs the events through concrete buffer managers, one
//!   fresh pair (tree 1, tree 2) per correlation domain — reproducing
//!   the live per-level NA/DA counters **exactly** when the replayed
//!   policy matches the recorded one ([`ReplayOutcome::kind_mismatches`]
//!   is 0), and answering "what if we had run policy X instead?"
//!   otherwise.
//! * [`StackDistance`] is a single-pass Mattson stack-distance
//!   analyzer: because LRU has the *inclusion property* (the content of
//!   an LRU buffer of capacity C is a subset of capacity C+1's), one
//!   scan yields the hit count of **every** LRU capacity at once — the
//!   whole DA-vs-buffer-size curve from one pass instead of one replay
//!   per size. Cross-checked against brute-force [`replay`] by the
//!   property tests.
//!
//! Both respect correlation domains: accesses with different `corr`
//! never share a buffer (the live schedulers reset or separate buffers
//! exactly there — see [`crate::recorder`]), and tree 1 / tree 2 each
//! have their own buffer, mirroring the executors' `buf1`/`buf2`.

use crate::buffer::BufferManager;
use crate::buffer::BufferPolicy;
use crate::counters::AccessStats;
use crate::recorder::PageAccessEvent;
use std::collections::HashMap;

/// Result of re-simulating a trace under one buffer policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Per-level NA/DA for tree 1 under the replayed policy.
    pub stats1: AccessStats,
    /// Per-level NA/DA for tree 2 under the replayed policy.
    pub stats2: AccessStats,
    /// Events whose replayed hit/miss differs from the recorded one.
    /// 0 when the replayed policy is the recorded policy — that is the
    /// "replay reproduces the live counters exactly" acceptance check.
    pub kind_mismatches: u64,
}

impl ReplayOutcome {
    /// Combined DA over both trees.
    pub fn da_total(&self) -> u64 {
        self.stats1.da_total() + self.stats2.da_total()
    }

    /// Combined NA over both trees (policy-independent: replaying any
    /// policy preserves NA, only DA moves).
    pub fn na_total(&self) -> u64 {
        self.stats1.na_total() + self.stats2.na_total()
    }
}

/// Re-simulates `events` (tick-sorted, as produced by
/// [`crate::recorder::FlightRecorder::drain`]) under `policy`.
///
/// Each correlation domain gets a fresh buffer pair, created at the
/// domain's first event. Because domains never share buffers, replaying
/// in global tick order is equivalent to replaying domain by domain,
/// and a single pass suffices even when the live run interleaved
/// domains across worker threads.
pub fn replay(events: &[PageAccessEvent], policy: BufferPolicy) -> ReplayOutcome {
    type BufferPair = (Box<dyn BufferManager>, Box<dyn BufferManager>);
    let mut outcome = ReplayOutcome::default();
    let mut domains: HashMap<u32, BufferPair> = HashMap::new();
    for e in events {
        let (buf1, buf2) = domains
            .entry(e.corr)
            .or_insert_with(|| (policy.build(), policy.build()));
        let (buf, stats) = if e.tree == 1 {
            (buf1, &mut outcome.stats1)
        } else {
            (buf2, &mut outcome.stats2)
        };
        let kind = buf.access(e.page, e.level);
        stats.record(e.level, kind);
        if kind != e.kind {
            outcome.kind_mismatches += 1;
        }
    }
    outcome
}

/// Binary indexed tree (Fenwick) over access positions; supports the
/// point-update / prefix-sum pair the stack-distance computation needs.
/// Fixed capacity: a Fenwick tree cannot grow lazily (parent nodes past
/// the old length would have missed earlier updates), so the analyzer
/// pre-sizes one per domain from the event counts.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn with_capacity(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at position `i` (0-based, must be `< capacity`).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Per-domain Mattson state: one logical LRU stack per
/// (correlation, tree) pair, matching how [`replay`] instantiates
/// buffers.
#[derive(Debug)]
struct DomainState {
    /// Position of the most recent access to each page.
    last_pos: HashMap<u32, usize>,
    /// 1 at the position of each page's most recent access.
    recent: Fenwick,
    /// Next access position.
    time: usize,
}

impl DomainState {
    fn with_capacity(n: usize) -> Self {
        Self {
            last_pos: HashMap::new(),
            recent: Fenwick::with_capacity(n),
            time: 0,
        }
    }
}

/// Single-pass reuse-distance (Mattson) analysis of a trace.
///
/// For each access, the *stack distance* is the number of distinct
/// pages touched since the previous access to the same page, plus one —
/// equivalently, the page's depth in the LRU stack. An access with
/// stack distance `d` hits every LRU buffer of capacity `≥ d` and
/// misses every smaller one, so the histogram of distances determines
/// the hit count of **all** capacities simultaneously. First-ever
/// accesses (cold misses) miss at every capacity.
///
/// Distances are tracked per (correlation domain, tree), mirroring
/// [`replay`]'s buffer instantiation, so
/// [`StackDistance::misses_at`]`(c)` equals the brute-force
/// `replay(events, BufferPolicy::Lru(c)).da_total()` for every `c`
/// (the property tests assert this).
#[derive(Debug, Clone, Default)]
pub struct StackDistance {
    /// `hist[d - 1]` = number of accesses with stack distance `d`.
    hist: Vec<u64>,
    cold: u64,
    total: u64,
}

impl StackDistance {
    /// Analyzes `events` in one scan (plus a counting pre-pass to size
    /// the per-domain index structures).
    pub fn analyze(events: &[PageAccessEvent]) -> Self {
        let mut out = Self::default();
        let mut sizes: HashMap<(u32, u8), usize> = HashMap::new();
        for e in events {
            *sizes.entry((e.corr, e.tree)).or_default() += 1;
        }
        let mut domains: HashMap<(u32, u8), DomainState> = sizes
            .into_iter()
            .map(|(k, n)| (k, DomainState::with_capacity(n)))
            .collect();
        for e in events {
            let dom = domains.get_mut(&(e.corr, e.tree)).expect("pre-sized");
            let t = dom.time;
            dom.time += 1;
            match dom.last_pos.insert(e.page.0, t) {
                None => out.cold += 1,
                Some(prev) => {
                    // Distinct pages touched strictly after `prev` =
                    // most-recent-access marks in (prev, t) — the mark
                    // at `prev` is this page's own, position `t` is not
                    // yet marked — plus 1 for the page itself.
                    let d = (dom.recent.prefix(t) - dom.recent.prefix(prev)) as usize + 1;
                    if out.hist.len() < d {
                        out.hist.resize(d, 0);
                    }
                    out.hist[d - 1] += 1;
                    dom.recent.add(prev, -1);
                }
            }
            dom.recent.add(t, 1);
            out.total += 1;
        }
        out
    }

    /// Total accesses analyzed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Accesses that can never hit (first touch of their page in their
    /// domain).
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Hits an LRU buffer of `capacity` pages would serve.
    pub fn hits_at(&self, capacity: usize) -> u64 {
        self.hist.iter().take(capacity).sum()
    }

    /// Misses (= DA) an LRU buffer of `capacity` pages would incur.
    pub fn misses_at(&self, capacity: usize) -> u64 {
        self.total - self.hits_at(capacity)
    }

    /// Smallest capacity achieving the maximum possible hit count;
    /// every larger buffer is wasted. 0 for an empty trace.
    pub fn saturating_capacity(&self) -> usize {
        self.hist.iter().rposition(|&c| c > 0).map_or(0, |d| d + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::AccessKind;
    use crate::page::PageId;
    use crate::recorder::FlightRecorder;

    /// Builds tick-ordered events from (corr, tree, page, level)
    /// tuples, with kinds produced by live buffers of `policy` — i.e. a
    /// faithful recording of a real run.
    fn record(seq: &[(u32, u8, u32, u8)], policy: BufferPolicy) -> Vec<PageAccessEvent> {
        let recorder = FlightRecorder::enabled();
        let mut lanes: HashMap<(u32, u8), _> = HashMap::new();
        let mut bufs: HashMap<(u32, u8), Box<dyn BufferManager>> = HashMap::new();
        for &(corr, tree, page, level) in seq {
            let lane = lanes.entry((corr, tree)).or_insert_with(|| {
                let mut l = recorder.lane(tree);
                l.set_corr(corr);
                l
            });
            let buf = bufs.entry((corr, tree)).or_insert_with(|| policy.build());
            let kind = buf.access(PageId(page), level);
            lane.record(PageId(page), level, kind);
        }
        drop(lanes);
        recorder.drain().0
    }

    #[test]
    fn replaying_the_recorded_policy_is_exact() {
        let seq = [
            (0, 1, 1, 1),
            (0, 2, 10, 1),
            (0, 1, 2, 0),
            (0, 2, 10, 1),
            (0, 1, 2, 0),
            (0, 2, 11, 0),
            (0, 1, 1, 1),
            (0, 2, 11, 0),
        ];
        for policy in [BufferPolicy::None, BufferPolicy::Path, BufferPolicy::Lru(2)] {
            let events = record(&seq, policy);
            let out = replay(&events, policy);
            assert_eq!(out.kind_mismatches, 0, "{policy:?}");
            // Replayed stats equal the stats implied by recorded kinds.
            let mut want1 = AccessStats::new();
            let mut want2 = AccessStats::new();
            for e in &events {
                if e.tree == 1 {
                    want1.record(e.level, e.kind);
                } else {
                    want2.record(e.level, e.kind);
                }
            }
            assert_eq!(out.stats1, want1);
            assert_eq!(out.stats2, want2);
        }
    }

    #[test]
    fn corr_domains_do_not_share_buffers() {
        // Same page twice in one domain: second access hits under path.
        // Same page in two domains: both are cold misses.
        let events = record(
            &[(1, 1, 7, 0), (1, 1, 7, 0), (2, 1, 7, 0)],
            BufferPolicy::Path,
        );
        let out = replay(&events, BufferPolicy::Path);
        assert_eq!(out.stats1.na_total(), 3);
        assert_eq!(out.stats1.da_total(), 2);
    }

    #[test]
    fn what_if_replay_changes_da_not_na() {
        let seq = [
            (0, 1, 1, 0),
            (0, 1, 2, 0),
            (0, 1, 1, 0),
            (0, 1, 3, 0),
            (0, 1, 1, 0),
        ];
        let events = record(&seq, BufferPolicy::Path);
        let none = replay(&events, BufferPolicy::None);
        let path = replay(&events, BufferPolicy::Path);
        let lru = replay(&events, BufferPolicy::Lru(8));
        assert_eq!(none.na_total(), 5);
        assert_eq!(path.na_total(), 5);
        assert_eq!(lru.na_total(), 5);
        assert_eq!(none.da_total(), 5);
        // Path: 1,2 miss, 1 miss (2 evicted it), 3 miss, 1 miss = 5?
        // level-0 frame: 1→miss, 2→miss, 1→miss, 3→miss, 1→miss.
        assert_eq!(path.da_total(), 5);
        // LRU(8): 1,2,3 cold; the two re-reads of 1 hit.
        assert_eq!(lru.da_total(), 3);
        assert!(none.kind_mismatches == 0);
        assert!(lru.kind_mismatches > 0);
    }

    #[test]
    fn mattson_matches_brute_force_on_handcrafted_trace() {
        let seq = [
            (0, 1, 1, 0),
            (0, 1, 2, 1),
            (0, 1, 3, 0),
            (0, 1, 1, 2),
            (0, 1, 2, 0),
            (0, 1, 1, 0),
            (0, 2, 1, 0),
            (0, 2, 1, 0),
            (1, 1, 3, 0),
            (1, 1, 3, 1),
            (1, 1, 4, 0),
            (1, 1, 3, 0),
        ];
        let events = record(&seq, BufferPolicy::None);
        let sd = StackDistance::analyze(&events);
        assert_eq!(sd.total(), events.len() as u64);
        for cap in 0..8 {
            let brute = replay(&events, BufferPolicy::Lru(cap));
            assert_eq!(
                sd.misses_at(cap),
                brute.da_total(),
                "capacity {cap}: mattson vs brute force"
            );
        }
        // Capacity 0 = no buffer; huge capacity = only cold misses.
        assert_eq!(sd.misses_at(0), events.len() as u64);
        assert_eq!(sd.misses_at(1024), sd.cold_misses());
    }

    #[test]
    fn mattson_curve_is_monotone_non_increasing() {
        let seq: Vec<(u32, u8, u32, u8)> = (0..200u32)
            .map(|i| {
                (
                    i % 3,
                    1 + (i % 2) as u8,
                    (i * 7 + i * i / 5) % 17,
                    (i % 4) as u8,
                )
            })
            .collect();
        let events = record(&seq, BufferPolicy::None);
        let sd = StackDistance::analyze(&events);
        let mut prev = sd.misses_at(0);
        for cap in 1..=sd.saturating_capacity() + 2 {
            let m = sd.misses_at(cap);
            assert!(
                m <= prev,
                "misses rose from {prev} to {m} at capacity {cap}"
            );
            prev = m;
        }
        assert_eq!(
            sd.misses_at(sd.saturating_capacity()),
            sd.cold_misses(),
            "saturating capacity reaches the cold-miss floor"
        );
    }

    #[test]
    fn empty_trace() {
        let sd = StackDistance::analyze(&[]);
        assert_eq!(sd.total(), 0);
        assert_eq!(sd.misses_at(4), 0);
        assert_eq!(sd.saturating_capacity(), 0);
        let out = replay(&[], BufferPolicy::Path);
        assert_eq!(out.na_total(), 0);
        assert_eq!(out.kind_mismatches, 0);
    }

    #[test]
    fn replay_respects_levels_for_path_buffer() {
        // Alternating levels never evict each other under path.
        let seq = [(0, 1, 1, 0), (0, 1, 2, 1), (0, 1, 1, 0), (0, 1, 2, 1)];
        let events = record(&seq, BufferPolicy::Path);
        let out = replay(&events, BufferPolicy::Path);
        assert_eq!(out.kind_mismatches, 0);
        assert_eq!(out.stats1.da_at(0), 1);
        assert_eq!(out.stats1.da_at(1), 1);
        assert_eq!(out.stats1.na_at(0), 2);
        assert_eq!(out.stats1.na_at(1), 2);
    }

    #[test]
    fn access_kind_equality_drives_mismatch_counting() {
        assert_ne!(AccessKind::Hit, AccessKind::Miss);
    }
}
