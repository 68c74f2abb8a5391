//! The one synchronized-traversal engine behind every tree-join
//! scheduler.
//!
//! Historically the sequential executor (`executor.rs`) and the
//! parallel coordinator/workers (`parallel.rs`) each carried a private
//! near-identical copy of this recursion. The copies have been unified
//! here: one [`Engine`], constructed from the session's
//! [`crate::session::ExecContext`], owns the per-executor state (buffers,
//! access tallies, recorder lanes, match scratch, fault containment,
//! progress feed) and implements the SJ descent of \[BKS93\] Figure 2.
//! Entry matching goes through [`matched_entries`], so the match order —
//! and therefore the access order the buffers see — is identical for
//! every scheduler that instantiates an engine.

use crate::degraded::RawSkip;
use crate::executor::{matched_entries, pinned_children, JoinConfig, JoinResultSet, MatchScratch};
use crate::session::{CorrDomain, ExecContext};
use sjcm_obs::progress::ProgressSink;
use sjcm_rtree::{Child, NodeId, ObjectId, RTree};
use sjcm_storage::{AccessStats, BufferManager, FaultInjector, PageId, RecorderLane};

/// Per-executor traversal state: one engine per buffer-residency domain
/// (the sequential join, the parallel coordinator, one per worker or
/// shard). Fields are crate-visible because the schedulers merge them
/// back into one [`JoinResultSet`] after the fan-out.
pub(crate) struct Engine<'a, const N: usize> {
    pub(crate) r1: &'a RTree<N>,
    pub(crate) r2: &'a RTree<N>,
    pub(crate) buf1: Box<dyn BufferManager>,
    pub(crate) buf2: Box<dyn BufferManager>,
    pub(crate) stats1: AccessStats,
    pub(crate) stats2: AccessStats,
    pub(crate) lane1: RecorderLane,
    pub(crate) lane2: RecorderLane,
    pub(crate) pairs: Vec<(ObjectId, ObjectId)>,
    pub(crate) pair_count: u64,
    pub(crate) config: JoinConfig,
    // Reused matching buffers (candidate lists, SoA batches, bitmask).
    pub(crate) scratch: MatchScratch<N>,
    // Fault-injection oracle (disabled = one `Option` check per pair)
    // and the node pairs forfeited to permanent read failures.
    pub(crate) faults: FaultInjector,
    pub(crate) skips: Vec<RawSkip>,
    // Live progress feed — disabled is one `Option` check per access;
    // enabled adds a counter increment, with the per-level tallies
    // published in batches (see `sjcm_obs::progress`).
    pub(crate) progress: ProgressSink,
}

impl<'a, const N: usize> Engine<'a, N> {
    /// An engine wired to the context's cross-cutting concerns, with its
    /// recorder lanes on the given correlation domain.
    pub(crate) fn new(
        r1: &'a RTree<N>,
        r2: &'a RTree<N>,
        config: JoinConfig,
        ctx: &ExecContext<'_>,
        domain: CorrDomain,
    ) -> Self {
        let (lane1, lane2) = ctx.lanes(domain);
        Self {
            r1,
            r2,
            buf1: config.buffer.build(),
            buf2: config.buffer.build(),
            stats1: AccessStats::new(),
            stats2: AccessStats::new(),
            lane1,
            lane2,
            pairs: Vec::new(),
            pair_count: 0,
            config,
            scratch: MatchScratch::new(),
            faults: ctx.faults.clone(),
            skips: Vec::new(),
            progress: ctx.progress.sink(),
        }
    }

    /// Re-homes the recorder lanes onto another correlation domain (the
    /// cost-guided workers switch domains at every unit boundary — each
    /// unit is its own buffer-residency domain).
    pub(crate) fn set_domain(&mut self, domain: CorrDomain) {
        let corr = domain.corr();
        self.lane1.set_corr(corr);
        self.lane2.set_corr(corr);
    }

    /// The engine's accumulated result plus the raw (unpriced) skips.
    pub(crate) fn into_parts(self) -> (JoinResultSet, Vec<RawSkip>) {
        (
            JoinResultSet {
                pairs: self.pairs,
                pair_count: self.pair_count,
                stats1: self.stats1,
                stats2: self.stats2,
                buffers1: self.buf1.counters(),
                buffers2: self.buf2.counters(),
                ..JoinResultSet::default()
            },
            self.skips,
        )
    }

    /// Publishes the engine's cumulative per-level tallies into the
    /// progress hub (no-op when progress is disabled).
    pub(crate) fn flush_progress(&mut self) {
        if self.progress.is_enabled() {
            self.progress.flush(
                self.stats1.per_level(),
                self.stats2.per_level(),
                self.pair_count,
            );
        }
    }

    /// Probes the injector for the pair's two page reads before they
    /// are charged (root pages are memory-resident per §3.1 and never
    /// probed). Returns `false` — recording the forfeited pair — if
    /// either read fails permanently; a skipped pair charges nothing.
    /// The protocol is shared by every scheduler, so they all forfeit
    /// exactly the same pairs under the same fault plan.
    pub(crate) fn probe(&mut self, n1: NodeId, n2: NodeId) -> bool {
        if n1 != self.r1.root_id() {
            let level = self.r1.node(n1).level;
            if self.faults.access(1, PageId(n1.0), level).is_err() {
                self.skips.push(RawSkip { tree: 1, n1, n2 });
                self.progress.forfeit(level);
                return false;
            }
        }
        if n2 != self.r2.root_id() {
            let level = self.r2.node(n2).level;
            if self.faults.access(2, PageId(n2.0), level).is_err() {
                self.skips.push(RawSkip { tree: 2, n1, n2 });
                self.progress.forfeit(level);
                return false;
            }
        }
        true
    }

    pub(crate) fn access1(&mut self, id: NodeId) {
        let level = self.r1.node(id).level;
        let kind = self.buf1.access(PageId(id.0), level);
        self.stats1.record(level, kind);
        self.lane1.record(PageId(id.0), level, kind);
        if self.progress.tick() {
            self.flush_progress();
        }
    }

    pub(crate) fn access2(&mut self, id: NodeId) {
        let level = self.r2.node(id).level;
        let kind = self.buf2.access(PageId(id.0), level);
        self.stats2.record(level, kind);
        self.lane2.record(PageId(id.0), level, kind);
        if self.progress.tick() {
            self.flush_progress();
        }
    }

    fn matched(&mut self, n1_id: NodeId, n2_id: NodeId) -> Vec<(Child, Child)> {
        matched_entries(
            self.r1.node(n1_id),
            self.r2.node(n2_id),
            &self.config,
            &mut self.scratch,
        )
    }

    /// Expands the synchronized traversal breadth-first, one level per
    /// round, until the frontier holds at least `target` node pairs or
    /// nothing is expandable (every pair is leaf–leaf). Every access a
    /// sequential join would charge *above* the returned frontier is
    /// charged here, against this engine's buffers; every pair in the
    /// returned frontier has already been charged (or is the uncounted
    /// root pair), so workers must not charge unit entries again.
    ///
    /// One more round always expands *every* expandable pair, so on a
    /// shallow tree a single round can overshoot `target` straight into
    /// leaf–leaf pairs — units with no node accesses left in them, the
    /// coordinator having absorbed the whole traversal. To keep the
    /// units worth scheduling, expansion also stops early when the next
    /// round would produce only leaf–leaf pairs, provided at least
    /// `min_units` pairs are already on hand.
    ///
    /// Within a round, pairs expand in frontier order and children
    /// append in match order, so the per-level access sequence is the
    /// sequential DFS's per-level access sequence — under a path buffer
    /// (one frame per level) the intermediate-level DA is therefore
    /// *exactly* sequential.
    pub(crate) fn collect_frontier(
        &mut self,
        target: usize,
        min_units: usize,
    ) -> Vec<(NodeId, NodeId)> {
        let mut frontier = vec![(self.r1.root_id(), self.r2.root_id())];
        loop {
            if frontier.len() >= target {
                return frontier;
            }
            // All pairs in a round sit at the same level pair, so one
            // probe decides whether another round would only produce
            // I/O-free leaf–leaf units.
            if frontier.len() >= min_units
                && frontier
                    .iter()
                    .all(|&(a, b)| self.r1.node(a).level <= 1 && self.r2.node(b).level <= 1)
            {
                return frontier;
            }
            let mut next = Vec::new();
            let mut expanded = false;
            for &(a, b) in &frontier {
                let leaf1 = self.r1.node(a).is_leaf();
                let leaf2 = self.r2.node(b).is_leaf();
                match (leaf1, leaf2) {
                    (true, true) => next.push((a, b)),
                    (false, false) => {
                        expanded = true;
                        for (c1, c2) in self.matched(a, b) {
                            let (c1, c2) = (c1.node(), c2.node());
                            if self.faults.is_enabled() && !self.probe(c1, c2) {
                                continue;
                            }
                            self.access1(c1);
                            self.access2(c2);
                            next.push((c1, c2));
                        }
                    }
                    (false, true) => {
                        expanded = true;
                        let m2 = match self.r2.node(b).mbr() {
                            Some(m) => m,
                            None => continue,
                        };
                        let children = pinned_children(
                            &self.r1.node(a).entries,
                            &m2,
                            self.config.predicate,
                            self.config.kernel,
                            &mut self.scratch,
                        );
                        for c1 in children {
                            if self.faults.is_enabled() && !self.probe(c1, b) {
                                continue;
                            }
                            self.access1(c1);
                            self.access2(b);
                            next.push((c1, b));
                        }
                    }
                    (true, false) => {
                        expanded = true;
                        let m1 = match self.r1.node(a).mbr() {
                            Some(m) => m,
                            None => continue,
                        };
                        let children = pinned_children(
                            &self.r2.node(b).entries,
                            &m1,
                            self.config.predicate,
                            self.config.kernel,
                            &mut self.scratch,
                        );
                        for c2 in children {
                            if self.faults.is_enabled() && !self.probe(a, c2) {
                                continue;
                            }
                            self.access1(a);
                            self.access2(c2);
                            next.push((a, c2));
                        }
                    }
                }
            }
            frontier = next;
            if !expanded {
                return frontier;
            }
        }
    }

    /// The SJ recursion of \[BKS93\] Figure 2: four arms over the
    /// leaf-ness of the node pair. Trees of different heights pin the
    /// leaf side and keep descending the other tree, re-accessing the
    /// pinned node each step — what Eq 11 counts (and Eq 12 exploits
    /// under a path buffer).
    pub(crate) fn visit(&mut self, n1_id: NodeId, n2_id: NodeId) {
        let leaf1 = self.r1.node(n1_id).is_leaf();
        let leaf2 = self.r2.node(n2_id).is_leaf();
        let pred = self.config.predicate;
        match (leaf1, leaf2) {
            (true, true) => {
                for (c1, c2) in self.matched(n1_id, n2_id) {
                    self.pair_count += 1;
                    if self.config.collect_pairs {
                        self.pairs.push((c1.object(), c2.object()));
                    }
                }
            }
            (false, false) => {
                for (c1, c2) in self.matched(n1_id, n2_id) {
                    let (c1, c2) = (c1.node(), c2.node());
                    if self.faults.is_enabled() && !self.probe(c1, c2) {
                        continue;
                    }
                    self.access1(c1);
                    self.access2(c2);
                    self.visit(c1, c2);
                }
            }
            (false, true) => {
                let m2 = match self.r2.node(n2_id).mbr() {
                    Some(m) => m,
                    None => return,
                };
                let children = pinned_children(
                    &self.r1.node(n1_id).entries,
                    &m2,
                    pred,
                    self.config.kernel,
                    &mut self.scratch,
                );
                for c1 in children {
                    if self.faults.is_enabled() && !self.probe(c1, n2_id) {
                        continue;
                    }
                    self.access1(c1);
                    self.access2(n2_id);
                    self.visit(c1, n2_id);
                }
            }
            (true, false) => {
                let m1 = match self.r1.node(n1_id).mbr() {
                    Some(m) => m,
                    None => return,
                };
                let children = pinned_children(
                    &self.r2.node(n2_id).entries,
                    &m1,
                    pred,
                    self.config.kernel,
                    &mut self.scratch,
                );
                for c2 in children {
                    if self.faults.is_enabled() && !self.probe(n1_id, c2) {
                        continue;
                    }
                    self.access1(n1_id);
                    self.access2(c2);
                    self.visit(n1_id, c2);
                }
            }
        }
    }
}
