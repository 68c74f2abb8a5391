//! The one synchronized traversal behind every tree-join executor.
//!
//! One [`Engine`] per buffer-residency domain (the sequential join, the
//! cost-guided coordinator and each of its workers, each dealt shard),
//! constructed from the session's [`crate::session::ExecContext`], owns
//! the per-executor state — buffers, access tallies, recorder lanes,
//! match scratch, fault containment, progress feed — and the two things
//! every descent of \[BKS93\] Figure 2 is made of:
//!
//! * **which child pairs a node pair has** —
//!   [`child_pairs`](crate::executor::child_pairs), the only place that
//!   looks at the leaf-ness of a pair, so the match order (and therefore
//!   the access order the buffers see) is the same wherever it is used;
//! * **what reading a child pair costs** — [`Engine::charge`]: the
//!   fault probe, then one access per tree through buffer, tallies,
//!   recorder and progress feed. A pinned node is charged at every step
//!   (Eq 11), whether or not it is a root.
//!
//! The three ways to walk the tree are short consumers of those two:
//! [`Engine::visit`] recurses depth-first (the sequential join, and
//! every work unit from its entry pair down),
//! [`Engine::collect_frontier`] expands breadth-first until it holds
//! enough charged pairs to schedule, and the dealt executor
//! (`parallel::dealt_join`) takes the root pair's child pairs as its
//! units and charges each at its gate.

use crate::degraded::RawSkip;
use crate::executor::{child_pairs, JoinConfig, JoinResultSet, MatchScratch};
use crate::session::{CorrDomain, ExecContext};
use sjcm_core::join::JoinWindows;
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
    // The query windows every descent step restricts by.
    pub(crate) windows: JoinWindows<N>,
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
        windows: JoinWindows<N>,
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
            windows,
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

    /// The pair's matched child pairs — see [`child_pairs`].
    fn child_pairs(&mut self, n1: NodeId, n2: NodeId) -> Vec<(Child, Child)> {
        child_pairs(
            self.r1,
            self.r2,
            (n1, n2),
            &self.config,
            &self.windows,
            &mut self.scratch,
        )
    }

    /// Charges the read of node pair `(n1, n2)`: the fault probe first,
    /// then one access per tree. Returns `false` — the pair forfeited,
    /// nothing charged — when the probe loses either page. There is no
    /// root exemption here: a root only ever appears in a child pair as
    /// the pinned side of a height mismatch, and Eq 11 counts a pinned
    /// node's re-access at every step, root or not. (The root pair
    /// itself is never charged because nothing ever passes it here —
    /// §3.1 — and [`Engine::probe`] keeps its own rule that the
    /// memory-resident roots cannot fault.)
    pub(crate) fn charge(&mut self, n1: NodeId, n2: NodeId) -> bool {
        if self.faults.is_enabled() && !self.probe(n1, n2) {
            return false;
        }
        self.access1(n1);
        self.access2(n2);
        true
    }

    /// Outputs one qualifying object pair.
    pub(crate) fn emit(&mut self, o1: ObjectId, o2: ObjectId) {
        self.pair_count += 1;
        if self.config.collect_pairs {
            self.pairs.push((o1, o2));
        }
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
                if self.r1.node(a).is_leaf() && self.r2.node(b).is_leaf() {
                    next.push((a, b));
                    continue;
                }
                expanded = true;
                for (c1, c2) in self.child_pairs(a, b) {
                    let (c1, c2) = (c1.node(), c2.node());
                    if self.charge(c1, c2) {
                        next.push((c1, c2));
                    }
                }
            }
            frontier = next;
            if !expanded {
                return frontier;
            }
        }
    }

    /// The SJ recursion of \[BKS93\] Figure 2 from node pair
    /// `(n1, n2)` down: object pairs are output, node pairs are read
    /// and descended into. Trees of different heights pin the leaf side
    /// and keep descending the other tree, re-accessing the pinned node
    /// each step — what Eq 11 counts (and Eq 12 exploits under a path
    /// buffer).
    pub(crate) fn visit(&mut self, n1: NodeId, n2: NodeId) {
        for pair in self.child_pairs(n1, n2) {
            match pair {
                (Child::Object(o1), Child::Object(o2)) => self.emit(o1, o2),
                (c1, c2) => {
                    let (c1, c2) = (c1.node(), c2.node());
                    if self.charge(c1, c2) {
                        self.visit(c1, c2);
                    }
                }
            }
        }
    }
}
