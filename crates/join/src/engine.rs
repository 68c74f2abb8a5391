//! The one synchronized traversal behind every tree-join executor.
//!
//! One [`Engine`] per buffer-residency domain (the sequential join, the
//! cost-guided coordinator and each of its workers, each dealt shard),
//! constructed from the session's [`crate::session::ExecContext`], owns
//! the per-executor state — buffers, access tallies, recorder lanes,
//! match scratch, progress feed — and the two things
//! every descent of \[BKS93\] Figure 2 is made of:
//!
//! * **which child pairs a node pair has** —
//!   [`child_pairs`](crate::executor::child_pairs), the only place that
//!   looks at the leaf-ness of a pair, so the match order (and therefore
//!   the access order the buffers see) is the same wherever it is used;
//! * **what reading a child pair costs** — [`Engine::charge`]: one
//!   access per tree through buffer, tallies, recorder and progress
//!   feed. A pinned node is charged at every step
//!   (Eq 11), whether or not it is a root.
//!
//! The three ways to walk the tree are short consumers of those two:
//! [`Engine::visit`] walks depth-first on one explicit stack the engine
//! reuses (the sequential join, and every work unit from its entry pair
//! down), [`Engine::collect_frontier`] expands breadth-first until it
//! holds enough charged pairs to schedule, and the dealt executor
//! (`parallel::dealt_join`) takes the root pair's child pairs as its
//! units and charges each at its gate.
//!
//! `visit` charges a pair when it pops it and pushes the pair's child
//! pairs in reverse match order, so charges, recorder and progress
//! events and emitted pairs come in exactly the order of the recursion
//! it replaced. Node pairs carry R2's rectangle down from their parent
//! entry (see [`NodePair`]), so only the root pair and a unit's entry
//! pair compute an MBR, and a leaf pair's object pairs go straight into
//! the engine's result: nothing is allocated per node pair.

use crate::executor::{child_pairs, JoinConfig, JoinResultSet, MatchScratch, NodePair};
use crate::session::{CorrDomain, ExecContext};
use sjcm_core::join::JoinWindows;
use sjcm_obs::progress::ProgressSink;
use sjcm_rtree::{NodeId, ObjectId, RTree};
use sjcm_storage::{AccessStats, BufferManager, PageId, RecorderLane};

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
    // The depth-first stack `visit` reuses.
    stack: Vec<NodePair<N>>,
    // Test builds only: `visit` runs the recursion it replaced.
    #[cfg(test)]
    pub(crate) reference: bool,
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
            stack: Vec::new(),
            #[cfg(test)]
            reference: ctx.reference,
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

    /// The engine's accumulated result.
    pub(crate) fn into_result(self) -> JoinResultSet {
        JoinResultSet {
            pairs: self.pairs,
            pair_count: self.pair_count,
            stats1: self.stats1,
            stats2: self.stats2,
            ..JoinResultSet::default()
        }
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

    /// Appends the pair's child node pairs to `nodes` in match order and
    /// outputs its object pairs in place — see [`child_pairs`].
    fn descend(&mut self, pair: &NodePair<N>, nodes: &mut Vec<NodePair<N>>) {
        let (pairs, count) = (&mut self.pairs, &mut self.pair_count);
        let collect = self.config.collect_pairs;
        child_pairs(
            (self.r1, self.r2),
            pair,
            &self.config,
            &self.windows,
            &mut self.scratch,
            |o1, o2| {
                *count += 1;
                if collect {
                    pairs.push((o1, o2));
                }
            },
            nodes,
        );
    }

    /// Charges the read of node pair `(n1, n2)`: one access per tree.
    /// There is no root exemption here: a root only ever appears in a
    /// child pair as the pinned side of a height mismatch, and Eq 11
    /// counts a pinned node's re-access at every step, root or not. (The
    /// root pair itself is never charged because nothing ever passes it
    /// here — §3.1.)
    pub(crate) fn charge(&mut self, n1: NodeId, n2: NodeId) {
        self.access1(n1);
        self.access2(n2);
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
        let (root1, root2) = (self.r1.root_id(), self.r2.root_id());
        let mut frontier = vec![NodePair::entered(self.r2, root1, root2)];
        let mut children = Vec::new();
        loop {
            // All pairs in a round sit at the same level pair, so one
            // probe decides whether another round would only produce
            // I/O-free leaf–leaf units.
            if frontier.len() >= target
                || frontier.len() >= min_units
                    && frontier
                        .iter()
                        .all(|p| self.r1.node(p.n1).level <= 1 && self.r2.node(p.n2).level <= 1)
            {
                break;
            }
            let mut next = Vec::new();
            let mut expanded = false;
            for pair in &frontier {
                if self.r1.node(pair.n1).is_leaf() && self.r2.node(pair.n2).is_leaf() {
                    next.push(*pair);
                    continue;
                }
                expanded = true;
                children.clear();
                self.descend(pair, &mut children);
                for child in &children {
                    self.charge(child.n1, child.n2);
                    next.push(*child);
                }
            }
            frontier = next;
            if !expanded {
                break;
            }
        }
        frontier.iter().map(|p| (p.n1, p.n2)).collect()
    }

    /// The SJ traversal of \[BKS93\] Figure 2 from node pair
    /// `(n1, n2)` down, which is not charged here: object pairs are
    /// output, node pairs are read and descended into. Trees of
    /// different heights pin the leaf side and keep descending the
    /// other tree, re-accessing the pinned node each step — what Eq 11
    /// counts (and Eq 12 exploits under a path buffer). Depth-first on
    /// the engine's one stack, in the order a recursion over
    /// [`child_pairs`] would take — see the module docs.
    pub(crate) fn visit(&mut self, n1: NodeId, n2: NodeId) {
        #[cfg(test)]
        if self.reference {
            return self.visit_reference(n1, n2);
        }
        let mut stack = std::mem::take(&mut self.stack);
        self.push_children(&NodePair::entered(self.r2, n1, n2), &mut stack);
        while let Some(pair) = stack.pop() {
            self.charge(pair.n1, pair.n2);
            self.push_children(&pair, &mut stack);
        }
        self.stack = stack;
    }

    /// [`Engine::descend`] onto the depth-first stack: the children go
    /// on in reverse, so they pop in match order.
    fn push_children(&mut self, pair: &NodePair<N>, stack: &mut Vec<NodePair<N>>) {
        let base = stack.len();
        self.descend(pair, stack);
        stack[base..].reverse();
    }
}
