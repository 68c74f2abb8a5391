//! The SJ join's configuration ([`JoinConfig`] and its enums), result
//! types ([`JoinResultSet`] and the per-worker tallies), entry matching
//! ([`matched_entries`]) and the descent step built on it
//! (`child_pairs`). The traversal itself lives in the shared `engine`
//! module; [`crate::session::JoinSession`] is the way in.

use crate::degraded::RawSkip;
use crate::session::{CorrDomain, ExecContext};
use sjcm_core::join::JoinWindows;
use sjcm_geom::{mbr_of, OverlapMask, Rect, RectBatch};
use sjcm_rtree::{Child, Node, NodeId, ObjectId, RTree};
use sjcm_storage::recorder::RecordedPolicy;
use sjcm_storage::{AccessStats, BufferCounters, BufferManager, LruBuffer, NoBuffer, PathBuffer};

/// Join predicate between two object MBRs (and, during traversal,
/// between node rectangles — both predicates below are "downward
/// closed": if two node rectangles fail it, no contained pair can
/// satisfy it, so pruning is exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinPredicate {
    /// MBR intersection — the paper's `overlap`.
    Overlap,
    /// Euclidean distance between MBRs at most ε (distance join).
    WithinDistance(
        /// Distance threshold ε ≥ 0.
        f64,
    ),
}

impl JoinPredicate {
    #[inline]
    pub(crate) fn holds<const N: usize>(&self, a: &Rect<N>, b: &Rect<N>) -> bool {
        match *self {
            JoinPredicate::Overlap => a.intersects(b),
            JoinPredicate::WithinDistance(eps) => a.within_distance(b, eps),
        }
    }
}

/// Buffer scheme for both trees (each tree gets its own instance — the
/// paper's path buffer is explicitly per-tree).
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
    pub(crate) fn build(self) -> Box<dyn BufferManager> {
        match self {
            BufferPolicy::None => Box::new(NoBuffer::new()),
            BufferPolicy::Path => Box::new(PathBuffer::new()),
            BufferPolicy::Lru(cap) => Box::new(LruBuffer::new(cap)),
        }
    }

    /// The storage-layer mirror of this policy, as stamped into a
    /// recorded [`sjcm_storage::AccessTrace`] header so offline replay
    /// knows which configuration reproduces the recorded hit/miss
    /// stream.
    pub fn recorded(self) -> RecordedPolicy {
        match self {
            BufferPolicy::None => RecordedPolicy::None,
            BufferPolicy::Path => RecordedPolicy::Path,
            BufferPolicy::Lru(cap) => RecordedPolicy::Lru(cap as u32),
        }
    }
}

/// How entry-pair predicates are evaluated — the CPU side of matching.
/// Which pairs are considered, and in what order, is fixed: Figure 2's
/// loops, R2's entries outer and R1's inner, the order Eqs 8–12 derive
/// DA for.
///
/// Both kernels produce byte-identical results: the same pairs in the
/// same order, and identical NA/DA tallies (the kernel only replaces
/// predicate evaluation, never which nodes are visited). The scalar
/// kernel is kept as the reference the batched one is asserted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchKernel {
    /// One `Rect::intersects`/`within_distance` call per candidate pair
    /// — the pre-kernel reference path.
    Scalar,
    /// Batched structure-of-arrays kernels ([`sjcm_geom::RectBatch`]):
    /// node entries are transposed into per-dimension coordinate slabs
    /// once per node visit and candidates are tested 64 at a time,
    /// branch-free, so the comparison loops autovectorize.
    #[default]
    Batched,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinConfig {
    /// Buffer scheme (applied to both trees independently).
    pub buffer: BufferPolicy,
    /// Join predicate.
    pub predicate: JoinPredicate,
    /// Entry-matching kernel (scalar reference vs batched SoA).
    pub kernel: MatchKernel,
    /// When `false`, result pairs are not materialized (the experiments
    /// only need access counts; 80K×80K joins produce millions of pairs).
    pub collect_pairs: bool,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            buffer: BufferPolicy::Path,
            predicate: JoinPredicate::Overlap,
            kernel: MatchKernel::default(),
            collect_pairs: true,
        }
    }
}

/// One of a join's two trees: R1 plays the data (inner-loop) role, R2
/// the query (outer-loop) role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The data tree.
    R1,
    /// The query tree.
    R2,
}

/// Reusable scratch buffers for entry matching: the two candidate lists
/// (each node's entries that meet the other node's MBR — what the loops
/// run on) plus the SoA batch and bitmask of the batched kernel. One
/// instance lives in each executor; matching refills it per node pair,
/// so steady-state matching allocates nothing but the output.
#[derive(Debug, Default)]
pub struct MatchScratch<const N: usize> {
    entries1: Vec<(Rect<N>, Child)>,
    entries2: Vec<(Rect<N>, Child)>,
    batch1: RectBatch<N>,
    mask: OverlapMask,
}

impl<const N: usize> MatchScratch<N> {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-worker tallies of a parallel join execution (empty for the
/// sequential executor). Units are attributed to the worker they were
/// *scheduled on* (LPT seeding or round-robin deal), not to whichever
/// thread executed them after stealing, so the tallies are
/// deterministic and measure schedule quality — see the
/// `parallel` module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerTally {
    /// Work units scheduled onto this worker.
    pub units: u64,
    /// Node accesses charged by this worker's units (both trees).
    pub na: u64,
    /// Disk accesses charged by this worker's units (both trees).
    pub da: u64,
    /// Result pairs emitted by this worker's units.
    pub pair_count: u64,
}

/// Steal statistics of one *executing* thread of the cost-guided
/// parallel scheduler. Unlike [`WorkerTally`] (attributed to the
/// *planned* worker, deterministic), these describe what actually
/// happened at runtime and are **timing-dependent**: which thread
/// steals which unit is decided by the OS scheduler, so two runs of the
/// same join can report different steal tallies (their sums over all
/// threads still cover the same units).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealTally {
    /// Units this thread executed (own deque plus stolen).
    pub units_executed: u64,
    /// Units this thread obtained by stealing from another deque.
    pub units_stolen: u64,
    /// Steal attempts (victim scans), including ones lost to races.
    pub steal_attempts: u64,
    /// Queue depth of the victim deque observed at each successful
    /// steal (after removing the stolen unit).
    pub steal_queue_depths: Vec<u64>,
}

/// Result of one join execution.
#[derive(Debug, Clone, Default)]
pub struct JoinResultSet {
    /// Qualifying `(R1 object, R2 object)` pairs (empty when
    /// `collect_pairs` was off), in the sequential traversal's emission
    /// order whichever scheduler ran the join — see
    /// [`JoinSession::run`](crate::session::JoinSession::run).
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Number of qualifying pairs (tracked even when not materialized).
    pub pair_count: u64,
    /// Access tallies of tree R1 (levels use the paper convention via
    /// [`JoinResultSet::na_at_paper_level`]; raw indices are 0-based).
    pub stats1: AccessStats,
    /// Access tallies of tree R2.
    pub stats2: AccessStats,
    /// Per-worker tallies when the join ran in parallel; empty for the
    /// sequential executor (and the `threads = 1` parallel fallback).
    pub workers: Vec<WorkerTally>,
    /// Buffer hit/miss/eviction counters of tree R1's buffer(s), merged
    /// over all executors that touched the tree.
    pub buffers1: BufferCounters,
    /// Buffer counters of tree R2's buffer(s).
    pub buffers2: BufferCounters,
    /// Per-executing-thread steal statistics of a cost-guided parallel
    /// run; empty otherwise. Timing-dependent — see [`StealTally`].
    pub steals: Vec<StealTally>,
}

impl JoinResultSet {
    /// Total node accesses over both trees — the experimental `NA_total`.
    pub fn na_total(&self) -> u64 {
        self.stats1.na_total() + self.stats2.na_total()
    }

    /// Load-balance quality of a parallel run: `max_worker_na /
    /// mean_worker_na`. A perfectly balanced schedule scores 1.0; a
    /// schedule that starves all but one worker of `k` scores `k`.
    /// Returns 1.0 when no per-worker tallies were recorded.
    pub fn na_imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.na).max().unwrap_or(0) as f64;
        let mean =
            self.workers.iter().map(|w| w.na).sum::<u64>() as f64 / self.workers.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total disk accesses over both trees — the experimental `DA_total`.
    pub fn da_total(&self) -> u64 {
        self.stats1.da_total() + self.stats2.da_total()
    }

    /// Node accesses of tree `i ∈ {1, 2}` at paper level `j` (1 = leaf).
    pub fn na_at_paper_level(&self, tree: usize, j: usize) -> u64 {
        let stats = if tree == 1 {
            &self.stats1
        } else {
            &self.stats2
        };
        stats.na_at((j - 1) as u8)
    }

    /// Disk accesses of tree `i ∈ {1, 2}` at paper level `j` (1 = leaf).
    pub fn da_at_paper_level(&self, tree: usize, j: usize) -> u64 {
        let stats = if tree == 1 {
            &self.stats1
        } else {
            &self.stats2
        };
        stats.da_at((j - 1) as u8)
    }

    /// The measured counterparts of
    /// [`sjcm_core::join::join_prediction_targets`], under the same
    /// names: per tree and accessed paper level the NA and DA tallies,
    /// plus the `na.total` / `da.total` grand totals. Feed these to a
    /// `DriftMonitor` to evaluate the paper's ~15% accuracy claim on
    /// this very run.
    pub fn drift_observations(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (tree, stats) in [(1, &self.stats1), (2, &self.stats2)] {
            if let Some(top) = stats.max_level() {
                for idx in 0..=top {
                    let j = idx as usize + 1;
                    out.push((sjcm_core::join::na_target(tree, j), stats.na_at(idx) as f64));
                    out.push((sjcm_core::join::da_target(tree, j), stats.da_at(idx) as f64));
                }
            }
        }
        out.push(("na.total".to_string(), self.na_total() as f64));
        out.push(("da.total".to_string(), self.da_total() as f64));
        out
    }
}

/// Figure 2 from the root pair, verbatim: the session's `Sequential`
/// scheduler and the parallel `threads = 1` fallback when no governor
/// gates the run, and the reference every other executor is tested
/// against. Returns the result set plus the raw (unpriced) skip records.
pub(crate) fn run_sequential<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    windows: JoinWindows<N>,
    ctx: &ExecContext<'_>,
) -> (JoinResultSet, Vec<RawSkip>) {
    let mut exec =
        crate::engine::Engine::new(r1, r2, config, windows, ctx, CorrDomain::Coordinator);
    // The roots are assumed memory-resident (§3.1) and are not counted.
    exec.visit(r1.root_id(), r2.root_id());
    exec.flush_progress();
    exec.into_parts()
}

/// The one descent step of SJ (\[BKS93\] Figure 2): the matched child
/// pairs of node pair `(n1, n2)`, in match order, for all four arms
/// over the pair's leaf-ness. Two leaves yield object pairs, two
/// internal nodes yield node pairs; when only one side is a leaf it is
/// pinned — paired, as a node, with every child of the other side that
/// meets its MBR — so the taller tree keeps descending against it. What
/// is done with each pair (emit, charge and recurse, queue as a work
/// unit) is the caller's business; which pairs there are is decided
/// here and nowhere else — the query windows included: an entry of a
/// windowed tree that misses its window is in no pair, at any level, so
/// the traversal never enters a subtree the window excludes and the
/// object pairs that come out are exactly the unwindowed join's whose
/// windowed objects meet their windows, in the unwindowed order.
pub(crate) fn child_pairs<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    (n1_id, n2_id): (NodeId, NodeId),
    config: &JoinConfig,
    windows: &JoinWindows<N>,
    scratch: &mut MatchScratch<N>,
) -> Vec<(Child, Child)> {
    let (n1, n2) = (r1.node(n1_id), r2.node(n2_id));
    let (pin1, pin2) = (Child::Node(n1_id), Child::Node(n2_id));
    let [w1, w2] = windows;
    match (n1.is_leaf(), n2.is_leaf()) {
        (true, true) | (false, false) => match_entries(n1, n2, config, windows, scratch),
        (false, true) => pinned_children((n1, w1), (n2, w2), config, scratch, |c1| (c1, pin2)),
        (true, false) => pinned_children((n2, w2), (n1, w1), config, scratch, |c2| (pin1, c2)),
    }
}

/// The height-mismatch arms of [`child_pairs`]: `pair(child)` for every
/// child of `node` whose rectangle satisfies the predicate against the
/// MBR of the single `pinned` leaf (and meets `node`'s window, if its
/// tree has one), in entry order. A windowed pinned leaf stands in with
/// the MBR of its entries that meet the window — what is left of it for
/// this query. The batched kernel and the scalar filter agree exactly —
/// both predicates are symmetric, so one-vs-many masking is just the
/// scalar loop with the comparisons vectorized.
fn pinned_children<const N: usize>(
    (node, window): (&Node<N>, &Option<Rect<N>>),
    (pinned, pinned_window): (&Node<N>, &Option<Rect<N>>),
    config: &JoinConfig,
    scratch: &mut MatchScratch<N>,
    pair: impl Fn(Child) -> (Child, Child),
) -> Vec<(Child, Child)> {
    let bound = match pinned_window {
        None => pinned.mbr(),
        Some(w) => mbr_of(
            pinned
                .entries
                .iter()
                .map(|e| e.rect)
                .filter(|r| r.intersects(w)),
        ),
    };
    let Some(mbr) = bound else {
        return Vec::new();
    };
    let (entries, predicate) = (&node.entries, config.predicate);
    let in_window = |r: &Rect<N>| window.as_ref().is_none_or(|w| r.intersects(w));
    match config.kernel {
        MatchKernel::Scalar => entries
            .iter()
            .filter(|e| predicate.holds(&e.rect, &mbr) && in_window(&e.rect))
            .map(|e| pair(e.child))
            .collect(),
        MatchKernel::Batched => {
            let MatchScratch { batch1, mask, .. } = scratch;
            batch1.clear();
            batch1.extend(entries.iter().map(|e| e.rect));
            match predicate {
                JoinPredicate::Overlap => batch1.overlap_mask(&mbr, 0, batch1.len(), mask),
                JoinPredicate::WithinDistance(eps) => {
                    batch1.within_mask(&mbr, eps, 0, batch1.len(), mask)
                }
            }
            mask.iter_set()
                .filter(|&i| in_window(&entries[i].rect))
                .map(|i| pair(entries[i].child))
                .collect()
        }
    }
}

/// Entry pairs of two nodes satisfying the configured predicate, in
/// Figure 2's order (R2's entries outer, R1's inner), evaluated by the
/// configured kernel. Shared between the sequential executor and the
/// parallel coordinator/workers so both traversals match entries in
/// exactly the same order (which the DA comparisons rely on); the
/// kernel choice never changes which pairs come back or their order,
/// only how the rectangle comparisons are evaluated.
///
/// Matching runs on the *restricted* entry lists of \[BKS93\]: an entry
/// of `n1` is a candidate only if it satisfies the predicate against
/// `n2`'s MBR, and vice versa. The restriction is exact — every entry
/// `e2` of `n2` lies inside `mbr(n2)`, and both predicates are downward
/// closed, so `e1` matching `e2` implies `e1` matching `mbr(n2)` (in
/// floating point too: the per-dimension gaps to the MBR are never
/// larger) — and order-preserving, so the surviving pairs come back in
/// the order the unrestricted loops would have produced them.
///
/// This is the traversal's matching step with no query window, for
/// callers outside the traversal.
pub fn matched_entries<const N: usize>(
    n1: &Node<N>,
    n2: &Node<N>,
    config: &JoinConfig,
    scratch: &mut MatchScratch<N>,
) -> Vec<(Child, Child)> {
    match_entries(n1, n2, config, &[None, None], scratch)
}

/// [`matched_entries`] under the join's query windows. A window is one
/// more conjunct of the same restriction: a candidate of a windowed tree
/// must also meet its window, and the other side is then restricted
/// against the MBR of the *surviving* candidates instead of the whole
/// node's — exact by the same argument (whatever matches a survivor
/// matches their MBR), and all the pruning the window allows without
/// knowing how far an object may reach beyond it. With no window the
/// two passes are the unwindowed ones and nothing else runs.
fn match_entries<const N: usize>(
    n1: &Node<N>,
    n2: &Node<N>,
    config: &JoinConfig,
    [w1, w2]: &JoinWindows<N>,
    scratch: &mut MatchScratch<N>,
) -> Vec<(Child, Child)> {
    let (Some(m1), Some(m2)) = (n1.mbr(), n2.mbr()) else {
        return Vec::new();
    };
    let predicate = config.predicate;
    let restrict = |node: &Node<N>,
                    other: &Rect<N>,
                    window: &Option<Rect<N>>,
                    out: &mut Vec<(Rect<N>, Child)>| {
        out.clear();
        let matching = node
            .entries
            .iter()
            .filter(|e| predicate.holds(&e.rect, other))
            .map(|e| (e.rect, e.child));
        match window {
            None => out.extend(matching),
            Some(w) => out.extend(matching.filter(|(r, _)| r.intersects(w))),
        }
    };
    let survivors = |list: &[(Rect<N>, Child)]| mbr_of(list.iter().map(|e| e.0));
    restrict(n1, &m2, w1, &mut scratch.entries1);
    let bound1 = if w1.is_some() {
        survivors(&scratch.entries1)
    } else {
        Some(m1)
    };
    let Some(bound1) = bound1 else {
        return Vec::new();
    };
    restrict(n2, &bound1, w2, &mut scratch.entries2);
    if w2.is_some() {
        let Some(bound2) = survivors(&scratch.entries2) else {
            return Vec::new();
        };
        scratch
            .entries1
            .retain(|(r, _)| predicate.holds(r, &bound2));
    }
    if scratch.entries1.is_empty() || scratch.entries2.is_empty() {
        return Vec::new();
    }
    match config.kernel {
        MatchKernel::Scalar => {
            let mut out = Vec::new();
            // Figure 2: R2's entries drive the outer loop.
            for (r2, c2) in &scratch.entries2 {
                for (r1, c1) in &scratch.entries1 {
                    if predicate.holds(r1, r2) {
                        out.push((*c1, *c2));
                    }
                }
            }
            out
        }
        MatchKernel::Batched => {
            // Same loops, inner loop vectorized: batch R1's candidates
            // once, test each R2 candidate against all of them.
            // Ascending mask bits reproduce the inner loop's entry order.
            let MatchScratch {
                entries1,
                entries2,
                batch1,
                mask,
            } = scratch;
            batch1.clear();
            batch1.extend(entries1.iter().map(|e| e.0));
            let mut out = Vec::new();
            for (r2, c2) in entries2.iter() {
                match predicate {
                    JoinPredicate::Overlap => batch1.overlap_mask(r2, 0, batch1.len(), mask),
                    JoinPredicate::WithinDistance(eps) => {
                        batch1.within_mask(r2, eps, 0, batch1.len(), mask)
                    }
                }
                for i in mask.iter_set() {
                    out.push((entries1[i].1, *c2));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::JoinSession;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_rtree::RTreeConfig;

    fn random_items(n: usize, side: f64, seed: u64) -> Vec<(Rect<2>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx: f64 = rng.gen_range(0.0..1.0);
                let cy: f64 = rng.gen_range(0.0..1.0);
                (
                    Rect::centered(sjcm_geom::Point::new([cx, cy]), [side, side]),
                    ObjectId(i as u32),
                )
            })
            .collect()
    }

    fn build(items: &[(Rect<2>, ObjectId)], cap: usize) -> RTree<2> {
        let mut tree = RTree::new(RTreeConfig::with_capacity(cap));
        for &(r, id) in items {
            tree.insert(r, id);
        }
        tree
    }

    /// The sequential join through the session — what every test here
    /// runs.
    fn sj(r1: &RTree<2>, r2: &RTree<2>, config: JoinConfig) -> JoinResultSet {
        JoinSession::new(r1, r2)
            .config(config)
            .run()
            .expect("ungoverned join cannot fail")
            .result
    }

    fn brute_force(
        a: &[(Rect<2>, ObjectId)],
        b: &[(Rect<2>, ObjectId)],
        pred: JoinPredicate,
    ) -> Vec<(ObjectId, ObjectId)> {
        let mut out = Vec::new();
        for &(r1, id1) in a {
            for &(r2, id2) in b {
                if pred.holds(&r1, &r2) {
                    out.push((id1, id2));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn join_matches_brute_force() {
        let a = random_items(400, 0.02, 1);
        let b = random_items(300, 0.03, 2);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let mut got = sj(&ta, &tb, JoinConfig::default()).pairs;
        got.sort();
        assert_eq!(got, brute_force(&a, &b, JoinPredicate::Overlap));
    }

    #[test]
    fn join_matches_brute_force_different_heights() {
        let a = random_items(2_000, 0.01, 3); // deep tree with cap 8
        let b = random_items(60, 0.05, 4); // shallow tree
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        assert!(ta.height() > tb.height());
        let mut got = sj(&ta, &tb, JoinConfig::default()).pairs;
        got.sort();
        assert_eq!(got, brute_force(&a, &b, JoinPredicate::Overlap));
        // And with roles swapped (shorter data tree).
        let mut got = sj(&tb, &ta, JoinConfig::default()).pairs;
        got.sort();
        assert_eq!(got, brute_force(&b, &a, JoinPredicate::Overlap));
    }

    #[test]
    fn distance_join_matches_brute_force() {
        let a = random_items(200, 0.01, 7);
        let b = random_items(200, 0.01, 8);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let pred = JoinPredicate::WithinDistance(0.05);
        let mut got = sj(
            &ta,
            &tb,
            JoinConfig {
                predicate: pred,
                ..JoinConfig::default()
            },
        )
        .pairs;
        got.sort();
        assert_eq!(got, brute_force(&a, &b, pred));
    }

    #[test]
    fn da_bounded_by_na_under_every_policy() {
        let a = random_items(1_000, 0.015, 9);
        let b = random_items(1_000, 0.015, 10);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let mut last_pairs: Option<u64> = None;
        for policy in [
            BufferPolicy::None,
            BufferPolicy::Path,
            BufferPolicy::Lru(64),
        ] {
            let r = sj(
                &ta,
                &tb,
                JoinConfig {
                    buffer: policy,
                    collect_pairs: false,
                    ..JoinConfig::default()
                },
            );
            assert!(r.da_total() <= r.na_total(), "{policy:?}");
            assert!(r.stats1.da_bounded_by_na());
            assert!(r.stats2.da_bounded_by_na());
            // Results are independent of buffering.
            if let Some(p) = last_pairs {
                assert_eq!(p, r.pair_count);
            }
            last_pairs = Some(r.pair_count);
        }
    }

    #[test]
    fn no_buffer_means_da_equals_na() {
        let a = random_items(500, 0.02, 11);
        let b = random_items(500, 0.02, 12);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let r = sj(
            &ta,
            &tb,
            JoinConfig {
                buffer: BufferPolicy::None,
                ..JoinConfig::default()
            },
        );
        assert_eq!(r.na_total(), r.da_total());
    }

    #[test]
    fn na_symmetric_between_trees() {
        // Each pair visit accesses one node of each tree, so the two
        // trees' NA tallies are identical (the paper's Eq 6 remark).
        let a = random_items(800, 0.02, 13);
        let b = random_items(400, 0.02, 14);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        if ta.height() == tb.height() {
            let r = sj(&ta, &tb, JoinConfig::default());
            assert_eq!(r.stats1.na_total(), r.stats2.na_total());
        }
    }

    #[test]
    fn lru_beats_path_beats_none() {
        let a = random_items(1_500, 0.01, 15);
        let b = random_items(1_500, 0.01, 16);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let run = |policy| {
            sj(
                &ta,
                &tb,
                JoinConfig {
                    buffer: policy,
                    collect_pairs: false,
                    ..JoinConfig::default()
                },
            )
            .da_total()
        };
        let none = run(BufferPolicy::None);
        let path = run(BufferPolicy::Path);
        let lru = run(BufferPolicy::Lru(512));
        assert!(path < none, "path {path} vs none {none}");
        assert!(lru <= path, "lru {lru} vs path {path}");
    }

    #[test]
    fn roots_are_not_counted() {
        // Two small trees of height 1: the join touches only the
        // (memory-resident) roots, so NA = DA = 0.
        let a = random_items(5, 0.8, 19);
        let b = random_items(5, 0.8, 20);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        assert_eq!(ta.height(), 1);
        let r = sj(&ta, &tb, JoinConfig::default());
        assert_eq!(r.na_total(), 0);
        assert_eq!(r.da_total(), 0);
        assert!(!r.pairs.is_empty(), "objects do overlap");
    }

    #[test]
    fn empty_tree_join_is_empty() {
        let empty = RTree::<2>::new(RTreeConfig::with_capacity(8));
        let b = build(&random_items(100, 0.05, 21), 8);
        let r = sj(&empty, &b, JoinConfig::default());
        assert_eq!(r.pair_count, 0);
        assert_eq!(r.na_total(), 0);
        let r = sj(&b, &empty, JoinConfig::default());
        assert_eq!(r.pair_count, 0);
    }

    #[test]
    fn pair_count_tracked_without_materialization() {
        let a = random_items(300, 0.03, 22);
        let b = random_items(300, 0.03, 23);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let with = sj(&ta, &tb, JoinConfig::default());
        let without = sj(
            &ta,
            &tb,
            JoinConfig {
                collect_pairs: false,
                ..JoinConfig::default()
            },
        );
        assert_eq!(with.pair_count, with.pairs.len() as u64);
        assert_eq!(with.pair_count, without.pair_count);
        assert!(without.pairs.is_empty());
    }

    #[test]
    fn paper_level_accessors() {
        let a = random_items(2_000, 0.01, 24);
        let b = random_items(2_000, 0.01, 25);
        let ta = build(&a, 8);
        let tb = build(&b, 8);
        let r = sj(&ta, &tb, JoinConfig::default());
        let h = ta.height();
        // Roots (paper level h) are never accessed.
        assert_eq!(r.na_at_paper_level(1, h), 0);
        // Leaf level (paper level 1) accessed plenty.
        assert!(r.na_at_paper_level(1, 1) > 0);
        assert!(r.da_at_paper_level(2, 1) <= r.na_at_paper_level(2, 1));
    }
}
