//! The SJ join's configuration ([`JoinConfig`] and its enums), result
//! types ([`JoinResultSet`] and the per-worker tallies), entry matching
//! ([`matched_entries`]) and the descent step built on it
//! (`child_pairs`), which writes what it finds into its caller's
//! buffers and allocates nothing per node pair. The traversal itself
//! lives in the shared `engine` module; [`crate::session::JoinSession`]
//! is the way in.

use crate::session::{CorrDomain, ExecContext};
use sjcm_core::join::JoinWindows;
use sjcm_geom::{mbr_of, Rect};
use sjcm_rtree::{Child, Entry, Node, NodeId, ObjectId, RTree};
use sjcm_storage::AccessStats;
pub use sjcm_storage::BufferPolicy;

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
        /// Distance threshold ε ≥ 0 (`+∞` included); a negative or NaN
        /// ε is [`JoinError::InvalidDistance`](crate::JoinError::InvalidDistance).
        f64,
    ),
}

impl JoinPredicate {
    /// Whether `a` and `b` satisfy the predicate: [`Rect::intersects`]
    /// or [`Rect::within_distance`], both branch-free.
    #[inline(always)]
    pub(crate) fn holds<const N: usize>(&self, a: &Rect<N>, b: &Rect<N>) -> bool {
        match *self {
            JoinPredicate::Overlap => a.intersects(b),
            JoinPredicate::WithinDistance(eps) => a.within_distance(b, eps),
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
    /// Survivor mask words: both nodes are restricted without a branch
    /// into entry indices, only R1's survivors' rectangles are copied
    /// out (into the executor's [`MatchScratch`]), and each surviving R2
    /// entry is tested against them one `u64` mask word per 64, every
    /// bit set without a branch; the word's set bits are emitted in
    /// ascending order. A node pair's survivors are few (about 9 of 33
    /// entries a side on the paper's packed leaves), so nothing is
    /// transposed into lanes.
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
/// — R1's candidates as entry indices plus, for the batched kernel,
/// copies of their rectangles; R2's (or a pinned arm's) as entry
/// indices. One instance lives in each executor; matching refills it
/// per node pair, so steady-state matching allocates nothing.
#[derive(Debug, Default)]
pub struct MatchScratch<const N: usize> {
    rects1: Vec<Rect<N>>,
    idx1: Vec<u32>,
    idx2: Vec<u32>,
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

    /// The measured counterparts of
    /// [`sjcm_core::join::join_prediction_targets`], under the same
    /// names: per tree and accessed paper level the NA and DA tallies,
    /// plus the `na.total` / `da.total` grand totals. Hand these to
    /// `sjcm_obs::drift::evaluate` to check the paper's ~15% accuracy
    /// claim on this very run.
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
/// against.
pub(crate) fn run_sequential<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    windows: JoinWindows<N>,
    ctx: &ExecContext,
) -> JoinResultSet {
    let mut exec =
        crate::engine::Engine::new(r1, r2, config, windows, ctx, CorrDomain::Coordinator);
    // The roots are assumed memory-resident (§3.1) and are not counted.
    exec.visit(r1.root_id(), r2.root_id());
    exec.flush_progress();
    exec.into_result()
}

/// A node pair of the traversal, carrying the rectangle its R2 node is
/// matched against: the rectangle of the R2 entry that points at the
/// node. On packed and insertion-built trees, saved and loaded or not
/// (outward `f32` rounding is monotone), that is the node's MBR bit for
/// bit; in any case it contains all of the node's entries — all
/// [`match_entries`]'s restriction needs, and what `RTree::load`
/// refuses a file for breaking. R1's node carries none: R2's entries
/// are restricted against the tighter MBR of R1's surviving entries,
/// so an R1 rectangle would never be read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodePair<const N: usize> {
    pub(crate) n1: NodeId,
    pub(crate) n2: NodeId,
    pub(crate) rect2: Rect<N>,
}

impl<const N: usize> NodePair<N> {
    /// A pair entered without a parent entry — the root pair or a
    /// scheduled unit's entry pair — whose R2 rectangle is therefore
    /// computed: the node's MBR (any rectangle contains the entries of
    /// an empty node, which only an empty tree's root is).
    pub(crate) fn entered(r2: &RTree<N>, n1: NodeId, n2: NodeId) -> Self {
        let rect2 = r2.node(n2).mbr().unwrap_or_else(Rect::unit);
        NodePair { n1, n2, rect2 }
    }
}

/// The one descent step of SJ (\[BKS93\] Figure 2): the matched child
/// pairs of `pair`, in match order, for all four arms over the pair's
/// leaf-ness, written into the caller's buffers. Two leaves hand their
/// object pairs to `emit`; two internal nodes append their node pairs
/// to `nodes`, each carrying its R2 child's entry rectangle; when only
/// one side is a leaf it is pinned — paired, as a node, with every child
/// of the other side that meets its MBR — so the taller tree keeps
/// descending against it. What is done with each pair (emit, charge and
/// descend, queue as a work unit) is the caller's business; which pairs
/// there are is decided here and nowhere else — the query windows
/// included: an entry of a windowed tree that misses its window is in
/// no pair, at any level, so the traversal never enters a subtree the
/// window excludes and the object pairs that come out are exactly the
/// unwindowed join's whose windowed objects meet their windows, in the
/// unwindowed order.
pub(crate) fn child_pairs<const N: usize>(
    (r1, r2): (&RTree<N>, &RTree<N>),
    pair: &NodePair<N>,
    config: &JoinConfig,
    windows: &JoinWindows<N>,
    scratch: &mut MatchScratch<N>,
    mut emit: impl FnMut(ObjectId, ObjectId),
    nodes: &mut Vec<NodePair<N>>,
) {
    let (n1, n2) = (r1.node(pair.n1), r2.node(pair.n2));
    let side2 = (n2, &pair.rect2);
    let [w1, w2] = windows;
    match (n1.is_leaf(), n2.is_leaf()) {
        (true, true) => match_entries(n1, side2, config, windows, scratch, |e1, e2| {
            emit(e1.child.object(), e2.child.object())
        }),
        (false, false) => match_entries(n1, side2, config, windows, scratch, |e1, e2| {
            nodes.push(NodePair {
                n1: e1.child.node(),
                n2: e2.child.node(),
                rect2: e2.rect,
            })
        }),
        (false, true) => pinned_children((n1, w1), (n2, w2), config.predicate, scratch, |e1| {
            nodes.push(NodePair {
                n1: e1.child.node(),
                ..*pair
            })
        }),
        (true, false) => pinned_children((n2, w2), (n1, w1), config.predicate, scratch, |e2| {
            nodes.push(NodePair {
                n1: pair.n1,
                n2: e2.child.node(),
                rect2: e2.rect,
            })
        }),
    }
}

/// The height-mismatch arms of [`child_pairs`]: `child(entry)` for every
/// entry of `node` whose rectangle satisfies the predicate against the
/// MBR of the single `pinned` leaf (and meets `node`'s window, if its
/// tree has one), in entry order. A windowed pinned leaf stands in with
/// the MBR of its entries that meet the window — what is left of it for
/// this query. The test decides which child pairs exist, and so what
/// Eq 11 counts, so it is made against the MBR computed here and never
/// against a carried rectangle, which may be looser. Both kernels take
/// the same path: the entries are [`compact`]ed straight into the
/// scratch indices, reading each entry once, the window test one more
/// conjunct of `keep`.
fn pinned_children<const N: usize>(
    (node, window): (&Node<N>, &Option<Rect<N>>),
    (pinned, pinned_window): (&Node<N>, &Option<Rect<N>>),
    predicate: JoinPredicate,
    scratch: &mut MatchScratch<N>,
    mut child: impl FnMut(&Entry<N>),
) {
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
        return;
    };
    let pass = |r: &Rect<N>| predicate.holds(r, &mbr);
    let idx = &mut scratch.idx2;
    let kept = match window {
        None => compact(&node.entries, idx, pass),
        Some(w) => compact(&node.entries, idx, |r| pass(r) & r.intersects(w)),
    };
    for &i in &idx[..kept] {
        child(&node.entries[i as usize]);
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
/// Matching runs on the *restricted* entry lists of \[BKS93\], computed
/// by the code the traversal runs with `n2.mbr()` as R2's rectangle —
/// see `match_entries`. `n1`'s own MBR is never needed.
pub fn matched_entries<const N: usize>(
    n1: &Node<N>,
    n2: &Node<N>,
    config: &JoinConfig,
    scratch: &mut MatchScratch<N>,
) -> Vec<(Child, Child)> {
    let mut out = Vec::new();
    if let Some(rect2) = n2.mbr() {
        match_entries(
            n1,
            (n2, &rect2),
            config,
            &[None, None],
            scratch,
            |e1, e2| out.push((e1.child, e2.child)),
        );
    }
    out
}

/// [`matched_entries`] as the traversal runs it: `hit(e1, e2)` for every
/// matching entry pair, under the join's query windows, with `rect2`
/// any rectangle containing `n2`'s entries (the carried one).
///
/// An entry of `n1` is a candidate only if it satisfies the predicate
/// against `rect2`; an entry of `n2` only if it satisfies it against
/// the MBR of `n1`'s candidates. Both restrictions are exact — whatever
/// matches an entry matches every rectangle containing that entry,
/// both predicates being downward closed (in floating point too: the
/// per-dimension gaps to a containing rectangle are never larger) — and
/// order-preserving, so the surviving pairs come back in the order the
/// unrestricted loops would have produced them. A query window is one
/// more conjunct of its tree's restriction.
///
/// The scalar arm is the reference: Figure 2's loops over the two
/// restricted index lists, every rectangle read from the nodes. The
/// batched arm is [`match_batched`].
fn match_entries<const N: usize>(
    n1: &Node<N>,
    (n2, rect2): (&Node<N>, &Rect<N>),
    config: &JoinConfig,
    windows: &JoinWindows<N>,
    scratch: &mut MatchScratch<N>,
    mut hit: impl FnMut(&Entry<N>, &Entry<N>),
) {
    let predicate = config.predicate;
    if config.kernel == MatchKernel::Batched {
        return match_batched(n1, (n2, rect2), predicate, windows, scratch, hit);
    }
    let [w1, w2] = windows;
    let in_window =
        |r: &Rect<N>, window: &Option<Rect<N>>| window.as_ref().is_none_or(|w| r.intersects(w));
    let MatchScratch { idx1, idx2, .. } = scratch;
    idx1.clear();
    let mut bound1: Option<Rect<N>> = None;
    for (i, e) in n1.entries.iter().enumerate() {
        if predicate.holds(&e.rect, rect2) && in_window(&e.rect, w1) {
            idx1.push(i as u32);
            match &mut bound1 {
                Some(b) => b.expand_to(&e.rect),
                None => bound1 = Some(e.rect),
            }
        }
    }
    let Some(bound1) = bound1 else {
        return;
    };
    idx2.clear();
    for (j, e) in n2.entries.iter().enumerate() {
        if predicate.holds(&e.rect, &bound1) && in_window(&e.rect, w2) {
            idx2.push(j as u32);
        }
    }
    // Figure 2: R2's entries drive the outer loop.
    for &j in idx2.iter() {
        let e2 = &n2.entries[j as usize];
        for &i in idx1.iter() {
            let e1 = &n1.entries[i as usize];
            if predicate.holds(&e1.rect, &e2.rect) {
                hit(e1, e2);
            }
        }
    }
}

/// The batched arm of [`match_entries`], the same restrictions and the
/// same loops in three steps:
///
/// 1. R1 is restricted into entry indices without a branch
///    ([`compact`]); only the survivors' rectangles are copied into the
///    scratch, and their MBR is taken.
/// 2. R2 is restricted against that MBR the same way.
/// 3. Each R2 survivor is tested against R1's copied survivors one mask
///    word per 64 of them, each bit set without a branch; set bits are
///    emitted lowest first, the inner loop's entry order.
fn match_batched<const N: usize>(
    n1: &Node<N>,
    (n2, rect2): (&Node<N>, &Rect<N>),
    predicate: JoinPredicate,
    [w1, w2]: &JoinWindows<N>,
    scratch: &mut MatchScratch<N>,
    mut hit: impl FnMut(&Entry<N>, &Entry<N>),
) {
    const WORD: usize = u64::BITS as usize;
    let MatchScratch { rects1, idx1, idx2 } = scratch;
    let pass1 = |r: &Rect<N>| predicate.holds(r, rect2);
    let kept1 = match w1 {
        None => compact(&n1.entries, idx1, pass1),
        Some(w) => compact(&n1.entries, idx1, |r| pass1(r) & r.intersects(w)),
    };
    rects1.clear();
    rects1.extend(idx1[..kept1].iter().map(|&i| n1.entries[i as usize].rect));
    let Some(bound1) = mbr_of(rects1.iter().copied()) else {
        return;
    };
    let pass2 = |r: &Rect<N>| predicate.holds(r, &bound1);
    let kept2 = match w2 {
        None => compact(&n2.entries, idx2, pass2),
        Some(w) => compact(&n2.entries, idx2, |r| pass2(r) & r.intersects(w)),
    };
    for &j in &idx2[..kept2] {
        let e2 = &n2.entries[j as usize];
        for (block, rects) in rects1.chunks(WORD).enumerate() {
            let mut word = 0u64;
            for (t, r) in rects.iter().enumerate() {
                word |= u64::from(predicate.holds(r, &e2.rect)) << t;
            }
            while word != 0 {
                let i = idx1[block * WORD + word.trailing_zeros() as usize];
                hit(&n1.entries[i as usize], e2);
                word &= word - 1;
            }
        }
    }
}

/// The indices of the `entries` that pass `keep`, in order, written into
/// the front of `idx` without a branch (steps 1 and 2 of
/// [`match_batched`], all of [`pinned_children`]). Returns how many there are.
#[inline(always)]
fn compact<const N: usize>(
    entries: &[Entry<N>],
    idx: &mut Vec<u32>,
    keep: impl Fn(&Rect<N>) -> bool,
) -> usize {
    if idx.len() < entries.len() {
        idx.resize(entries.len(), 0);
    }
    let mut kept = 0;
    for (j, e) in entries.iter().enumerate() {
        idx[kept] = j as u32;
        kept += usize::from(keep(&e.rect));
    }
    kept
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

    /// The two kernels of `match_entries` on hand-built node pairs whose
    /// R1 side keeps 0, 1, 63, 64, 65 and 129 survivors — on both sides
    /// of one and two mask words — under both predicates, with and
    /// without query windows: the same `(e1, e2)` sequence. R1's
    /// survivors are interleaved with entries the restriction drops
    /// (far away, or outside R1's window), and one scratch serves both
    /// arms and every case, as one serves every node pair of a traversal.
    #[test]
    fn kernels_agree_around_mask_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(50);
        let rect = |rng: &mut StdRng, x: (f64, f64), y: (f64, f64), side: f64| {
            let c = [rng.gen_range(x.0..x.1), rng.gen_range(y.0..y.1)];
            Rect::centered(sjcm_geom::Point::new(c), [side, side])
        };
        let leaf = |rects: Vec<Rect<2>>, ids: Vec<u32>| Node {
            level: 0,
            entries: rects
                .into_iter()
                .zip(ids)
                .map(|(r, id)| Entry::leaf(r, ObjectId(id)))
                .collect(),
        };
        // R2's MBR is at least [0.05, 0.45]²: its two corner entries.
        let mut rects2 = vec![
            Rect::new([0.05, 0.05], [0.15, 0.15]).unwrap(),
            Rect::new([0.35, 0.35], [0.45, 0.45]).unwrap(),
        ];
        rects2.extend((0..22).map(|_| rect(&mut rng, (0.1, 0.4), (0.1, 0.4), 0.12)));
        let n2 = leaf(rects2, (500..524).collect());
        let rect2 = n2.mbr().unwrap();
        // R1's window keeps x ≤ 0.42, R2's x ≤ 0.3.
        let windows = [
            Some(Rect::new([0.0, 0.0], [0.42, 1.0]).unwrap()),
            Some(Rect::new([0.0, 0.0], [0.3, 1.0]).unwrap()),
        ];
        let mut scratch = MatchScratch::new();
        for survivors in [0u32, 1, 63, 64, 65, 129] {
            for windowed in [false, true] {
                // Survivors (ids below 1000) inside R2's MBR, each
                // followed by a dropped entry half the time: one far
                // from R2 (ids from 1000) or, windowed, one that meets
                // R2's MBR but not R1's window (ids from 2000).
                let (mut rects1, mut ids1) = (Vec::new(), Vec::new());
                for id in 0..survivors {
                    rects1.push(rect(&mut rng, (0.1, 0.4), (0.1, 0.4), 0.04));
                    ids1.push(id);
                    if rng.gen_bool(0.5) {
                        rects1.push(rect(&mut rng, (0.7, 0.95), (0.7, 0.95), 0.04));
                        ids1.push(1000 + id);
                    }
                    if windowed && rng.gen_bool(0.5) {
                        rects1.push(rect(&mut rng, (0.445, 0.455), (0.1, 0.4), 0.02));
                        ids1.push(2000 + id);
                    }
                }
                let n1 = leaf(rects1, ids1);
                let windows = if windowed { windows } else { [None, None] };
                for predicate in [JoinPredicate::Overlap, JoinPredicate::WithinDistance(0.03)] {
                    let kept = n1.entries.iter().filter(|e| {
                        predicate.holds(&e.rect, &rect2)
                            & windows[0].is_none_or(|w| e.rect.intersects(&w))
                    });
                    assert_eq!(kept.count(), survivors as usize, "test set-up");
                    let [got, want] = [MatchKernel::Batched, MatchKernel::Scalar].map(|kernel| {
                        let config = JoinConfig {
                            predicate,
                            kernel,
                            ..JoinConfig::default()
                        };
                        let mut out = Vec::new();
                        match_entries(
                            &n1,
                            (&n2, &rect2),
                            &config,
                            &windows,
                            &mut scratch,
                            |e1, e2| out.push((e1.child.object().0, e2.child.object().0)),
                        );
                        out
                    });
                    let case = format!("{survivors} survivors, {predicate:?}, windowed {windowed}");
                    assert_eq!(got, want, "{case}");
                    // Past the first word, survivors are matched too.
                    if survivors > 64 {
                        assert!(got.iter().any(|&(e1, _)| e1 >= 64), "{case}");
                    }
                }
            }
        }
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
        assert!(r.stats2.da_at(0) <= r.stats2.na_at(0));
    }
}
