//! Parallel spatial join — the §5 future-work item, after Brinkhoff et
//! al., *Parallel Processing of Spatial Joins Using R-trees* (ICDE 1996)
//! — scheduled by the paper's **own cost model**.
//!
//! # Two executors
//!
//! Two parallel schedulers are provided (see [`Scheduler`]), each with
//! an executor of its own;
//! [`JoinSession::run`](crate::session::JoinSession::run) chooses
//! between them and the sequential traversal.
//!
//! * **Dealt** (`dealt_join`) — the static scheme. The work units are
//!   the root pair's matched child pairs, numbered in match order and
//!   dealt once to `threads` shards; a shard runs its units in the
//!   order dealt through one engine whose buffers persist, and nothing
//!   is redistributed. *Ungated* this is `Scheduler::RoundRobin`: unit
//!   `i` goes to shard `i mod threads`, nothing is priced. Kept as the
//!   baseline the cost-guided scheduler is measured against. *Gated* —
//!   the run's [`Governor`](crate::Governor) has a deadline,
//!   a cancellation point or a degraded admission — every scheduler
//!   runs here, because root units are the boundaries the governor
//!   gates: the units are priced (Eq 6 × overlap, plus the expected
//!   pairs per price a `Degrade` cap ranks by), the unit ledger and
//!   the governor's refusals are armed with them, `RoundRobin` keeps
//!   its deal and the other two schedulers deal LPT by price, and each
//!   unit passes the governor's checkpoint before it is charged. Gating
//!   is by the unit's ordinal, so a fixed cancellation point forfeits
//!   the same inventory under any deal and any thread count. One
//!   thread runs its single shard inline, in ordinal order.
//! * **Stealing** (`cost_guided_join`) — `Scheduler::CostGuided` with
//!   no gate. A coordinator descends the synchronized traversal level
//!   by level until it holds at least `threads × 4` overlapping node
//!   pairs (*work units*), prices each unit with the Eq-6 `NA` formula
//!   on the unit's **measured** subtree parameters
//!   ([`sjcm_core::join::unit_cost_na`] over
//!   [`sjcm_rtree::RTree::subtree_shape`]) scaled by the subtree MBRs'
//!   overlap fraction (see `Pricer` below), seeds one deque per worker
//!   in LPT (longest-processing-time-first) order, and lets idle
//!   workers steal from the deque with the most estimated work left.
//!
//! A unit's price is read off entries the trees already hold: every
//! level of a subtree below its root is summed from the entry
//! rectangles of the level above (a parent entry is its child's MBR,
//! bit for bit), so pricing reads internal pages only and its numbers
//! are those of the subtree's full [`sjcm_rtree::RTree::subtree_stats`]
//! bit for bit.
//!
//! The two share the descent step and the charge (see the `engine`
//! module), the pricer, the LPT seeding (`lpt_deal`), the unit hooks of
//! the session's `ExecContext` — every unit reaches the run's one unit
//! ledger through them, priced in Eq 6 × overlap when the run has
//! prices and at one when the deal is unpriced — the fan-out
//! (`fan_out`: workers `1..threads` spawned, worker 0 run by the calling thread, every
//! thread joined and every panic a [`JoinError::WorkerPanicked`]) and
//! the fold of per-worker parts into one result (`merge`).
//!
//! # Invariants the tests pin down
//!
//! For **both** schedulers on any input and any thread count — under
//! a gate too, as long as it refuses nothing:
//!
//! * `pairs` is the sequential join's vector — the same pairs in the
//!   same order, see below;
//! * NA is identical (the same node pairs are visited, and each access
//!   is charged exactly once: by the coordinator above the frontier and
//!   by exactly one worker below it, or by the shard that runs the root
//!   unit).
//!
//! For the **cost-guided** scheduler additionally DA ≥ the sequential
//! DA — splitting the traversal breaks some of the path-buffer
//! locality, exactly the kind of effect the paper says a parallel cost
//! model must account for. (The legacy round-robin scheduler carries
//! buffers across a shard's units, and two units adjacent in a shard
//! can recreate locality that an intervening unit destroyed in the
//! sequential order, so round-robin DA can — rarely — dip *below*
//! sequential. The property tests check the bound only for the
//! cost-guided scheduler.)
//!
//! The cost-guided scheduler's DA is furthermore **deterministic**, even
//! though stealing makes the unit→worker assignment timing-dependent:
//! workers reset their buffers at every unit boundary, so each unit's
//! miss count is independent of which worker runs it and of what ran
//! before. (The coordinator expands the frontier in the sequential
//! traversal's own per-level order, so under a path buffer the accesses
//! *above* the frontier miss exactly as often as in the sequential
//! join; the per-unit cold starts below the frontier are the only
//! source of extra misses.)
//!
//! Per-worker tallies ([`crate::executor::WorkerTally`]) are attributed
//! to the worker each unit was **scheduled on** — the LPT seeding for
//! the cost-guided mode, the static deal for round-robin — not to
//! whichever thread happened to execute it after stealing. Per-unit
//! NA/DA/pair counts are deterministic (previous paragraph), so the
//! tallies and the derived imbalance ratio
//! ([`JoinResultSet::na_imbalance`]) are bit-for-bit reproducible on
//! any machine and measure exactly what the scheduler controls: how
//! well Eq-6 pricing split the work. Which thread *executes* a stolen
//! unit is a wall-clock concern the tallies deliberately ignore — on a
//! machine with fewer cores than workers, the realized split is OS
//! time-slice noise.
//!
//! `pairs` comes back in the sequential traversal's **emission order**
//! from every scheduler, at any thread count, under any steal
//! interleaving — the order is a property of the schedule, not of a
//! sort. Each worker appends to its engine's one pair vector and marks
//! where every unit it ran ends; `merge` concatenates those runs in
//! unit order (one copy per pair, nothing per unit allocated). That
//! *is* the depth-first order, because of how the units are numbered:
//! `Engine::collect_frontier` replaces each frontier pair in place by
//! its child pairs in match order and emits nothing itself, and the
//! dealt executor's units are the root pair's child pairs in the order
//! `Engine::visit` pops them — either way unit `i`'s subtree pair is
//! entered by the sequential traversal after all of unit `i - 1`'s
//! and before any of unit `i + 1`'s. A unit refused by the governor
//! contributes no run, so a degraded output is the
//! sequential vector minus the forfeited units' pairs, still in order.
//! A caller that wants `(R1 object, R2 object)` order sorts its copy.

use crate::degraded::{localized_pairs, subtree_objects, JoinError, RawSkip, SubtreeObjects};
use crate::engine::Engine;
use crate::executor::{
    child_pairs, JoinConfig, JoinResultSet, MatchScratch, NodePair, StealTally, WorkerTally,
};
use crate::session::{CorrDomain, ExecContext, Scheduler};
use sjcm_core::join::{unit_cost_na, JoinWindows};
use sjcm_core::{LevelParams, TreeParams};
use sjcm_geom::Rect;
use sjcm_obs::progress::ProgressTracker;
use sjcm_obs::{DriftMonitor, Tracer, DA_TOTAL, NA_TOTAL};
use sjcm_rtree::{Child, NodeId, RTree, SubtreeShape, TreeStats};
use sjcm_storage::FlightRecorder;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Observability hooks a [`crate::session::JoinSession`] adopts with
/// `.observe(..)`. The default value (disabled tracer, no drift
/// monitor) makes every hook a no-op — an unobserved session runs with
/// exactly that, so the instrumented code path *is* the production
/// code path.
#[derive(Debug, Default)]
pub struct JoinObs<'a> {
    /// Span collector. Disabled tracers cost one `Option` check per
    /// span site (see `sjcm-obs`).
    pub tracer: Tracer,
    /// Drift monitor for in-flight envelope checks: workers maintain
    /// shared running NA/DA totals and test them against the
    /// caller-registered `na.total` / `da.total` predictions after
    /// every completed work unit; a breach sets the sample's `overrun`
    /// flag while the join is still running.
    pub drift: Option<&'a DriftMonitor>,
    /// Page-access flight recorder. Disabled (the default) costs one
    /// `Option` check per access; enabled, every buffered access of
    /// every executor emits one event, with the correlation id set to
    /// the buffer-residency domain (0 = coordinator/sequential, unit
    /// index + 1 for cost-guided units, shard index + 1 for
    /// round-robin shards — see `sjcm_storage::recorder`).
    pub recorder: FlightRecorder,
    /// Live progress hub (see `sjcm_obs::progress`). Disabled (the
    /// default) costs one `Option` check per access; enabled, every
    /// executor feeds per-level NA/DA/pair deltas in batches, the
    /// schedulers register their unit and cost totals, and the
    /// entry point marks completion — a `ProgressEngine` sampling the
    /// same tracker then turns the feed into fractions and ETAs.
    /// Results are byte-identical either way.
    pub progress: ProgressTracker,
}

/// Target number of work units per worker for the cost-guided
/// scheduler. More units mean finer-grained stealing but more frontier
/// expansion done serially by the coordinator.
const UNITS_PER_WORKER: usize = 4;

// ---------------------------------------------------------------------
// Cost-guided scheduler.
// ---------------------------------------------------------------------

pub(crate) fn cost_guided_join<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    windows: JoinWindows<N>,
    threads: usize,
    ctx: &ExecContext<'_>,
) -> Result<JoinResultSet, JoinError> {
    let mut join_span = ctx.tracer.span("cost-guided-join");
    join_span.set("threads", threads);

    // 1. The coordinator descends until it holds enough units, charging
    //    the intermediate accesses itself (in sequential per-level
    //    order). Its recorder lanes stay on correlation domain 0.
    let mut coord = Engine::new(r1, r2, config, windows, ctx, CorrDomain::Coordinator);
    let units = {
        let mut span = join_span.child("frontier-descent");
        let units = coord.collect_frontier(threads * UNITS_PER_WORKER, threads);
        span.set("units", units.len());
        span.set("na", coord.stats1.na_total() + coord.stats2.na_total());
        units
    };
    // The coordinator charges nothing below the frontier; publish its
    // tallies now so they cannot be double-counted when the workers'
    // parts are merged with its own after the scope.
    coord.flush_progress();

    // 2. Price each unit with Eq 6 on its measured subtree parameters,
    //    then LPT-seed one deque per worker. `plan[i]` remembers the
    //    worker unit `i` was seeded to — per-worker tallies are
    //    attributed by this plan (see the module docs).
    let mut schedule_span = join_span.child("schedule");
    let mut pricer = Pricer::new(r1, r2);
    let costs: Vec<u64> = units
        .iter()
        .map(|&(a, b)| pricer.unit_price(a, b))
        .collect();
    let queues = lpt_deal(&costs, threads);
    let mut plan = vec![0usize; units.len()];
    let mut loads = vec![0u64; threads];
    for (w, queue) in queues.iter().enumerate() {
        for &i in queue {
            plan[i] = w;
            loads[w] += costs[i];
        }
    }
    // Arm the unit ledger with the Eq-6 prices before any worker runs.
    ctx.arm_units(&costs, None);
    let cost_total: u64 = loads.iter().sum();
    let deques: Vec<Deque> = queues
        .into_iter()
        .zip(loads)
        .map(|(queue, load)| Deque {
            queue: Mutex::new(queue.into()),
            remaining: AtomicU64::new(load),
        })
        .collect();
    schedule_span.set("units", units.len());
    schedule_span.set("cost_total", cost_total);
    schedule_span.finish();

    // Running NA/DA totals for the in-flight drift checks, seeded with
    // what the coordinator already charged above the frontier.
    let na_live = AtomicU64::new(coord.stats1.na_total() + coord.stats2.na_total());
    let da_live = AtomicU64::new(coord.stats1.da_total() + coord.stats2.da_total());

    // 3. Workers drain their own deque front-first (largest unit first,
    //    thanks to LPT order) and steal from the deque with the most
    //    estimated work left once idle. Each worker records a per-unit
    //    tally so the coordinator can attribute units to their *planned*
    //    worker afterwards.
    // Workers start together: without the barrier, on small inputs the
    // first-spawned worker can steal every deque dry before the others
    // even begin, serializing the execution.
    let start = Barrier::new(threads);
    let join_id = join_span.id();
    let parts = fan_out(threads, |w| {
        // One context clone per worker (cheap `Arc` handles).
        let wctx = ctx.clone();
        let mut worker_span = wctx.tracer.span_under(join_id, "worker");
        worker_span.set("worker", w);
        let mut exec = Engine::new(r1, r2, config, windows, &wctx, CorrDomain::Coordinator);
        let mut tallies: Vec<(usize, WorkerTally)> = Vec::new();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut steal = StealTally::default();
        start.wait();
        #[cfg(test)]
        wctx.panic_switch(w);
        while let Some((i, stolen)) = next_unit(&deques, &costs, w, &mut steal) {
            // A gating governor sends every scheduler to the dealt
            // executor, so this checkpoint admits.
            let admitted = wctx.checkpoint(i, costs[i]);
            debug_assert!(admitted, "an ungated run refuses no unit");
            steal.units_executed += 1;
            let mut unit_span = worker_span.child("unit");
            let (a, b) = units[i];
            // Fresh buffers per unit: see the module docs. The unit is
            // its own buffer-residency domain, so its accesses get their
            // own correlation id.
            exec.buf1.clear();
            exec.buf2.clear();
            exec.set_domain(CorrDomain::Unit(i));
            let corr = CorrDomain::Unit(i).corr();
            let na0 = exec.stats1.na_total() + exec.stats2.na_total();
            let da0 = exec.stats1.da_total() + exec.stats2.da_total();
            let pc0 = exec.pair_count;
            exec.visit(a, b);
            let na = exec.stats1.na_total() + exec.stats2.na_total() - na0;
            let da = exec.stats1.da_total() + exec.stats2.da_total() - da0;
            let pair_count = exec.pair_count - pc0;
            runs.push((i, exec.pairs.len()));
            // Attributed to the *planned* worker — see the module docs.
            tallies.push((
                plan[i],
                WorkerTally {
                    units: 1,
                    na,
                    da,
                    pair_count,
                },
            ));
            unit_span.set("unit", i);
            unit_span.set("corr", corr as u64);
            unit_span.set("stolen", stolen);
            unit_span.set("cost", costs[i]);
            unit_span.set("na", na);
            unit_span.set("da", da);
            unit_span.set("pairs", pair_count);
            // Retire the unit and publish the tallies, so samplers see
            // the unit boundary immediately.
            wctx.unit_done(costs[i]);
            exec.flush_progress();
            if let Some(drift) = wctx.drift {
                let na_now = na_live.fetch_add(na, Ordering::Relaxed) + na;
                let da_now = da_live.fetch_add(da, Ordering::Relaxed) + da;
                drift.observe_in_flight(NA_TOTAL, na_now as f64);
                drift.observe_in_flight(DA_TOTAL, da_now as f64);
            }
        }
        worker_span.set("units", steal.units_executed);
        worker_span.set("stolen", steal.units_stolen);
        WorkerPart {
            tallies,
            steal,
            result: exec.into_result(),
            skips: Vec::new(),
            runs,
        }
    });

    // An ungated run refuses no unit, so it has no skips to hand back.
    let (result, _) = merge(coord.into_result(), parts)?;
    join_span.set("na", result.na_total());
    join_span.set("da", result.da_total());
    join_span.set("pairs", result.pair_count);
    Ok(result)
}

/// The one fan-out of both executors: runs `worker(w)` for every
/// `w < threads` and hands back each result in worker order. Workers
/// `1..threads` run on scoped threads and worker 0 on the calling
/// thread, which would otherwise only wait for them. Every spawned
/// thread is joined before this returns, whatever failed, so one dead
/// worker leaves no other unjoined (and a panic payload consumed here
/// does not re-raise at scope exit); a panic in any worker, the inline
/// one included, is that worker's [`JoinError::WorkerPanicked`].
fn fan_out<T: Send>(
    threads: usize,
    worker: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, JoinError>> {
    let worker = &worker;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let inline = panic::catch_unwind(AssertUnwindSafe(|| worker(0)));
        std::iter::once(inline)
            .chain(spawned.into_iter().map(|h| h.join()))
            .map(|part| part.map_err(JoinError::from_panic))
            .collect()
    })
}

/// What one worker thread of either executor hands back: its engine's
/// result, the units the governor refused it (the dealt executor's
/// only), its steal statistics, the tallies of what it
/// ran, each tagged with the worker the work was *scheduled on*, and
/// where each unit's pairs sit in `result.pairs`.
struct WorkerPart {
    tallies: Vec<(usize, WorkerTally)>,
    steal: StealTally,
    result: JoinResultSet,
    skips: Vec<RawSkip>,
    /// One `(unit, end)` mark per unit, in the order the worker ran
    /// them: the unit's pairs are `result.pairs[previous end..end]`.
    runs: Vec<(usize, usize)>,
}

/// Assembles a multi-worker result: folds the workers' parts, in worker
/// order, into `base` (the coordinator's own part — empty for the dealt
/// executor, which charges nothing above its units; never holding
/// pairs, which are only emitted below the units). The pair runs are
/// concatenated in **unit order**, whichever worker ran each unit and
/// whenever — the sequential emission order, see the module docs. The
/// first worker failure is the join's failure.
fn merge(
    mut out: JoinResultSet,
    parts: Vec<Result<WorkerPart, JoinError>>,
) -> Result<(JoinResultSet, Vec<RawSkip>), JoinError> {
    let mut raw = Vec::new();
    let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
    debug_assert!(out.pairs.is_empty(), "pairs are emitted below the units");
    // One entry per unit, never per pair: (unit, worker, start, end).
    let mut runs = Vec::new();
    for (w, part) in parts.iter().enumerate() {
        let mut start = 0;
        for &(unit, end) in &part.runs {
            runs.push((unit, w, start, end));
            start = end;
        }
    }
    runs.sort_unstable();
    out.pairs
        .reserve_exact(parts.iter().map(|p| p.result.pairs.len()).sum());
    for (_, w, start, end) in runs {
        out.pairs
            .extend_from_slice(&parts[w].result.pairs[start..end]);
    }
    out.workers = vec![WorkerTally::default(); parts.len()];
    for part in parts {
        for (w, t) in part.tallies {
            let tally = &mut out.workers[w];
            tally.units += t.units;
            tally.na += t.na;
            tally.da += t.da;
            tally.pair_count += t.pair_count;
        }
        out.steals.push(part.steal);
        out.pair_count += part.result.pair_count;
        out.stats1.merge(&part.result.stats1);
        out.stats2.merge(&part.result.stats2);
        raw.extend(part.skips);
    }
    Ok((out, raw))
}

/// LPT (longest-processing-time-first) seeding: units in descending
/// cost order, each to the currently least-loaded worker. Ties are
/// broken by unit index, then worker index, so the deal is
/// deterministic. Returns every worker's unit indices in the order they
/// were dealt (largest first).
fn lpt_deal(costs: &[u64], threads: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_unstable_by(|&i, &j| costs[j].cmp(&costs[i]).then(i.cmp(&j)));
    let mut queues = vec![Vec::new(); threads];
    let mut loads = vec![0u64; threads];
    for i in order {
        let w = (0..threads)
            .min_by_key(|&w| (loads[w], w))
            .expect("a join has at least one worker");
        queues[w].push(i);
        loads[w] += costs[i];
    }
    queues
}

/// One worker's deque plus the estimated cost of what is still queued
/// (the steal-victim selection key).
struct Deque {
    queue: Mutex<VecDeque<usize>>,
    remaining: AtomicU64,
}

/// Pops the front unit, returning it together with the queue depth left
/// behind (the steal-time depth recorded in [`StealTally`]).
fn pop_front(deque: &Deque, costs: &[u64]) -> Option<(usize, u64)> {
    // A poisoned lock means another worker panicked while popping; the
    // queue itself is still consistent (pop_front is atomic on the
    // VecDeque), and the panic is reported as `JoinError::WorkerPanicked`
    // at join time — so keep draining rather than panicking here too.
    let mut q = deque
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let i = q.pop_front()?;
    deque.remaining.fetch_sub(costs[i], Ordering::Relaxed);
    Some((i, q.len() as u64))
}

/// Next unit for worker `own`: its own deque first, then a steal from
/// the deque with the most estimated work remaining. Returns the unit
/// and whether it was stolen; `None` only when every deque is empty
/// (units are never re-queued, so that means the join is drained).
/// Steal attempts, successful steals and victim queue depths are
/// recorded into `steal`.
fn next_unit(
    deques: &[Deque],
    costs: &[u64],
    own: usize,
    steal: &mut StealTally,
) -> Option<(usize, bool)> {
    if let Some((i, _)) = pop_front(&deques[own], costs) {
        return Some((i, false));
    }
    loop {
        let victim = deques
            .iter()
            .enumerate()
            .filter(|(_, d)| d.remaining.load(Ordering::Relaxed) > 0)
            .max_by_key(|(_, d)| d.remaining.load(Ordering::Relaxed))
            .map(|(w, _)| w)?;
        steal.steal_attempts += 1;
        if let Some((i, depth)) = pop_front(&deques[victim], costs) {
            steal.units_stolen += 1;
            steal.steal_queue_depths.push(depth);
            return Some((i, true));
        }
        // Lost the race for that deque; rescan.
    }
}

/// The one pricer of `(a, b)` sub-joins — a scheduler's work units, the
/// governor's unit ledger, a degraded result's forfeited pairs — by the
/// paper's own formulas on the two subtrees' *measured* statistics.
/// A subtree's Eq-6 parameters and root rectangle come from one walk
/// over its internal nodes ([`RTree::subtree_shape`]), cached per node
/// id (at a given depth each subtree appears in many sub-joins), so a
/// caller that only asks for [`Pricer::unit_price`] never walks a leaf
/// page — it reads a leaf only when the subtree root is one, for that
/// leaf's own rectangle. Only [`Pricer::pairs`] reads objects.
pub(crate) struct Pricer<'a, const N: usize> {
    trees: [&'a RTree<N>; 2],
    subtrees: [HashMap<NodeId, Subtree<N>>; 2],
    objects: [HashMap<NodeId, SubtreeObjects<N>>; 2],
}

/// What the pricer knows of one subtree before reading any object: its
/// Eq-6 parameters and its root's rectangle.
struct Subtree<const N: usize> {
    params: TreeParams<N>,
    mbr: Option<Rect<N>>,
}

impl<const N: usize> Subtree<N> {
    fn of(tree: &RTree<N>, root: NodeId) -> Self {
        let shape = tree.subtree_shape(root);
        Subtree {
            params: shape_params(&shape),
            mbr: shape.mbr,
        }
    }
}

impl<'a, const N: usize> Pricer<'a, N> {
    pub(crate) fn new(r1: &'a RTree<N>, r2: &'a RTree<N>) -> Self {
        Pricer {
            trees: [r1, r2],
            subtrees: Default::default(),
            objects: Default::default(),
        }
    }

    /// The two subtrees of sub-join `(a, b)`, walked on first use.
    fn subtrees(&mut self, a: NodeId, b: NodeId) -> (&Subtree<N>, &Subtree<N>) {
        let [r1, r2] = self.trees;
        let [subtrees1, subtrees2] = &mut self.subtrees;
        (
            subtrees1.entry(a).or_insert_with(|| Subtree::of(r1, a)),
            subtrees2.entry(b).or_insert_with(|| Subtree::of(r2, b)),
        )
    }

    /// Node accesses of the sub-join: Eq 6 on the subtrees' measured
    /// per-level parameters.
    ///
    /// Eq 6 assumes both node populations spread over the *whole*
    /// workspace, but a sub-join pairs two localized subtrees whose
    /// MBRs may overlap anywhere from a sliver to fully — the dominant
    /// factor in its actual NA. In the spirit of the paper's §4.2
    /// global→local transformation, the Eq-6 price is therefore scaled
    /// by [`overlap_fraction`].
    pub(crate) fn na(&mut self, a: NodeId, b: NodeId) -> f64 {
        let (s1, s2) = self.subtrees(a, b);
        unit_cost_na(&s1.params, &s2.params) * overlap_fraction(s1.mbr.as_ref(), s2.mbr.as_ref())
    }

    /// [`Pricer::na`] as a scheduling price: scaled to an integer for
    /// the atomic bookkeeping (only relative magnitudes matter), never
    /// zero.
    pub(crate) fn unit_price(&mut self, a: NodeId, b: NodeId) -> u64 {
        ((self.na(a, b) * 16.0).round() as u64).max(1)
    }

    /// Result pairs of the sub-join: Eq 3 localized over the two
    /// subtree MBRs ([`localized_pairs`]), every per-dimension band
    /// widened by `slack`.
    pub(crate) fn pairs(&mut self, a: NodeId, b: NodeId, slack: f64) -> f64 {
        // Empty subtrees only arise for an empty tree's root, which is
        // in no sub-join; the unit square is a harmless default.
        let (s1, s2) = self.subtrees(a, b);
        let m1 = s1.mbr.unwrap_or_else(Rect::unit);
        let m2 = s2.mbr.unwrap_or_else(Rect::unit);
        let [r1, r2] = self.trees;
        let [objects1, objects2] = &mut self.objects;
        let o1 = objects1.entry(a).or_insert_with(|| subtree_objects(r1, a));
        let o2 = objects2.entry(b).or_insert_with(|| subtree_objects(r2, b));
        localized_pairs(o1, &m1, o2, &m2, slack)
    }
}

/// Per-dimension fraction of the smaller of the two subtree MBR extents
/// covered by their intersection, multiplied over dimensions. 1.0 for
/// nested/co-located subtrees (or an empty one), → 0 for sliver
/// overlaps.
fn overlap_fraction<const N: usize>(m1: Option<&Rect<N>>, m2: Option<&Rect<N>>) -> f64 {
    let (Some(m1), Some(m2)) = (m1, m2) else {
        return 1.0;
    };
    let mut factor = 1.0;
    for k in 0..N {
        let inter = (m1.hi_k(k).min(m2.hi_k(k)) - m1.lo_k(k).max(m2.lo_k(k))).max(0.0);
        let narrow = m1.extent(k).min(m2.extent(k));
        if narrow > 0.0 {
            factor *= (inter / narrow).min(1.0);
        }
    }
    factor
}

/// A subtree's Eq-6 parameters from its shape: [`measured_params`] of
/// its [`RTree::subtree_stats`], bit for bit, without the pass over its
/// leaves that only the full statistics need.
pub(crate) fn shape_params<const N: usize>(shape: &SubtreeShape<N>) -> TreeParams<N> {
    TreeParams::from_levels(
        shape
            .levels
            .iter()
            .map(|l| LevelParams {
                nodes: l.node_count as f64,
                extents: l.avg_extents,
                density: l.density,
            })
            .collect(),
    )
}

/// Measured per-level tree statistics (`N_j`, `s_j`, `D_j` of a built
/// tree or subtree) as the model's [`TreeParams`] — what Eqs 6–12 are
/// fed when the parameters come from the tree instead of Eqs 2–5.
pub fn measured_params<const N: usize>(stats: &TreeStats) -> TreeParams<N> {
    TreeParams::from_levels(
        stats
            .levels
            .iter()
            .map(|l| LevelParams {
                nodes: l.node_count as f64,
                extents: std::array::from_fn(|k| l.avg_extents[k]),
                density: l.density,
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Dealt executor.
// ---------------------------------------------------------------------

/// One root-level work unit of the dealt executor: a matched child pair
/// of the two roots, and its price. An object pair (both roots are
/// leaves) is output as is; a node pair is one gated, charged sub-join.
type RootUnit = (Child, Child, u64);

/// The dealt executor: the root pair's matched child pairs, numbered in
/// match order, dealt once to `threads` static shards and run with no
/// redistribution. `Scheduler::RoundRobin` deals `i mod threads`. Under
/// a gating governor every scheduler runs here — the units are then
/// priced, the governor's ledger armed with them, and the other two
/// schedulers dealt LPT by price — so "governed" is this same deal with
/// a live gate at every unit boundary, not an executor of its own. One
/// thread runs its single shard inline.
pub(crate) fn dealt_join<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    windows: JoinWindows<N>,
    scheduler: Scheduler,
    ctx: &ExecContext<'_>,
) -> Result<(JoinResultSet, Vec<RawSkip>), JoinError> {
    let gov = &ctx.gov;
    let threads = scheduler.threads();
    let roots = NodePair::entered(r2, r1.root_id(), r2.root_id());
    let (mut units, mut nodes) = (Vec::new(), Vec::new());
    child_pairs(
        (r1, r2),
        &roots,
        &config,
        &windows,
        &mut MatchScratch::new(),
        |o1, o2| units.push((Child::Object(o1), Child::Object(o2), 0)),
        &mut nodes,
    );
    // A pair's children are all objects or all nodes, so appending
    // keeps match order.
    let prices = arm_root_units(r1, r2, &nodes, ctx);
    let priced = nodes.iter().zip(&prices);
    units.extend(priced.map(|(p, &price)| (Child::Node(p.n1), Child::Node(p.n2), price)));
    if threads == 1 {
        // One shard, inline: no worker to spawn, no tallies to merge.
        let shard: Vec<(usize, RootUnit)> = units.into_iter().enumerate().collect();
        let part = run_shard(r1, r2, config, windows, &shard, ctx, CorrDomain::Shard(0));
        return Ok((part.result, part.skips));
    }
    let mut join_span = ctx.tracer.span(if gov.is_unit_gated() {
        "governed-join"
    } else {
        "round-robin-join"
    });
    join_span.set("threads", threads);
    // Units keep their global ordinal when dealt, so the governor gates
    // them identically under any deal and any thread count. The deal
    // without a cost model is the unit's ordinal; with prices, LPT —
    // the cost-guided seeding without the steal layer (gating is by
    // ordinal, so stealing would only blur the tallies).
    let deal: Vec<Vec<usize>> = if gov.is_unit_gated()
        && !matches!(scheduler, Scheduler::RoundRobin { .. })
        && !prices.is_empty()
    {
        lpt_deal(&prices, threads)
    } else {
        (0..threads)
            .map(|w| (w..units.len()).step_by(threads).collect())
            .collect()
    };
    let shards: Vec<Vec<(usize, RootUnit)>> = deal
        .into_iter()
        .map(|shard| shard.into_iter().map(|i| (i, units[i])).collect())
        .collect();

    let join_id = join_span.id();
    let parts = fan_out(threads, |w| {
        let (wctx, shard) = (ctx.clone(), &shards[w]);
        let mut span = wctx.tracer.span_under(join_id, "worker");
        span.set("worker", w);
        span.set("units", shard.len());
        #[cfg(test)]
        wctx.panic_switch(w);
        // One correlation domain per shard: its buffers persist across
        // all of the shard's units.
        run_shard(r1, r2, config, windows, shard, &wctx, CorrDomain::Shard(w))
    });

    let (result, raw) = merge(Default::default(), parts)?;
    join_span.set("na", result.na_total());
    join_span.set("da", result.da_total());
    join_span.set("pairs", result.pair_count);
    Ok((result, raw))
}

/// Arms the unit ledger with the root node-pair units and returns their
/// prices, by ordinal. Under a governor that gates units — and only
/// then: the expected pairs read every unit's objects — a unit's price is its
/// [`Pricer::unit_price`] and its value (what a `Degrade` cap ranks by)
/// the pairs it is expected to produce per unit of price; otherwise
/// every unit is priced at one. Object-pair units (both roots are
/// leaves) read no page: nothing gates or prices them, and the ledger
/// stays unarmed.
fn arm_root_units<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    nodes: &[NodePair<N>],
    ctx: &ExecContext<'_>,
) -> Vec<u64> {
    if nodes.is_empty() {
        return Vec::new();
    }
    if !ctx.gov.is_unit_gated() {
        let prices = vec![1; nodes.len()];
        ctx.arm_units(&prices, None);
        return prices;
    }
    let mut pricer = Pricer::new(r1, r2);
    let (prices, values): (Vec<u64>, Vec<f64>) = nodes
        .iter()
        .map(|p| {
            let price = pricer.unit_price(p.n1, p.n2);
            (price, pricer.pairs(p.n1, p.n2, 0.0) / price as f64)
        })
        .unzip();
    ctx.arm_units(&prices, Some(&values));
    prices
}

/// Runs one static shard: the assigned ordinal-tagged root units
/// through one engine whose buffers persist across units (the legacy
/// behaviour, kept bit-for-bit so `RoundRobin` stays an honest
/// baseline). The context's governor gates every node-pair unit at its
/// `ctx.checkpoint` boundary, and every unit that passes runs and
/// leaves through `ctx.unit_done`. A unit refused at the gate is
/// forfeited — recorded as a skip, priced later, never silently
/// dropped. An unlimited governor is one `Option` check per call. The
/// part handed back carries one `(ordinal, end)` mark per unit that
/// ran — a forfeited unit emits nothing and needs none.
fn run_shard<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    windows: JoinWindows<N>,
    units: &[(usize, RootUnit)],
    ctx: &ExecContext<'_>,
    domain: CorrDomain,
) -> WorkerPart {
    // The shard is one buffer-residency domain: its correlation id and
    // the worker its tally is attributed to both come from `domain`.
    let mut shard = Engine::new(r1, r2, config, windows, ctx, domain);
    let worker = domain.worker_index();
    let mut runs = Vec::with_capacity(units.len());
    let mut skips = Vec::new();
    for &(ordinal, unit) in units {
        let (n1, n2, price) = match unit {
            (Child::Object(o1), Child::Object(o2), _) => {
                shard.emit(o1, o2);
                runs.push((ordinal, shard.pairs.len()));
                continue;
            }
            (c1, c2, price) => (c1.node(), c2.node(), price),
        };
        if !ctx.checkpoint(ordinal, price) {
            // The governor's cancellation point: a refusal forfeits
            // the whole subtree pair.
            skips.push(RawSkip { n1, n2 });
            shard.progress.forfeit(r1.node(n1).level);
            continue;
        }
        shard.charge(n1, n2);
        shard.visit(n1, n2);
        ctx.unit_done(price);
        runs.push((ordinal, shard.pairs.len()));
        shard.flush_progress();
    }
    let result = shard.into_result();
    let units = units.len() as u64;
    WorkerPart {
        tallies: vec![(
            worker,
            WorkerTally {
                units,
                na: result.na_total(),
                da: result.da_total(),
                pair_count: result.pair_count,
            },
        )],
        // No stealing: a shard executes what it was dealt.
        steal: StealTally {
            units_executed: units,
            ..StealTally::default()
        },
        result,
        skips,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{Governor, GovernorConfig};
    use crate::session::JoinSession;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_rtree::{ObjectId, RTreeConfig};

    fn build(n: usize, side: f64, seed: u64) -> RTree<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RTree::<2>::new(RTreeConfig::with_capacity(8));
        for i in 0..n {
            let cx: f64 = rng.gen_range(0.0..1.0);
            let cy: f64 = rng.gen_range(0.0..1.0);
            tree.insert(
                Rect::centered(sjcm_geom::Point::new([cx, cy]), [side, side]),
                ObjectId(i as u32),
            );
        }
        tree
    }

    /// The default-configuration join through the session under
    /// `scheduler` and `obs` — what every test here runs.
    fn observed(a: &RTree<2>, b: &RTree<2>, scheduler: Scheduler, obs: &JoinObs) -> JoinResultSet {
        JoinSession::new(a, b)
            .scheduler(scheduler)
            .observe(obs)
            .run()
            .expect("ungoverned join cannot fail")
            .result
    }

    fn join(a: &RTree<2>, b: &RTree<2>, scheduler: Scheduler) -> JoinResultSet {
        observed(a, b, scheduler, &JoinObs::default())
    }

    fn cost_guided(threads: usize) -> Scheduler {
        Scheduler::CostGuided { threads }
    }

    /// Both parallel schedulers at `threads` workers.
    fn parallel(threads: usize) -> [Scheduler; 2] {
        [Scheduler::RoundRobin { threads }, cost_guided(threads)]
    }

    #[test]
    fn parallel_matches_sequential_pairs() {
        let a = build(2_000, 0.01, 1);
        let b = build(2_000, 0.01, 2);
        let seq = join(&a, &b, Scheduler::Sequential).pairs;
        for threads in [2, 4, 7] {
            for sched in parallel(threads) {
                assert_eq!(join(&a, &b, sched).pairs, seq, "{sched:?}");
            }
        }
    }

    #[test]
    fn parallel_na_equals_sequential_na() {
        let a = build(2_000, 0.01, 3);
        let b = build(2_000, 0.01, 4);
        let seq = join(&a, &b, Scheduler::Sequential);
        for sched in parallel(4) {
            let par = join(&a, &b, sched);
            assert_eq!(seq.na_total(), par.na_total(), "{sched:?}");
            assert_eq!(seq.pair_count, par.pair_count, "{sched:?}");
        }
    }

    #[test]
    fn parallel_da_at_least_sequential_da() {
        // Cost-guided only: the bound is a design property of the
        // per-unit buffer resets (see the module docs); the legacy
        // round-robin scheduler does not guarantee it.
        let a = build(3_000, 0.008, 5);
        let b = build(3_000, 0.008, 6);
        let seq = join(&a, &b, Scheduler::Sequential);
        let par = join(&a, &b, cost_guided(4));
        assert!(
            par.da_total() >= seq.da_total(),
            "parallel {} vs sequential {}",
            par.da_total(),
            seq.da_total()
        );
    }

    #[test]
    fn cost_guided_da_is_deterministic() {
        // Stealing redistributes units at runtime, but per-unit buffer
        // resets make the global DA independent of the assignment.
        let a = build(2_500, 0.01, 13);
        let b = build(2_500, 0.01, 14);
        let first = join(&a, &b, cost_guided(4));
        for _ in 0..3 {
            let again = join(&a, &b, cost_guided(4));
            assert_eq!(first.da_total(), again.da_total());
            assert_eq!(first.na_total(), again.na_total());
            assert_eq!(first.pairs, again.pairs);
            // Tallies attribute units to their planned worker, so they
            // are deterministic too, stealing notwithstanding.
            assert_eq!(first.workers, again.workers);
        }
    }

    #[test]
    fn worker_tallies_cover_the_work() {
        let a = build(2_000, 0.01, 15);
        let b = build(2_000, 0.01, 16);
        let seq = join(&a, &b, Scheduler::Sequential);
        let par = join(&a, &b, cost_guided(3));
        assert_eq!(par.workers.len(), 3);
        let worker_pairs: u64 = par.workers.iter().map(|w| w.pair_count).sum();
        assert_eq!(worker_pairs, seq.pair_count);
        let worker_na: u64 = par.workers.iter().map(|w| w.na).sum();
        // Workers charge everything below the frontier; the coordinator
        // charges the rest.
        assert!(worker_na <= par.na_total());
        assert!(par.workers.iter().map(|w| w.units).sum::<u64>() >= 3 * 4 / 2);
        assert!(par.na_imbalance() >= 1.0);
    }

    #[test]
    fn single_thread_is_sequential() {
        let a = build(500, 0.02, 7);
        let b = build(500, 0.02, 8);
        let seq = join(&a, &b, Scheduler::Sequential);
        let par = join(&a, &b, cost_guided(1));
        assert_eq!(seq.pairs, par.pairs);
        assert_eq!(seq.da_total(), par.da_total());
        assert!(par.workers.is_empty());
        assert_eq!(par.na_imbalance(), 1.0);
    }

    #[test]
    fn parallel_handles_different_heights() {
        let a = build(3_000, 0.01, 9);
        let b = build(40, 0.05, 10);
        assert!(a.height() > b.height());
        let seq = join(&a, &b, Scheduler::Sequential);
        for sched in parallel(3) {
            let par = join(&a, &b, sched);
            assert_eq!(par.pairs, seq.pairs, "{sched:?}");
            assert_eq!(par.na_total(), seq.na_total(), "{sched:?}");
            // Role-swapped as well (pinned tree on the other side).
            let swapped = join(&b, &a, sched);
            let seq_swapped = join(&b, &a, Scheduler::Sequential);
            assert_eq!(swapped.pairs, seq_swapped.pairs, "{sched:?}");
            assert_eq!(swapped.na_total(), seq_swapped.na_total(), "{sched:?}");
        }
    }

    #[test]
    fn parallel_handles_single_leaf_trees() {
        let a = build(5, 0.2, 11);
        assert_eq!(a.height(), 1);
        // Against another single leaf (the units are object pairs) and
        // against a taller tree (every unit pins `a`'s root).
        for b in [build(5, 0.2, 12), build(300, 0.05, 12)] {
            let seq = join(&a, &b, Scheduler::Sequential);
            for sched in parallel(2) {
                let par = join(&a, &b, sched);
                assert_eq!(par.pairs, seq.pairs, "{sched:?}");
                assert_eq!(par.na_total(), seq.na_total(), "{sched:?}");
            }
        }
    }

    #[test]
    fn observed_join_is_identical_to_unobserved() {
        let a = build(2_000, 0.01, 19);
        let b = build(2_000, 0.01, 20);
        let plain = join(&a, &b, cost_guided(4));
        let tracer = Tracer::enabled();
        let drift = DriftMonitor::default();
        drift.predict(NA_TOTAL, plain.na_total() as f64);
        drift.predict(DA_TOTAL, plain.da_total() as f64);
        let obs = JoinObs {
            tracer: tracer.clone(),
            drift: Some(&drift),
            recorder: FlightRecorder::disabled(),
            progress: ProgressTracker::disabled(),
        };
        let traced = observed(&a, &b, cost_guided(4), &obs);
        // Observation must not perturb the join.
        assert_eq!(plain.pairs, traced.pairs);
        assert_eq!(plain.na_total(), traced.na_total());
        assert_eq!(plain.da_total(), traced.da_total());
        assert_eq!(plain.workers, traced.workers);
        // Exact predictions ⇒ no in-flight overrun.
        assert!(drift.all_within());
        // The span tree covers the schedule and every unit.
        let records = tracer.records();
        assert!(records.iter().any(|r| r.name == "cost-guided-join"));
        assert!(records.iter().any(|r| r.name == "frontier-descent"));
        assert!(records.iter().any(|r| r.name == "schedule"));
        let planned: u64 = traced.workers.iter().map(|w| w.units).sum();
        assert_eq!(
            records.iter().filter(|r| r.name == "unit").count() as u64,
            planned
        );
        // Steal tallies cover every unit exactly once, whoever ran it.
        let executed: u64 = traced.steals.iter().map(|s| s.units_executed).sum();
        assert_eq!(executed, planned);
        assert_eq!(traced.steals.len(), 4);
        for s in &traced.steals {
            assert_eq!(s.steal_queue_depths.len() as u64, s.units_stolen);
            assert!(s.units_stolen <= s.steal_attempts);
        }
    }

    #[test]
    fn recorded_join_is_identical_and_replay_is_exact() {
        let a = build(2_000, 0.01, 25);
        let b = build(2_000, 0.01, 26);
        let plain = join(&a, &b, cost_guided(4));
        let recorder = FlightRecorder::enabled();
        let obs = JoinObs {
            tracer: Tracer::disabled(),
            drift: None,
            recorder: recorder.clone(),
            progress: ProgressTracker::disabled(),
        };
        let recorded = observed(&a, &b, cost_guided(4), &obs);
        // Recording must not perturb the join.
        assert_eq!(plain.pairs, recorded.pairs);
        assert_eq!(plain.na_total(), recorded.na_total());
        assert_eq!(plain.da_total(), recorded.da_total());
        // Every access produced exactly one event.
        let events = recorder.drain();
        assert_eq!(events.len() as u64, recorded.na_total());
        // Replaying the recorded policy (the default is Path)
        // reproduces the live counters exactly — totals and per-level.
        let out = sjcm_storage::replay(&events, crate::BufferPolicy::Path);
        assert_eq!(out.kind_mismatches, 0);
        assert_eq!(out.stats1, recorded.stats1);
        assert_eq!(out.stats2, recorded.stats2);
    }

    #[test]
    fn round_robin_trace_replays_exactly_too() {
        let a = build(1_500, 0.012, 27);
        let b = build(1_500, 0.012, 28);
        let recorder = FlightRecorder::enabled();
        let obs = JoinObs {
            tracer: Tracer::disabled(),
            drift: None,
            recorder: recorder.clone(),
            progress: ProgressTracker::disabled(),
        };
        let recorded = observed(&a, &b, Scheduler::RoundRobin { threads: 3 }, &obs);
        let events = recorder.drain();
        // Shard buffers persist across units, so per-shard correlation
        // domains are what makes this replay exact.
        let out = sjcm_storage::replay(&events, crate::BufferPolicy::Path);
        assert_eq!(out.kind_mismatches, 0);
        assert_eq!(out.stats1, recorded.stats1);
        assert_eq!(out.stats2, recorded.stats2);
    }

    #[test]
    fn sequential_fallback_records_too() {
        let a = build(800, 0.02, 29);
        let b = build(800, 0.02, 30);
        let recorder = FlightRecorder::enabled();
        let obs = JoinObs {
            tracer: Tracer::disabled(),
            drift: None,
            recorder: recorder.clone(),
            progress: ProgressTracker::disabled(),
        };
        let recorded = observed(&a, &b, cost_guided(1), &obs);
        let events = recorder.drain();
        assert_eq!(events.len() as u64, recorded.na_total());
        assert!(events.iter().all(|e| e.corr == 0), "one residency domain");
        let out = sjcm_storage::replay(&events, crate::BufferPolicy::Path);
        assert_eq!(out.kind_mismatches, 0);
        assert_eq!(out.stats1, recorded.stats1);
        assert_eq!(out.stats2, recorded.stats2);
    }

    #[test]
    fn in_flight_drift_flags_absurd_predictions() {
        let a = build(2_000, 0.01, 21);
        let b = build(2_000, 0.01, 22);
        let drift = DriftMonitor::default();
        drift.predict(NA_TOTAL, 1.0); // the join does far more work
        let obs = JoinObs {
            tracer: Tracer::disabled(),
            drift: Some(&drift),
            recorder: FlightRecorder::disabled(),
            progress: ProgressTracker::disabled(),
        };
        observed(&a, &b, cost_guided(4), &obs);
        assert!(!drift.all_within());
        assert!(drift.breaches().iter().any(|s| s.overrun));
    }

    #[test]
    fn drift_observations_match_target_names() {
        let a = build(2_000, 0.01, 23);
        let b = build(2_000, 0.01, 24);
        let r = join(&a, &b, cost_guided(2));
        let names: Vec<String> = r.drift_observations().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"na.total".to_string()));
        assert!(names.contains(&"da.total".to_string()));
        assert!(names.contains(&sjcm_core::join::na_target(1, 1)));
        assert!(names.contains(&sjcm_core::join::da_target(2, 1)));
    }

    /// `n` random rectangles with sides up to `side`, in `N` dimensions.
    fn items<const N: usize>(n: usize, side: f64, seed: u64) -> Vec<(Rect<N>, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = sjcm_geom::Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1.0)));
                let s = std::array::from_fn(|_| rng.gen_range(0.0..side));
                (Rect::centered(c, s), ObjectId(i as u32))
            })
            .collect()
    }

    fn packed<const N: usize>(n: usize, side: f64, seed: u64) -> RTree<N> {
        let config = RTreeConfig::paper(N);
        RTree::bulk_load(
            config,
            items(n, side, seed),
            sjcm_rtree::BulkLoad::Str,
            0.67,
        )
    }

    fn inserted<const N: usize>(n: usize, side: f64, seed: u64) -> RTree<N> {
        let mut tree = RTree::new(RTreeConfig::paper(N));
        for (r, id) in items(n, side, seed) {
            tree.insert(r, id);
        }
        tree
    }

    fn reloaded<const N: usize>(tree: &RTree<N>) -> RTree<N> {
        let mut store = sjcm_storage::InMemoryPageStore::with_default_page_size();
        let handle = tree.save(&mut store).unwrap();
        RTree::load(&store, handle, *tree.config()).unwrap()
    }

    /// The pricing `Pricer` replaced: Eq 6 on [`measured_params`] of
    /// each subtree's full statistics, scaled by the overlap of the two
    /// roots' own MBRs.
    fn reference_na<const N: usize>(r1: &RTree<N>, r2: &RTree<N>, a: NodeId, b: NodeId) -> f64 {
        let p1 = measured_params::<N>(&r1.subtree_stats(a));
        let p2 = measured_params::<N>(&r2.subtree_stats(b));
        let (m1, m2) = (r1.node(a).mbr(), r2.node(b).mbr());
        unit_cost_na(&p1, &p2) * overlap_fraction(m1.as_ref(), m2.as_ref())
    }

    /// Both role orders, 2, 3, 4 and 8 threads: every unit of the
    /// frontier `collect_frontier` hands that many workers is priced bit
    /// for bit as the reference prices it, and the governor admits on
    /// the same predicted NA.
    fn assert_prices_pinned<const N: usize>(t1: &RTree<N>, t2: &RTree<N>) {
        let ctx = ExecContext::default();
        for (r1, r2) in [(t1, t2), (t2, t1)] {
            for threads in [2, 3, 4, 8] {
                let config = JoinConfig::default();
                let mut coord =
                    Engine::new(r1, r2, config, [None, None], &ctx, CorrDomain::Coordinator);
                let units = coord.collect_frontier(threads * UNITS_PER_WORKER, threads);
                assert!(units.len() >= threads, "{N}-D, {threads} threads");
                let mut pricer = Pricer::new(r1, r2);
                for &(a, b) in &units {
                    let want = reference_na(r1, r2, a, b);
                    let price = pricer.unit_price(a, b);
                    assert_eq!(pricer.na(a, b).to_bits(), want.to_bits(), "{a:?} {b:?}");
                    assert_eq!(price, ((want * 16.0).round() as u64).max(1));
                }
            }
            let gov = Governor::new(GovernorConfig::default().with_na_budget(f64::MAX));
            gov.admit(r1, r2).unwrap();
            let whole = |r: &RTree<N>| measured_params::<N>(&r.subtree_stats(r.root_id()));
            let want = sjcm_core::join::join_cost_na(&whole(r1), &whole(r2));
            let got = gov.summary().unwrap().predicted_na;
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    fn pin_prices<const N: usize>(side: f64) {
        let (p1, p2) = (packed::<N>(6_000, side, 41), packed::<N>(6_000, side, 42));
        assert_prices_pinned(&p1, &p2);
        let (tall, short) = (inserted::<N>(6_000, side, 43), inserted::<N>(300, side, 44));
        assert!(tall.height() > short.height());
        assert_prices_pinned(&tall, &short);
        assert_prices_pinned(&reloaded(&tall), &reloaded(&short));
    }

    #[test]
    fn unit_prices_are_the_full_statistics_prices_bit_for_bit() {
        pin_prices::<1>(0.001);
        pin_prices::<2>(0.01);
        pin_prices::<3>(0.05);
    }

    /// A worker that panics fails the run with `WorkerPanicked` under
    /// both executors, whether it is worker 0 on the calling thread or
    /// a spawned one — and only once every worker has finished: the run
    /// returns (within the minute, not never), and each worker's span,
    /// the panicking one's included, has closed.
    #[test]
    fn a_panicking_worker_fails_the_run_once_every_worker_is_joined() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let a = build(2_000, 0.01, 31);
            let b = build(2_000, 0.01, 32);
            for sched in parallel(3) {
                for w in [0, 2] {
                    let tracer = Tracer::enabled();
                    let obs = JoinObs {
                        tracer: tracer.clone(),
                        ..JoinObs::default()
                    };
                    let err = JoinSession::new(&a, &b)
                        .scheduler(sched)
                        .observe(&obs)
                        .panic_in_worker(w)
                        .run()
                        .unwrap_err();
                    let want = format!("worker {w} panicked on purpose");
                    assert_eq!(err, JoinError::WorkerPanicked(want), "{sched:?}");
                    let records = tracer.records();
                    let workers = records.iter().filter(|r| r.name == "worker").count();
                    assert_eq!(workers, 3, "{sched:?}, worker {w} panicking");
                }
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("every run returns, and without a failed assertion");
    }

    #[test]
    fn frontier_descends_past_the_root() {
        // With 8 threads the unit target (32) exceeds the root fan-out
        // squared of these small trees, so the coordinator must descend
        // at least one extra level and still preserve all invariants.
        let a = build(4_000, 0.008, 17);
        let b = build(4_000, 0.008, 18);
        let seq = join(&a, &b, Scheduler::Sequential);
        let par = join(&a, &b, cost_guided(8));
        assert_eq!(par.pairs, seq.pairs);
        assert_eq!(par.na_total(), seq.na_total());
        assert!(par.da_total() >= seq.da_total());
    }
}
