//! Parallel spatial join — the §5 future-work item, after Brinkhoff et
//! al., *Parallel Processing of Spatial Joins Using R-trees* (ICDE 1996)
//! — scheduled by the paper's **own cost model**.
//!
//! # Scheduling
//!
//! Two parallel schedulers are provided (see
//! [`Scheduler`](crate::session::Scheduler)):
//!
//! * `Scheduler::RoundRobin` — the static scheme: the root-level
//!   overlapping entry pairs are dealt round-robin over the workers, no
//!   redistribution. Kept as the baseline the cost-guided scheduler is
//!   measured against.
//! * `Scheduler::CostGuided` — a coordinator descends the
//!   synchronized traversal level by level until it holds at least
//!   `threads × 4` overlapping node pairs (*work units*), prices each
//!   unit with the Eq-6 `NA` formula on the unit's **measured** subtree
//!   parameters ([`sjcm_core::join::unit_cost_na`] over
//!   [`sjcm_rtree::RTree::subtree_stats`]) scaled by the subtree MBRs'
//!   overlap fraction (see `unit_costs` below), seeds one deque per
//!   worker in LPT (longest-processing-time-first) order, and lets idle
//!   workers steal from the deque with the most estimated work left.
//!
//! # Invariants the tests pin down
//!
//! For **both** schedulers and any thread count:
//!
//! * the result pair multiset is identical to the sequential join (and
//!   `pairs` is additionally sorted — see below);
//! * NA is identical (the same node pairs are visited, and each access
//!   is charged exactly once, by the coordinator above the frontier and
//!   by exactly one worker below it).
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
//! `pairs` is sorted by `(R1 object, R2 object)` before returning, so
//! parallel output is deterministic and reproducible regardless of
//! scheduling — the sequential executor's emission order is a traversal
//! order no parallel schedule can reproduce cheaply.

use crate::degraded::{JoinError, RawSkip};
use crate::engine::Engine;
use crate::executor::{
    matched_entries, pinned_children, JoinConfig, JoinResultSet, MatchScratch, StealTally,
    WorkerTally,
};
use crate::session::{CorrDomain, ExecContext};
use sjcm_core::join::unit_cost_na;
use sjcm_core::{LevelParams, TreeParams};
use sjcm_obs::perfetto::{DRIFT_BREACH_SPAN as BREACH_SPAN, PROGRESS_SPAN};
use sjcm_obs::progress::ProgressTracker;
use sjcm_obs::{DriftMonitor, Tracer, DA_TOTAL, NA_TOTAL};
use sjcm_rtree::{Child, NodeId, ObjectId, RTree};
use sjcm_storage::{AccessStats, FlightRecorder};
use std::collections::{HashMap, VecDeque};
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
    /// every completed work unit. The first breach of each total is
    /// additionally marked with a zero-duration `drift-breach` child
    /// span under the breaching unit, so the Perfetto export shows
    /// *when* and *on whose lane* the model lost the run.
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
    /// schedulers register their per-worker cost ledgers, and the
    /// entry point marks completion — a `ProgressEngine` sampling the
    /// same tracker then turns the feed into fractions and ETAs.
    /// Results are byte-identical either way.
    pub progress: ProgressTracker,
}

/// Target number of work units per worker for the cost-guided
/// scheduler. More units mean finer-grained stealing but more frontier
/// expansion done serially by the coordinator.
const UNITS_PER_WORKER: usize = 4;

/// A join's worth of work-unit metadata held per worker arena: the
/// bytes the parallel schedulers charge against the governor's memory
/// budget per unit they materialize.
const UNIT_ARENA_BYTES: usize = std::mem::size_of::<(usize, WorkUnit)>();

// ---------------------------------------------------------------------
// Cost-guided scheduler.
// ---------------------------------------------------------------------

pub(crate) fn cost_guided_join<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    threads: usize,
    ctx: &ExecContext<'_>,
) -> Result<(JoinResultSet, Vec<RawSkip>), JoinError> {
    let gov = ctx.gov;
    let mut join_span = ctx.tracer.span("cost-guided-join");
    join_span.set("threads", threads);

    // 1. The coordinator descends until it holds enough units, charging
    //    the intermediate accesses itself (in sequential per-level
    //    order). Its recorder lanes stay on correlation domain 0.
    let mut coord = Engine::new(r1, r2, config, ctx, CorrDomain::Coordinator);
    let units = {
        let mut span = join_span.child("frontier-descent");
        let units = coord.collect_frontier(threads * UNITS_PER_WORKER, threads);
        span.set("units", units.len());
        span.set("na", coord.stats1.na_total() + coord.stats2.na_total());
        units
    };
    // The coordinator charges nothing below the frontier; publish its
    // tallies now so they cannot be double-counted when worker stats
    // are merged back into `coord` after the scope.
    coord.flush_progress();

    // The frontier units and the per-worker deques are the scheduler's
    // arena: charge them against the governor's memory budget before
    // committing to the parallel phase.
    let arena_bytes = (units.len() * UNIT_ARENA_BYTES) as u64;
    gov.reserve(arena_bytes)?;

    // 2. Price each unit with Eq 6 on its measured subtree parameters,
    //    then LPT-seed: hand units out in descending cost order, each to
    //    the currently least-loaded deque. Ties broken by unit index so
    //    the seeding is deterministic. `plan[i]` remembers the worker
    //    unit `i` was seeded to — per-worker tallies are attributed by
    //    this plan (see the module docs).
    let mut schedule_span = join_span.child("schedule");
    let costs = unit_costs(r1, r2, &units);
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_unstable_by(|&i, &j| costs[j].cmp(&costs[i]).then(i.cmp(&j)));
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); threads];
    let mut loads = vec![0u64; threads];
    let mut plan = vec![0usize; units.len()];
    for i in order {
        let w = (0..threads).min_by_key(|&w| (loads[w], w)).unwrap();
        plan[i] = w;
        queues[w].push_back(i);
        loads[w] += costs[i];
    }
    // Register the planned per-worker ledger with the progress hub:
    // LPT unit counts and Eq-6 cost per deque, before any worker runs.
    let planned: Vec<(u64, u64)> = queues
        .iter()
        .zip(&loads)
        .map(|(q, &load)| (q.len() as u64, load))
        .collect();
    ctx.progress.set_schedule(&planned);
    let deques: Vec<Deque> = queues
        .into_iter()
        .zip(loads)
        .map(|(queue, load)| Deque {
            queue: Mutex::new(queue),
            remaining: AtomicU64::new(load),
        })
        .collect();
    schedule_span.set("units", units.len());
    schedule_span.set("cost_total", costs.iter().sum::<u64>());
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
    type WorkerOutput = (
        Vec<(usize, WorkerTally)>,
        StealTally,
        JoinResultSet,
        Vec<RawSkip>,
    );
    let worker_outputs: Vec<Result<WorkerOutput, JoinError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let deques = &deques;
                let units = &units;
                let costs = &costs;
                let plan = &plan;
                let start = &start;
                // One context clone per worker (cheap `Arc` handles):
                // the same per-worker hook cloning as before, behind
                // the one seam.
                let wctx = ctx.clone();
                let na_live = &na_live;
                let da_live = &da_live;
                scope.spawn(move || {
                    let mut worker_span = wctx.tracer.span_under(join_id, "worker");
                    worker_span.set("worker", w);
                    let mut exec = Engine::new(r1, r2, config, &wctx, CorrDomain::Coordinator);
                    let mut per_unit: Vec<(usize, WorkerTally)> = Vec::new();
                    let mut steal = StealTally::default();
                    // First-breach markers, per worker (the monitor's
                    // overrun is sticky, so one marker per lane is the
                    // signal; repeating it every unit would be noise).
                    let mut na_breach_marked = false;
                    let mut da_breach_marked = false;
                    start.wait();
                    while let Some((i, stolen)) = next_unit(deques, costs, w, &mut steal) {
                        steal.units_executed += 1;
                        let mut unit_span = worker_span.child("unit");
                        let (a, b) = units[i];
                        // Fresh buffers per unit: see the module docs.
                        // The unit is its own buffer-residency domain,
                        // so its accesses get their own correlation id.
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
                        per_unit.push((
                            i,
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
                        unit_span.set("na", na);
                        unit_span.set("da", da);
                        unit_span.set("pairs", pair_count);
                        if wctx.progress.is_enabled() {
                            // Retire the unit's Eq-6 cost from its
                            // *planned* worker's ledger (steal-aware —
                            // the same attribution `WorkerTally` uses)
                            // and publish the tallies so samplers see
                            // the unit boundary immediately.
                            wctx.progress.unit_done(plan[i], costs[i]);
                            exec.flush_progress();
                            // Zero-duration progress instant on this
                            // worker's Perfetto lane.
                            let mut p = unit_span.child(PROGRESS_SPAN);
                            p.set("unit", i);
                            p.set("cost", costs[i]);
                        }
                        if let Some(drift) = wctx.drift {
                            let na_now = na_live.fetch_add(na, Ordering::Relaxed) + na;
                            let da_now = da_live.fetch_add(da, Ordering::Relaxed) + da;
                            let na_breach = drift.observe_in_flight(NA_TOTAL, na_now as f64);
                            let da_breach = drift.observe_in_flight(DA_TOTAL, da_now as f64);
                            if na_breach && !na_breach_marked {
                                na_breach_marked = true;
                                let mut b = unit_span.child(BREACH_SPAN);
                                b.set("target", NA_TOTAL);
                                b.set("at", na_now);
                            }
                            if da_breach && !da_breach_marked {
                                da_breach_marked = true;
                                let mut b = unit_span.child(BREACH_SPAN);
                                b.set("target", DA_TOTAL);
                                b.set("at", da_now);
                            }
                        }
                    }
                    worker_span.set("units", steal.units_executed);
                    worker_span.set("stolen", steal.units_stolen);
                    (
                        per_unit,
                        steal,
                        JoinResultSet {
                            pairs: exec.pairs,
                            pair_count: exec.pair_count,
                            stats1: exec.stats1,
                            stats2: exec.stats2,
                            buffers1: exec.buf1.counters(),
                            buffers2: exec.buf2.counters(),
                            ..JoinResultSet::default()
                        },
                        exec.skips,
                    )
                })
            })
            .collect();
        // Join every handle before propagating a failure, so one dead
        // worker cannot leave others unjoined (a panic payload consumed
        // via `join` also will not re-raise at scope exit).
        handles
            .into_iter()
            .map(|h| h.join().map_err(JoinError::from_panic))
            .collect()
    });

    let mut workers = vec![WorkerTally::default(); threads];
    let mut steals = Vec::with_capacity(threads);
    let mut buffers1 = coord.buf1.counters();
    let mut buffers2 = coord.buf2.counters();
    let mut raw = std::mem::take(&mut coord.skips);
    for output in worker_outputs {
        let (per_unit, steal, r, skips) = output?;
        for (i, t) in per_unit {
            let tally = &mut workers[plan[i]];
            tally.units += t.units;
            tally.na += t.na;
            tally.da += t.da;
            tally.pair_count += t.pair_count;
        }
        steals.push(steal);
        buffers1.merge(&r.buffers1);
        buffers2.merge(&r.buffers2);
        coord.pairs.extend(r.pairs);
        coord.pair_count += r.pair_count;
        coord.stats1.merge(&r.stats1);
        coord.stats2.merge(&r.stats2);
        raw.extend(skips);
    }
    gov.release(arena_bytes);
    join_span.set("na", coord.stats1.na_total() + coord.stats2.na_total());
    join_span.set("da", coord.stats1.da_total() + coord.stats2.da_total());
    join_span.set("pairs", coord.pair_count);
    Ok((
        JoinResultSet {
            pairs: coord.pairs,
            pair_count: coord.pair_count,
            stats1: coord.stats1,
            stats2: coord.stats2,
            workers,
            buffers1,
            buffers2,
            steals,
        },
        raw,
    ))
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

/// Eq-6 price of every unit, on measured subtree parameters. Subtree
/// statistics are cached per node id — at a given frontier depth each
/// subtree appears in many units. Costs are scaled to integers for the
/// atomic bookkeeping; only relative magnitudes matter.
///
/// Eq 6 assumes both node populations spread over the *whole*
/// workspace, but a unit joins two localized subtrees whose MBRs may
/// overlap anywhere from a sliver to fully — the dominant factor in the
/// unit's actual NA. In the spirit of the paper's §4.2 global→local
/// transformation, the Eq-6 price is therefore scaled per dimension by
/// the fraction of the smaller subtree's extent that lies in the MBR
/// intersection.
fn unit_costs<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    units: &[(NodeId, NodeId)],
) -> Vec<u64> {
    let mut cache1: HashMap<NodeId, TreeParams<N>> = HashMap::new();
    let mut cache2: HashMap<NodeId, TreeParams<N>> = HashMap::new();
    units
        .iter()
        .map(|&(a, b)| {
            let p1 = cache1.entry(a).or_insert_with(|| subtree_params(r1, a));
            let p2 = cache2.entry(b).or_insert_with(|| subtree_params(r2, b));
            let cost = unit_cost_na(p1, p2) * overlap_fraction(r1, r2, a, b);
            ((cost * 16.0).round() as u64).max(1)
        })
        .collect()
}

/// Per-dimension fraction of the smaller of the two subtree MBR extents
/// covered by their intersection, multiplied over dimensions. 1.0 for
/// nested/co-located subtrees, → 0 for sliver overlaps. Shared with the
/// degraded-result pricing, which uses the same factor to price
/// *forfeited* sub-joins.
pub(crate) fn overlap_fraction<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    a: NodeId,
    b: NodeId,
) -> f64 {
    let (m1, m2) = match (r1.node(a).mbr(), r2.node(b).mbr()) {
        (Some(m1), Some(m2)) => (m1, m2),
        _ => return 1.0,
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

pub(crate) fn subtree_params<const N: usize>(tree: &RTree<N>, id: NodeId) -> TreeParams<N> {
    let stats = tree.subtree_stats(id);
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
// Round-robin scheduler.
// ---------------------------------------------------------------------

pub(crate) fn round_robin_join<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    threads: usize,
    ctx: &ExecContext<'_>,
) -> Result<(JoinResultSet, Vec<RawSkip>), JoinError> {
    let gov = ctx.gov;
    let mut join_span = ctx.tracer.span("round-robin-join");
    join_span.set("threads", threads);
    // Root-level work units: overlapping (child1, child2) pairs, or
    // pinned pairs when heights differ at the root. Units keep their
    // global ordinal so governed runs can gate them deterministically.
    let units = root_work_units(r1, r2, &config);
    let arena_bytes = (units.len() * UNIT_ARENA_BYTES) as u64;
    gov.reserve(arena_bytes)?;
    let mut shards: Vec<Vec<(usize, WorkUnit)>> = vec![Vec::new(); threads];
    for (i, u) in units.into_iter().enumerate() {
        shards[i % threads].push((i, u));
    }
    // Round-robin has no cost model: the ledger prices every root unit
    // at one, so per-worker progress is units retired over units dealt.
    let planned: Vec<(u64, u64)> = shards
        .iter()
        .map(|s| (s.len() as u64, s.len() as u64))
        .collect();
    ctx.progress.set_schedule(&planned);

    let join_id = join_span.id();
    let results: Vec<Result<(JoinResultSet, Vec<RawSkip>), JoinError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(w, shard)| {
                    let wctx = ctx.clone();
                    scope.spawn(move || {
                        let mut span = wctx.tracer.span_under(join_id, "worker");
                        span.set("worker", w);
                        span.set("units", shard.len());
                        // One correlation domain per shard: its buffers
                        // persist across all of the shard's units.
                        run_shard(r1, r2, config, shard, &wctx, CorrDomain::Shard(w))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(JoinError::from_panic))
                .collect()
        });

    let mut pairs = Vec::new();
    let mut pair_count = 0;
    let mut stats1 = AccessStats::new();
    let mut stats2 = AccessStats::new();
    let mut workers = Vec::with_capacity(threads);
    let mut steals = Vec::with_capacity(threads);
    let mut buffers1 = sjcm_storage::BufferCounters::default();
    let mut buffers2 = sjcm_storage::BufferCounters::default();
    let mut raw = Vec::new();
    for (shard, result) in shards.iter().zip(results) {
        let (r, skips) = result?;
        workers.push(WorkerTally {
            units: shard.len() as u64,
            na: r.na_total(),
            da: r.da_total(),
            pair_count: r.pair_count,
        });
        // No stealing in this mode: every shard executes exactly what
        // it was dealt.
        steals.push(StealTally {
            units_executed: shard.len() as u64,
            ..StealTally::default()
        });
        buffers1.merge(&r.buffers1);
        buffers2.merge(&r.buffers2);
        pairs.extend(r.pairs);
        pair_count += r.pair_count;
        stats1.merge(&r.stats1);
        stats2.merge(&r.stats2);
        raw.extend(skips);
    }
    gov.release(arena_bytes);
    join_span.set("na", stats1.na_total() + stats2.na_total());
    join_span.set("da", stats1.da_total() + stats2.da_total());
    join_span.set("pairs", pair_count);
    Ok((
        JoinResultSet {
            pairs,
            pair_count,
            stats1,
            stats2,
            workers,
            buffers1,
            buffers2,
            steals,
        },
        raw,
    ))
}

/// One root-level work unit of the static schedulers (round-robin and
/// the governed deal). Units carry a global ordinal when dealt, so the
/// governor can gate them deterministically across schedulers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WorkUnit {
    /// Both root children descend.
    Pair(Child, Child),
    /// Both roots are leaves: object-pair output at the roots (no work
    /// to parallelize — emitted by whichever shard holds this unit).
    Emit(ObjectId, ObjectId),
}

pub(crate) fn root_work_units<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: &JoinConfig,
) -> Vec<WorkUnit> {
    let n1 = r1.node(r1.root_id());
    let n2 = r2.node(r2.root_id());
    let pred = config.predicate;
    let mut scratch = MatchScratch::new();
    let mut units = Vec::new();
    match (n1.is_leaf(), n2.is_leaf()) {
        (true, true) => {
            for (c1, c2) in matched_entries(n1, n2, config, &mut scratch) {
                units.push(WorkUnit::Emit(c1.object(), c2.object()));
            }
        }
        (false, false) => {
            for (c1, c2) in matched_entries(n1, n2, config, &mut scratch) {
                units.push(WorkUnit::Pair(c1, c2));
            }
        }
        (false, true) => {
            if let Some(m2) = n2.mbr() {
                for c1 in pinned_children(&n1.entries, &m2, pred, config.kernel, &mut scratch) {
                    units.push(WorkUnit::Pair(Child::Node(c1), Child::Node(r2.root_id())));
                }
            }
        }
        (true, false) => {
            if let Some(m1) = n1.mbr() {
                for c2 in pinned_children(&n2.entries, &m1, pred, config.kernel, &mut scratch) {
                    units.push(WorkUnit::Pair(Child::Node(r1.root_id()), Child::Node(c2)));
                }
            }
        }
    }
    units
}

/// Runs one static shard: the assigned ordinal-tagged root-level pairs
/// through a worker executor whose buffers persist across units (the
/// legacy behaviour, kept bit-for-bit so `RoundRobin` stays an honest
/// baseline). The context's governor gates every `Pair` unit at its
/// `ctx.checkpoint` boundary; a refused unit is forfeited exactly like
/// a fault-forfeited pair — recorded as a skip, priced later, never
/// silently dropped. An unlimited governor is one `Option` check per
/// unit.
pub(crate) fn run_shard<const N: usize>(
    r1: &RTree<N>,
    r2: &RTree<N>,
    config: JoinConfig,
    units: &[(usize, WorkUnit)],
    ctx: &ExecContext<'_>,
    domain: CorrDomain,
) -> (JoinResultSet, Vec<RawSkip>) {
    // The shard is one buffer-residency domain: its correlation id and
    // the progress-ledger worker index both come from `domain`.
    let mut shard = Engine::new(r1, r2, config, ctx, domain);
    let worker = domain.worker_index();
    for &(ordinal, unit) in units {
        match unit {
            WorkUnit::Emit(a, b) => {
                // Emissions carry no I/O; they always execute.
                shard.pair_count += 1;
                if config.collect_pairs {
                    shard.pairs.push((a, b));
                }
                ctx.unit_done(ordinal);
            }
            WorkUnit::Pair(c1, c2) => {
                let (id1, id2) = (c1.node(), c2.node());
                // Work-unit boundary: the governor's cancellation
                // point. A refusal forfeits the whole subtree pair,
                // priced like a fault forfeit.
                if !ctx.checkpoint(ordinal) {
                    shard.skips.push(RawSkip {
                        tree: 1,
                        n1: id1,
                        n2: id2,
                    });
                    shard.progress.forfeit(r1.node(id1).level);
                    ctx.forfeit_unit(ordinal);
                    continue;
                }
                // The same probe the sequential executor makes before
                // charging this pair (roots are exempt inside `probe`).
                if shard.faults.is_enabled() && !shard.probe(id1, id2) {
                    continue;
                }
                // Root-child reads are charged like in the sequential
                // executor (unless the unit pins a root itself).
                if id1 != r1.root_id() {
                    shard.access1(id1);
                }
                if id2 != r2.root_id() {
                    shard.access2(id2);
                }
                shard.visit(id1, id2);
                ctx.unit_done(ordinal);
            }
        }
        if ctx.progress.is_enabled() {
            ctx.progress.unit_done(worker, 1);
            shard.flush_progress();
        }
    }
    shard.into_parts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{JoinSession, Scheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::Rect;
    use sjcm_rtree::RTreeConfig;

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

    fn sorted(mut pairs: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn parallel_matches_sequential_pairs() {
        let a = build(2_000, 0.01, 1);
        let b = build(2_000, 0.01, 2);
        let seq = sorted(join(&a, &b, Scheduler::Sequential).pairs);
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
        assert_eq!(sorted(seq.pairs.clone()), par.pairs);
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
            assert_eq!(par.pairs, sorted(seq.pairs.clone()), "{sched:?}");
            assert_eq!(par.na_total(), seq.na_total(), "{sched:?}");
            // Role-swapped as well (pinned tree on the other side).
            let swapped = join(&b, &a, sched);
            let seq_swapped = join(&b, &a, Scheduler::Sequential);
            assert_eq!(
                swapped.pairs,
                sorted(seq_swapped.pairs.clone()),
                "{sched:?}"
            );
            assert_eq!(swapped.na_total(), seq_swapped.na_total(), "{sched:?}");
        }
    }

    #[test]
    fn parallel_handles_leaf_roots() {
        let a = build(5, 0.2, 11);
        let b = build(5, 0.2, 12);
        assert_eq!(a.height(), 1);
        let seq = join(&a, &b, Scheduler::Sequential);
        for sched in parallel(2) {
            let par = join(&a, &b, sched);
            assert_eq!(par.pairs, sorted(seq.pairs.clone()), "{sched:?}");
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
        // Buffer counters agree with the access tallies: every miss is
        // a DA, every hit an absorbed NA.
        assert_eq!(traced.buffers1.misses, traced.stats1.da_total());
        assert_eq!(
            traced.buffers1.hits,
            traced.stats1.na_total() - traced.stats1.da_total()
        );
        assert_eq!(traced.buffers2.misses, traced.stats2.da_total());
    }

    #[test]
    fn recorded_join_is_identical_and_replay_is_exact() {
        use sjcm_storage::recorder::RecordedPolicy;
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
        // Every access produced exactly one event, none dropped.
        let (events, dropped) = recorder.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len() as u64, recorded.na_total());
        // Replaying the recorded policy (the default is Path)
        // reproduces the live counters exactly — totals and per-level.
        let out = sjcm_storage::replay(&events, RecordedPolicy::Path);
        assert_eq!(out.kind_mismatches, 0);
        assert_eq!(out.stats1, recorded.stats1);
        assert_eq!(out.stats2, recorded.stats2);
    }

    #[test]
    fn round_robin_trace_replays_exactly_too() {
        use sjcm_storage::recorder::RecordedPolicy;
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
        let (events, dropped) = recorder.drain();
        assert_eq!(dropped, 0);
        // Shard buffers persist across units, so per-shard correlation
        // domains are what makes this replay exact.
        let out = sjcm_storage::replay(&events, RecordedPolicy::Path);
        assert_eq!(out.kind_mismatches, 0);
        assert_eq!(out.stats1, recorded.stats1);
        assert_eq!(out.stats2, recorded.stats2);
    }

    #[test]
    fn sequential_fallback_records_too() {
        use sjcm_storage::recorder::RecordedPolicy;
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
        let (events, _) = recorder.drain();
        assert_eq!(events.len() as u64, recorded.na_total());
        assert!(events.iter().all(|e| e.corr == 0), "one residency domain");
        let out = sjcm_storage::replay(&events, RecordedPolicy::Path);
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

    #[test]
    fn frontier_descends_past_the_root() {
        // With 8 threads the unit target (32) exceeds the root fan-out
        // squared of these small trees, so the coordinator must descend
        // at least one extra level and still preserve all invariants.
        let a = build(4_000, 0.008, 17);
        let b = build(4_000, 0.008, 18);
        let seq = join(&a, &b, Scheduler::Sequential);
        let par = join(&a, &b, cost_guided(8));
        assert_eq!(par.pairs, sorted(seq.pairs.clone()));
        assert_eq!(par.na_total(), seq.na_total());
        assert!(par.da_total() >= seq.da_total());
    }
}
