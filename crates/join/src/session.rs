//! The front door of the join executors: a [`JoinSession`] builder
//! that holds the one `ExecContext` a tree join runs with, bundling
//! *all* cross-cutting concerns — span tracer, drift monitor,
//! page-access flight recorder (with its correlation-id allocator),
//! live progress hub, and governor (admission, deadline/cancellation,
//! the `Degrade` cap) — and a [`PbsmSession`] builder for
//! the partition join, which has none of them.
//!
//! The three tree-join executors (sequential, dealt, cost-guided) start
//! at [`JoinSession::run`], so a new cross-cutting capability lands in
//! exactly one seam: `ExecContext`. PBSM starts at [`PbsmSession::run`].
//! `tests/oracle.rs` checks every scheduler × kernel × predicate ×
//! dimension of the tree joins, and PBSM in cells on either side of its
//! batched-sweep gate, against the brute-force nested loop.
//!
//! ```
//! use sjcm_join::session::{JoinSession, Scheduler};
//! use sjcm_join::JoinConfig;
//! use sjcm_rtree::{ObjectId, RTree, RTreeConfig};
//! use sjcm_geom::Rect;
//!
//! let mut a = RTree::<2>::new(RTreeConfig::with_capacity(8));
//! let mut b = RTree::<2>::new(RTreeConfig::with_capacity(8));
//! a.insert(Rect::new([0.1, 0.1], [0.3, 0.3]).unwrap(), ObjectId(1));
//! b.insert(Rect::new([0.2, 0.2], [0.4, 0.4]).unwrap(), ObjectId(2));
//! let out = JoinSession::new(&a, &b)
//!     .config(JoinConfig::default())
//!     .scheduler(Scheduler::CostGuided { threads: 2 })
//!     .run()
//!     .unwrap();
//! assert!(out.is_exact());
//! assert_eq!(out.result.pairs, vec![(ObjectId(1), ObjectId(2))]);
//! ```

use crate::degraded::{DegradedJoinResult, JoinError};
use crate::executor::{JoinConfig, JoinPredicate, Side};
use crate::governor::Governor;
use crate::parallel::JoinObs;
use crate::pbsm::DegradedPbsmResult;
use sjcm_core::join::JoinWindows;
use sjcm_geom::Rect;
use sjcm_obs::progress::ProgressTracker;
use sjcm_obs::{DriftMonitor, Tracer, UnitLedger};
use sjcm_rtree::{ObjectId, RTree};
use sjcm_storage::{FlightRecorder, RecorderLane};

/// The recorder correlation-id allocator: one buffer-residency domain →
/// one correlation id, with the scheme documented (and unit-tested)
/// here instead of re-derived in each executor.
///
/// | domain | correlation id |
/// |---|---|
/// | [`CorrDomain::Coordinator`] (also the sequential join) | `0` |
/// | [`CorrDomain::Unit`]`(i)` — cost-guided work unit `i` | `i + 1` |
/// | [`CorrDomain::Shard`]`(w)` — static shard of worker `w` | `w + 1` |
///
/// A domain is a buffer-residency scope: trace replay simulates one
/// buffer per `(tree, corr)` lane, so every scope whose buffers start
/// cold must get its own id. The sequential join and the cost-guided
/// coordinator share id 0 because both run one warm buffer from the
/// root down. Unit and shard ids may collide with each other numerically
/// — they never coexist in one run (a run is either unit-scheduled or
/// shard-scheduled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CorrDomain {
    /// The sequential executor, or the parallel coordinator above the
    /// frontier: one warm buffer from the root down.
    Coordinator,
    /// One cost-guided work unit (buffers reset at every unit
    /// boundary, so each unit is its own residency domain).
    Unit(usize),
    /// One static shard (round-robin or governed deal): buffers persist
    /// across the shard's units.
    Shard(usize),
}

impl CorrDomain {
    /// The correlation id recorded on every page-access event charged
    /// inside this domain.
    pub(crate) fn corr(self) -> u32 {
        match self {
            CorrDomain::Coordinator => 0,
            CorrDomain::Unit(i) => (i + 1) as u32,
            CorrDomain::Shard(w) => (w + 1) as u32,
        }
    }

    /// The worker a dealt shard's [`crate::WorkerTally`] is attributed
    /// to (the coordinator counts as worker 0 — it only ever runs units
    /// in single-domain runs).
    pub(crate) fn worker_index(self) -> usize {
        match self {
            CorrDomain::Coordinator => 0,
            CorrDomain::Unit(i) => i,
            CorrDomain::Shard(w) => w,
        }
    }
}

/// Which traversal/scheduling strategy a [`JoinSession`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The depth-first synchronized traversal of \[BKS93\], one thread.
    /// Its emission order is the order every scheduler returns `pairs`
    /// in.
    #[default]
    Sequential,
    /// The cost-guided parallel scheduler: Eq-6-priced frontier units,
    /// LPT deques, work stealing. `threads = 1` falls back to the
    /// sequential traversal.
    CostGuided {
        /// Worker count; must be ≥ 1 ([`JoinError::InvalidThreads`]).
        threads: usize,
    },
    /// The static round-robin baseline: root-level units dealt
    /// `i mod threads`, no redistribution; same `threads = 1`
    /// fallback.
    RoundRobin {
        /// Worker count; must be ≥ 1 ([`JoinError::InvalidThreads`]).
        threads: usize,
    },
}

impl Scheduler {
    /// Worker threads this scheduler runs on (`Sequential` is one).
    pub fn threads(self) -> usize {
        match self {
            Scheduler::Sequential => 1,
            Scheduler::CostGuided { threads } | Scheduler::RoundRobin { threads } => threads,
        }
    }
}

/// Every cross-cutting concern of a tree join, bundled behind one
/// seam: executors call `ctx.lanes(..)` for recorder correlation
/// domains and the unit hooks — `arm_units` once, then `checkpoint` and
/// `unit_done` per unit — the only way an executor
/// reports a unit. The hooks write the run's one unit ledger
/// ([`sjcm_obs::UnitLedger`], the progress hub's) and tell the
/// governor, which counts what ran and what it refused. A run neither
/// observed nor governed pays one `Option` check per hook. The default
/// value has every concern disabled and an unlimited governor.
///
/// Cloning is cheap (`Arc` handles all the way down): parallel
/// schedulers clone one context per worker thread.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecContext<'a> {
    /// Span collector (disabled = one `Option` check per span site).
    pub(crate) tracer: Tracer,
    /// In-flight drift monitor, if the caller registered predictions.
    pub(crate) drift: Option<&'a DriftMonitor>,
    /// Page-access flight recorder; correlation ids are allocated
    /// through [`ExecContext::lanes`] — see [`CorrDomain`].
    pub(crate) recorder: FlightRecorder,
    /// Live progress hub (per-level NA/DA feed, pairs, completion).
    pub(crate) progress: ProgressTracker,
    /// Admission control, the deadline and the per-unit refusals (a
    /// shared handle: the caller keeps reading its log).
    pub(crate) gov: Governor,
    /// The run's one unit ledger (the progress hub's), written by the
    /// unit hooks only.
    ledger: UnitLedger,
    /// Test builds only: engines run the traversal their stack walk
    /// replaced, the reference it is pinned to.
    #[cfg(test)]
    pub(crate) reference: bool,
    /// Test builds only: the worker whose [`ExecContext::panic_switch`]
    /// fires.
    #[cfg(test)]
    pub(crate) panic_worker: Option<usize>,
}

impl ExecContext<'_> {
    /// Test builds only: panics when `worker` is the one
    /// [`JoinSession::panic_in_worker`] named. Both executors call it as
    /// a worker starts its units (the cost-guided one past its start
    /// barrier).
    #[cfg(test)]
    pub(crate) fn panic_switch(&self, worker: usize) {
        if self.panic_worker == Some(worker) {
            panic!("worker {worker} panicked on purpose");
        }
    }

    /// Allocates the pair of recorder lanes (tree 1, tree 2) for a
    /// buffer-residency domain, with the correlation ids of the
    /// documented [`CorrDomain`] scheme.
    pub(crate) fn lanes(&self, domain: CorrDomain) -> (RecorderLane, RecorderLane) {
        let corr = domain.corr();
        let mut lane1 = self.recorder.lane(1);
        let mut lane2 = self.recorder.lane(2);
        lane1.set_corr(corr);
        lane2.set_corr(corr);
        (lane1, lane2)
    }

    /// Arms the unit ledger once, before any unit runs: `prices[i]` is
    /// unit `i`'s price. `values` (each unit's expected pairs per
    /// price) also arms the governor, which decides there which units
    /// it refuses.
    pub(crate) fn arm_units(&self, prices: &[u64], values: Option<&[f64]>) {
        self.ledger
            .arm(prices.len() as u64, prices.iter().sum::<u64>());
        if let Some(values) = values {
            self.gov.arm_units(prices, values);
        }
    }

    /// The governor's cancellation point at unit `ordinal`'s boundary:
    /// `true` admits it, in flight until [`ExecContext::unit_done`];
    /// `false` forfeits it and its price (the caller records what it
    /// skipped).
    pub(crate) fn checkpoint(&self, ordinal: usize, price: u64) -> bool {
        if self.gov.admit_unit(ordinal) {
            self.ledger.admit(price);
            return true;
        }
        self.gov.note_forfeit();
        self.ledger.forfeit(price);
        false
    }

    /// Retires an admitted unit that ran to completion.
    pub(crate) fn unit_done(&self, price: u64) {
        self.ledger.done(price);
        self.gov.note_unit_done();
    }
}

/// Builder for one join execution over two R-trees. See the module
/// docs; [`JoinSession::run`] executes under the configured
/// [`Scheduler`] with every cross-cutting concern routed through the
/// one `ExecContext` the builder methods fill in.
#[derive(Debug)]
pub struct JoinSession<'a, const N: usize> {
    r1: &'a RTree<N>,
    r2: &'a RTree<N>,
    config: JoinConfig,
    windows: JoinWindows<N>,
    scheduler: Scheduler,
    ctx: ExecContext<'a>,
}

impl<'a, const N: usize> JoinSession<'a, N> {
    /// A session joining `r1 × r2` with default configuration: the
    /// sequential scheduler, default [`JoinConfig`], no query window,
    /// every observability hook disabled, unlimited governor.
    pub fn new(r1: &'a RTree<N>, r2: &'a RTree<N>) -> Self {
        JoinSession {
            r1,
            r2,
            config: JoinConfig::default(),
            windows: [None, None],
            scheduler: Scheduler::default(),
            ctx: ExecContext::default(),
        }
    }

    /// Test builds only: runs every engine on the reference traversal
    /// (see `crate::reference`).
    #[cfg(test)]
    pub(crate) fn reference_traversal(mut self) -> Self {
        self.ctx.reference = true;
        self
    }

    /// Test builds only: parallel worker `worker` panics as it starts
    /// its units (see [`ExecContext::panic_switch`]).
    #[cfg(test)]
    pub(crate) fn panic_in_worker(mut self, worker: usize) -> Self {
        self.ctx.panic_worker = Some(worker);
        self
    }

    /// Sets the join configuration (buffer policy, predicate, kernel,
    /// pair collection).
    pub fn config(mut self, config: JoinConfig) -> Self {
        self.config = config;
        self
    }

    /// Restricts one tree to the objects whose MBR meets `window` — the
    /// join of a window selection with the other tree, answered in one
    /// traversal: every descent step drops the windowed tree's entries
    /// that miss the window, so subtrees outside it are never read. The
    /// result is exactly the unwindowed join's pairs whose `side` object
    /// meets `window`, in the unwindowed order, under every scheduler;
    /// a window on each side keeps the pairs that pass both. The
    /// governor admits and prices units, and a degraded result prices
    /// forfeited subtrees, on the unwindowed join — an upper bound on
    /// what a windowed run reads and returns.
    pub fn window(mut self, side: Side, window: Rect<N>) -> Self {
        self.windows[side as usize] = Some(window);
        self
    }

    /// Sets the scheduling strategy.
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Adopts a [`JoinObs`] observability bundle: tracer, drift
    /// monitor, flight recorder, progress hub. Handles are shared
    /// (`Arc` clones), so the caller keeps draining the same recorder
    /// and sampling the same progress tracker.
    pub fn observe(mut self, obs: &JoinObs<'a>) -> Self {
        self.ctx.tracer = obs.tracer.clone();
        self.ctx.drift = obs.drift;
        self.ctx.recorder = obs.recorder.clone();
        self.ctx.progress = obs.progress.clone();
        self
    }

    /// Arms the page-access flight recorder (shared handle — drain it
    /// after the run).
    pub fn record(mut self, recorder: &FlightRecorder) -> Self {
        self.ctx.recorder = recorder.clone();
        self
    }

    /// Puts the run under a governor: admission control before any
    /// traversal, the `Degrade` cap and unit-boundary cancellation
    /// checkpoints.
    pub fn govern(mut self, gov: &Governor) -> Self {
        self.ctx.gov = gov.clone();
        self
    }

    /// Executes the join on one of three executors:
    ///
    /// * one thread and no gating governor — \[BKS93\] Figure 2 from
    ///   the root pair, verbatim: the reference every other path is
    ///   tested against;
    /// * [`Scheduler::RoundRobin`] at two or more threads, and *every*
    ///   scheduler when the governor
    ///   [gates units](Governor::is_unit_gated) — the dealt executor:
    ///   the root pair's child pairs dealt once to static shards, whose
    ///   unit boundaries are what the governor gates;
    /// * [`Scheduler::CostGuided`] at two or more threads otherwise —
    ///   the frontier of Eq-6-priced units with LPT deques and work
    ///   stealing.
    ///
    /// Result shape, the same on all three: `pairs` in the sequential
    /// traversal's emission order — the parallel executors concatenate
    /// their units' pair runs in unit order, which is that order (see
    /// the [`parallel`](crate::parallel) module docs) — so any two
    /// schedulers and thread counts return equal vectors, and a run
    /// that forfeits units returns the rest in the same order. Nothing
    /// is sorted; a caller that wants `(R1 object, R2 object)` order
    /// sorts its copy. Query windows ([`JoinSession::window`]) are part
    /// of the one descent step all three executors share, so a windowed
    /// run is the same statement about a smaller join: every scheduler
    /// returns the unwindowed sequential vector minus the pairs a
    /// window excludes, and charges the same NA. With
    /// [`Scheduler::CostGuided`] or
    /// [`Scheduler::RoundRobin`], `threads = 1` falls back to the
    /// sequential traversal under a `sequential-join` span and
    /// `threads = 0` is [`JoinError::InvalidThreads`].
    ///
    /// `Err` is reserved for failures that make the run unusable: a
    /// thread count of zero, a distance ε that is negative or NaN
    /// ([`JoinError::InvalidDistance`]), an admission rejection, a
    /// worker panic.
    /// Work the governor forfeits comes back priced on the
    /// [`DegradedJoinResult`] instead; only a governed run forfeits
    /// any.
    pub fn run(self) -> Result<DegradedJoinResult, JoinError> {
        let JoinSession {
            r1,
            r2,
            config,
            windows,
            scheduler,
            mut ctx,
        } = self;
        ctx.ledger = ctx.progress.ledger();
        let threads = scheduler.threads();
        if threads == 0 {
            return Err(JoinError::InvalidThreads);
        }
        if let JoinPredicate::WithinDistance(eps) = config.predicate {
            // A negative ε would join as |ε| (the test squares it) and
            // NaN would join nothing.
            if eps.is_nan() || eps < 0.0 {
                return Err(JoinError::InvalidDistance(eps));
            }
        }
        ctx.gov.admit(r1, r2)?;
        // The parallel schedulers trace their one-worker fallback under
        // a span of its own.
        let fallback_span = (scheduler != Scheduler::Sequential && threads == 1)
            .then(|| ctx.tracer.span("sequential-join"));
        let gated = ctx.gov.is_unit_gated();
        let (result, raw) = if threads == 1 && !gated {
            let result = crate::executor::run_sequential(r1, r2, config, windows, &ctx);
            (result, Vec::new())
        } else if gated || matches!(scheduler, Scheduler::RoundRobin { .. }) {
            crate::parallel::dealt_join(r1, r2, config, windows, scheduler, &ctx)?
        } else {
            let result = crate::parallel::cost_guided_join(r1, r2, config, windows, threads, &ctx)?;
            (result, Vec::new())
        };
        if let Some(mut span) = fallback_span {
            span.set("na", result.na_total());
            span.set("da", result.da_total());
            span.set("pairs", result.pair_count);
        }
        // The run is over: later progress samples report 1.0.
        ctx.progress.finish();
        let degraded = crate::degraded::finish_degraded(r1, r2, config.predicate, result, raw);
        ctx.gov.finish();
        Ok(degraded)
    }
}

/// Builder for one PBSM (Partition Based Spatial-Merge) join over two
/// unindexed rectangle sets. PBSM takes raw entry slices rather than
/// R-trees and has no tree pages to record, price or govern, so
/// it gets a builder of its own with no cross-cutting concerns.
#[derive(Debug)]
pub struct PbsmSession<'a, const N: usize> {
    left: &'a [(Rect<N>, ObjectId)],
    right: &'a [(Rect<N>, ObjectId)],
    grid: usize,
    page_capacity: usize,
}

impl<'a, const N: usize> PbsmSession<'a, N> {
    /// A session joining `left × right` on a `grid^N` partition with
    /// `page_capacity` entries per simulated page.
    pub fn new(
        left: &'a [(Rect<N>, ObjectId)],
        right: &'a [(Rect<N>, ObjectId)],
        grid: usize,
        page_capacity: usize,
    ) -> Self {
        PbsmSession {
            left,
            right,
            grid,
            page_capacity,
        }
    }

    /// Executes the partition join. PBSM has no admission step and no
    /// worker threads, so it never returns `Err`; the `Result` and the
    /// one-field [`DegradedPbsmResult`] are [`JoinSession::run`]'s
    /// shape.
    pub fn run(self) -> Result<DegradedPbsmResult, JoinError> {
        let result = crate::pbsm::run_pbsm(self.left, self.right, self.grid, self.page_capacity);
        Ok(DegradedPbsmResult { result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the documented correlation-id scheme: sequential /
    /// coordinator 0, unit `i` → `i + 1`, shard `w` → `w + 1`.
    #[test]
    fn corr_domain_mapping_is_pinned() {
        assert_eq!(CorrDomain::Coordinator.corr(), 0);
        assert_eq!(CorrDomain::Unit(0).corr(), 1);
        assert_eq!(CorrDomain::Unit(7).corr(), 8);
        assert_eq!(CorrDomain::Shard(0).corr(), 1);
        assert_eq!(CorrDomain::Shard(3).corr(), 4);
        // The shard worker index round-trips through the id the static
        // deal assigns (`worker = corr - 1`).
        for w in 0..8 {
            let d = CorrDomain::Shard(w);
            assert_eq!(d.worker_index(), (d.corr() - 1) as usize);
        }
    }

    #[test]
    fn lanes_carry_the_domain_corr() {
        let ctx = ExecContext {
            recorder: sjcm_storage::FlightRecorder::enabled(),
            ..ExecContext::default()
        };
        let (mut lane1, mut lane2) = ctx.lanes(CorrDomain::Unit(4));
        lane1.record(sjcm_storage::PageId(1), 0, sjcm_storage::AccessKind::Miss);
        lane2.record(sjcm_storage::PageId(2), 0, sjcm_storage::AccessKind::Miss);
        drop((lane1, lane2));
        let events = ctx.recorder.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.corr == 5));
    }
}
