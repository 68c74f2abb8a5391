//! Cost-model-driven live progress and ETA for a running spatial join.
//!
//! The paper's whole point is that Eqs 6–12 predict the join's total
//! work *before* it runs — which is exactly the denominator a progress
//! estimator needs. This module turns that prediction into a live
//! "X% done, ETA T" signal:
//!
//! * a [`ProgressTracker`] — the shared atomic hub the executors feed.
//!   Disabled (the default) it is one `Option` discriminant check per
//!   hook, the same no-op-sink guarantee as [`crate::Tracer`];
//! * per-executor [`ProgressSink`]s — executors do **not** touch the
//!   shared counters per access. A sink piggybacks on the executor's
//!   existing per-level `AccessStats` tallies: every
//!   [`ProgressSink::tick`] accesses (plus every work-unit boundary)
//!   the executor hands the sink its current per-level counters and the
//!   sink publishes the *delta* since its last flush. The hot path
//!   gains one increment and one branch; contention is one batch of
//!   `fetch_add`s per ~512 accesses per thread;
//! * a [`ProgressEngine`] — the single-reader estimator. It seeds
//!   per-level work estimates from the Eq-6 NA priors
//!   (`sjcm_core::join::join_na_priors`), re-estimates remaining work
//!   by blending each level's prior branching ratio with the observed
//!   one (EWMA-smoothed, prior-dominated early, observation-dominated
//!   late), and emits monotone-by-construction [`ProgressSnapshot`]s
//!   with an ETA from [`eta`] and a confidence band from the paper's
//!   §4.1 ~15% error envelope;
//! * the run's one [`UnitLedger`] (units and their price: scheduled,
//!   done, in flight, forfeited), written only through the unit hooks
//!   of the tree-join executors that schedule units (the dealt and the
//!   cost-guided one), and [`eta`], the one ETA rule the engine reads
//!   over it.
//!
//! # The estimator
//!
//! For each tree, levels are estimated top-down (raw level `top` is the
//! root's children — the first counted level per §3.1):
//!
//! ```text
//! est[top] = max(prior[top], done[top])
//! est[j]   = max(est[j+1] · blend(j), done[j])
//! blend(j) = (1 − w) · prior[j]/prior[j+1]  +  w · ewma(done[j]/(c + ½))
//! w        = c / (c + max(¼ · prior[j+1], 16))
//! c        = done[j+1] − 1
//! ```
//!
//! `c` counts the *closed* parents of level `j + 1`: the traversal is
//! depth-first, so the parent accessed last is still being descended
//! and has only some of its children counted (the `½` stands for it).
//! Early in the run the model prior dominates and late in the run the
//! observed per-level branching ratio does — but never on the evidence
//! of a handful of parents, which is all a small upper level has: a
//! packed 60K tree's root has two children. The progress fraction
//! is `done / Σ est`, clamped monotone (a re-estimate can shrink the
//! denominator; the published fraction never regresses) and pinned to
//! exactly 1.0 by [`ProgressTracker::finish`].
//!
//! # Forfeits
//!
//! A unit the governor forfeits would stall progress forever if its
//! work stayed in the denominator. Only a run that schedules units can
//! forfeit one, and the run's [`UnitLedger`] already holds what it
//! forfeited, in units and in price: the engine reads the share of the
//! schedule done over the price that will still run
//! (`done / (scheduled − forfeited)`), and shrinks the Eq-6 prior by
//! the forfeited share of the price. A forfeit is in the ledger the
//! moment the unit is refused, so progress neither stalls nor regresses
//! when a run is cut short.

use crate::json::{self, Value};
use crate::PAPER_ENVELOPE;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Maximum raw tree levels tracked per tree. Fan-out ≥ 2 means 16
/// levels cover > 64 Ki nodes per tree — far beyond the paper's
/// workloads; higher levels are clamped into the top slot.
pub const MAX_LEVELS: usize = 16;

/// Accesses between two sink flushes. Small enough that a 60K-object
/// join flushes hundreds of times (smooth fractions), large enough
/// that shared-counter contention is negligible.
const FLUSH_EVERY: u32 = 512;

/// Share of the work that must be done before [`eta`] gives a finish
/// time. The first completions fold start-up and single-unit variance
/// into the rate, and an ETA read off them swings by multiples.
const ETA_WARMUP: f64 = 0.10;

/// The one ETA rule: `exec_secs` of execution have done `done` work and
/// have `in_flight` more under way, and `remaining` (in-flight work
/// included) is still to finish. The rate credits half the in-flight
/// work as done — an expensive unit in flight has spent wall time but
/// completed nothing, and ignoring it inflates the rate on price-skewed
/// schedules:
///
/// ```text
/// ETA = exec_secs / (done + ½ in_flight) × (remaining − ½ in_flight)
/// ```
///
/// In seconds; `None` until a tenth of the work (`done + remaining`)
/// is done, and when nothing remains.
pub fn eta(exec_secs: f64, done: f64, in_flight: f64, remaining: f64) -> Option<f64> {
    if remaining <= 0.0 || done <= 0.0 || done < ETA_WARMUP * (done + remaining) {
        return None;
    }
    let half_flight = in_flight / 2.0;
    let secs_per_work = exec_secs.max(1e-9) / (done + half_flight);
    Some(secs_per_work * (remaining - half_flight).max(0.0))
}

/// The run's one unit ledger: how many work units, and how much of
/// their price, are scheduled, done, in flight, and forfeited.
/// Prices are in whatever the run priced its units in — Eq 6 × overlap
/// for priced dealt units and cost-guided units, one per unit for an
/// unpriced deal. A run arms it once, and each unit leaves it through
/// exactly one of [`UnitLedger::done`] / [`UnitLedger::forfeit`]. A
/// disabled ledger (the default) owns nothing: every operation is one
/// `Option` check.
#[derive(Debug, Clone, Default)]
pub struct UnitLedger {
    inner: Option<Arc<Ledger>>,
}

#[derive(Debug, Default)]
struct Ledger {
    /// The execution clock, started by the first admitted unit.
    exec_start: OnceLock<Instant>,
    units_scheduled: AtomicU64,
    units_done: AtomicU64,
    units_forfeited: AtomicU64,
    scheduled: AtomicU64,
    done: AtomicU64,
    in_flight: AtomicU64,
    forfeited: AtomicU64,
}

impl Ledger {
    fn totals(&self) -> LedgerTotals {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LedgerTotals {
            units_scheduled: load(&self.units_scheduled),
            units_done: load(&self.units_done),
            units_forfeited: load(&self.units_forfeited),
            scheduled: load(&self.scheduled),
            done: load(&self.done),
            in_flight: load(&self.in_flight),
            forfeited: load(&self.forfeited),
            exec_secs: self
                .exec_start
                .get()
                .map_or(0.0, |t| t.elapsed().as_secs_f64()),
        }
    }
}

impl UnitLedger {
    /// Test builds only: a collecting ledger of its own. A run's ledger
    /// is its progress hub's ([`ProgressTracker::ledger`]).
    #[cfg(test)]
    pub(crate) fn enabled() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// Schedules `units` units costing `price` in total.
    pub fn arm(&self, units: u64, price: u64) {
        if let Some(l) = &self.inner {
            l.units_scheduled.fetch_add(units, Ordering::Relaxed);
            l.scheduled.fetch_add(price, Ordering::Relaxed);
        }
    }

    /// A unit of `price` passed its checkpoint and is in flight. The
    /// first admission starts the execution clock.
    pub fn admit(&self, price: u64) {
        if let Some(l) = &self.inner {
            l.exec_start.get_or_init(Instant::now);
            l.in_flight.fetch_add(price, Ordering::Relaxed);
        }
    }

    /// An admitted unit of `price` ran to completion.
    pub fn done(&self, price: u64) {
        if let Some(l) = &self.inner {
            l.in_flight.fetch_sub(price, Ordering::Relaxed);
            l.units_done.fetch_add(1, Ordering::Relaxed);
            l.done.fetch_add(price, Ordering::Relaxed);
        }
    }

    /// A unit of `price` will never run: refused at its checkpoint. An
    /// admitted unit always runs to [`UnitLedger::done`].
    pub fn forfeit(&self, price: u64) {
        if let Some(l) = &self.inner {
            l.units_forfeited.fetch_add(1, Ordering::Relaxed);
            l.forfeited.fetch_add(price, Ordering::Relaxed);
        }
    }

    /// The current totals; `None` when the ledger is disabled.
    pub fn totals(&self) -> Option<LedgerTotals> {
        self.inner.as_ref().map(|l| l.totals())
    }
}

/// One reading of a [`UnitLedger`]. Prices are in the run's own unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerTotals {
    /// Units scheduled.
    pub units_scheduled: u64,
    /// Units run to completion.
    pub units_done: u64,
    /// Units forfeited.
    pub units_forfeited: u64,
    /// Price scheduled.
    pub scheduled: u64,
    /// Price of the units done.
    pub done: u64,
    /// Price of the units admitted and not done yet.
    pub in_flight: u64,
    /// Price of the units forfeited.
    pub forfeited: u64,
    /// Seconds since the first unit was admitted (0 before).
    pub exec_secs: f64,
}

impl LedgerTotals {
    /// Price still to run: scheduled and neither done nor forfeited
    /// (in-flight units included).
    pub fn remaining(&self) -> u64 {
        self.scheduled.saturating_sub(self.done + self.forfeited)
    }

    /// [`eta`] over the ledger's prices and execution clock.
    pub fn eta(&self) -> Option<f64> {
        eta(
            self.exec_secs,
            self.done as f64,
            self.in_flight as f64,
            self.remaining() as f64,
        )
    }
}

/// Closed parents it takes for an observed branching ratio to weigh as
/// much as the prior's, however few the level above is predicted to
/// hold. Node pairs of one level differ in fan-out by about their mean
/// (a sliver of an intersection next to a full one), so the ratio over
/// `c` of them is good to `1/√c`; the prior's is good to about a
/// quarter. A packed tree's top level is a handful of parents: without
/// this floor, `¼ · prior` lets one or two of them outvote the model.
const MIN_PARENTS: f64 = 16.0;

/// One per-level NA prior, as produced by
/// `sjcm_core::join::join_na_priors` (plain data so this crate stays
/// free of model-crate dependencies — same decoupling as the drift
/// monitor's named targets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelPrior {
    /// Tree index, 1 or 2.
    pub tree: usize,
    /// Paper level `j` (1 = leaf). Raw storage level is `j − 1`.
    pub level: usize,
    /// Eq-6 predicted node accesses of this tree at this level.
    pub na: f64,
}

struct Shared {
    epoch: Instant,
    /// Per (tree, raw level) node-access counters.
    na: [[AtomicU64; MAX_LEVELS]; 2],
    pairs: AtomicU64,
    /// The run's unit ledger ([`ProgressTracker::ledger`]).
    ledger: Arc<Ledger>,
    finished: AtomicBool,
}

impl Shared {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            na: [(); 2].map(|_| [(); MAX_LEVELS].map(|_| AtomicU64::new(0))),
            pairs: AtomicU64::new(0),
            ledger: Arc::default(),
            finished: AtomicBool::new(false),
        }
    }
}

/// The shared progress hub. Cheap to clone (an `Arc`); the disabled
/// tracker owns nothing and every operation on it — and on every sink
/// it hands out — is a single `Option` check.
#[derive(Clone, Default)]
pub struct ProgressTracker {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for ProgressTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressTracker")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl ProgressTracker {
    /// A tracker whose every operation is a no-op.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// A collecting tracker (epoch = now).
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Shared::new())),
        }
    }

    /// `true` when progress is being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A per-executor sink feeding this tracker. Sinks of a disabled
    /// tracker are free.
    pub fn sink(&self) -> ProgressSink {
        ProgressSink {
            shared: self.shared.clone(),
            ticks: 0,
            last_na: [[0; MAX_LEVELS]; 2],
            last_pairs: 0,
        }
    }

    /// The tracker's unit ledger (disabled for a disabled tracker).
    pub fn ledger(&self) -> UnitLedger {
        UnitLedger {
            inner: self.shared.as_ref().map(|s| Arc::clone(&s.ledger)),
        }
    }

    /// Marks the run complete: every later snapshot reports fraction
    /// exactly 1.0 and a zero ETA.
    pub fn finish(&self) {
        if let Some(shared) = &self.shared {
            shared.finished.store(true, Ordering::Release);
        }
    }
}

/// Per-executor feed into a [`ProgressTracker`]. See the module docs
/// for the delta-flush protocol; executors call [`ProgressSink::tick`]
/// per access and flush when it fires (and at unit boundaries / run
/// end, so progress is current whenever a unit retires).
pub struct ProgressSink {
    shared: Option<Arc<Shared>>,
    ticks: u32,
    last_na: [[u64; MAX_LEVELS]; 2],
    last_pairs: u64,
}

impl ProgressSink {
    /// `true` when this sink feeds an enabled tracker.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Counts one access; `true` when a flush is due. One branch and
    /// one increment when enabled, one `Option` check when not.
    #[inline]
    pub fn tick(&mut self) -> bool {
        match &self.shared {
            None => false,
            Some(_) => {
                self.ticks = self.ticks.wrapping_add(1);
                self.ticks.is_multiple_of(FLUSH_EVERY)
            }
        }
    }

    /// Publishes the delta between the executor's current per-level
    /// `(level, NA)` tallies (plus its pair count) and the last flush.
    /// The iterators are the two trees' `AccessStats::per_level`
    /// snapshots; counters are cumulative and never regress.
    pub fn flush<I1, I2>(&mut self, tree1: I1, tree2: I2, pairs: u64)
    where
        I1: IntoIterator<Item = (u8, u64)>,
        I2: IntoIterator<Item = (u8, u64)>,
    {
        let Some(shared) = &self.shared else {
            return;
        };
        flush_tree(shared, &mut self.last_na[0], 0, tree1);
        flush_tree(shared, &mut self.last_na[1], 1, tree2);
        if pairs > self.last_pairs {
            shared
                .pairs
                .fetch_add(pairs - self.last_pairs, Ordering::Relaxed);
            self.last_pairs = pairs;
        }
    }
}

/// Publishes one tree's cumulative `(level, NA)` tallies as deltas
/// into the hub, updating the sink's last-seen snapshot. Counters are
/// cumulative per executor, so `cur − last ≥ 0` always.
fn flush_tree(
    shared: &Shared,
    last_na: &mut [u64; MAX_LEVELS],
    t: usize,
    levels: impl IntoIterator<Item = (u8, u64)>,
) {
    for (level, na) in levels {
        let raw = (level as usize).min(MAX_LEVELS - 1);
        let delta = na.saturating_sub(last_na[raw]);
        if delta > 0 {
            shared.na[t][raw].fetch_add(delta, Ordering::Relaxed);
            last_na[raw] = na;
        }
    }
}

/// One emitted progress sample — a line of the `join_progress.jsonl`
/// artifact and the payload of the `--watch` terminal line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Microseconds since the tracker's epoch.
    pub t_us: u64,
    /// Monotone progress fraction in `[0, 1]`; exactly 1.0 once the
    /// run has called [`ProgressTracker::finish`].
    pub fraction: f64,
    /// Node accesses done so far (both trees); 0 for a run with no
    /// prior to estimate against.
    pub done_work: f64,
    /// Current estimate of the total work the run will do, after
    /// prior/observation blending: the fraction's denominator.
    pub est_total_work: f64,
    /// Work retired from the estimate by forfeited units: the Eq-6
    /// prior's share of their price.
    pub forfeited_work: f64,
    /// Node accesses published so far (both trees).
    pub na_done: u64,
    /// Result pairs published so far.
    pub pairs: u64,
    /// Work units done / scheduled (0/0 for the sequential join, which
    /// has no units).
    pub units_done: u64,
    /// Total scheduled units.
    pub units_total: u64,
    /// Estimated microseconds to completion by [`eta`] — over the unit
    /// ledger's prices when the run has units, over `done_work` since
    /// the tracker's epoch when it has none; `None` until a tenth of
    /// the work is done (0 once finished).
    pub eta_us: Option<u64>,
    /// Optimistic ETA bound: remaining work shrunk by the §4.1 ~15%
    /// envelope.
    pub eta_lo_us: Option<u64>,
    /// Pessimistic ETA bound: remaining work grown by the envelope.
    pub eta_hi_us: Option<u64>,
    /// `true` once [`ProgressTracker::finish`] was called.
    pub finished: bool,
}

impl ProgressSnapshot {
    /// One record of the progress artifact:
    /// `{"type":"progress","t_us":…,"fraction":…,…}`.
    pub fn to_json(&self) -> Value {
        Value::from([
            ("type", "progress".into()),
            ("t_us", self.t_us.into()),
            ("fraction", self.fraction.into()),
            ("done_work", self.done_work.into()),
            ("est_total_work", self.est_total_work.into()),
            ("forfeited_work", self.forfeited_work.into()),
            ("na_done", self.na_done.into()),
            ("pairs", self.pairs.into()),
            ("units_done", self.units_done.into()),
            ("units_total", self.units_total.into()),
            ("eta_us", self.eta_us.into()),
            ("eta_lo_us", self.eta_lo_us.into()),
            ("eta_hi_us", self.eta_hi_us.into()),
            ("finished", self.finished.into()),
        ])
    }

    /// A single-line terminal rendering for `--watch`:
    /// `[=====>         ]  34.2%  ETA 1.8s (1.5–2.1)  pairs 48210`.
    pub fn terminal_line(&self) -> String {
        const WIDTH: usize = 24;
        let filled = ((self.fraction * WIDTH as f64) as usize).min(WIDTH);
        let mut bar = String::with_capacity(WIDTH + 2);
        bar.push('[');
        for i in 0..WIDTH {
            bar.push(match i.cmp(&filled) {
                std::cmp::Ordering::Less => '=',
                std::cmp::Ordering::Equal if !self.finished => '>',
                _ => ' ',
            });
        }
        bar.push(']');
        let secs = |us: u64| us as f64 / 1e6;
        let eta = match (self.eta_us, self.eta_lo_us, self.eta_hi_us) {
            _ if self.finished => format!("done in {:.1}s", secs(self.t_us)),
            (Some(eta), Some(lo), Some(hi)) => {
                format!("ETA {:.1}s ({:.1}–{:.1})", secs(eta), secs(lo), secs(hi))
            }
            _ => "ETA —".to_string(),
        };
        format!(
            "{bar} {:5.1}%  {eta}  pairs {}",
            self.fraction * 100.0,
            self.pairs
        )
    }
}

/// The single-reader estimator over a [`ProgressTracker`]. Owns the
/// mutable smoothing state (EWMA ratios, the monotone clamp), so
/// exactly one engine should sample a given run — the watcher thread in
/// `experiments join --watch`, the test harness in the acceptance
/// tests.
pub struct ProgressEngine {
    tracker: ProgressTracker,
    prior: [[f64; MAX_LEVELS]; 2],
    /// Highest raw level with a nonzero prior, per tree (`None` when
    /// the tree contributes no counted work).
    top: [Option<usize>; 2],
    prior_total: f64,
    ewma: [[Option<f64>; MAX_LEVELS]; 2],
    max_fraction: f64,
}

impl ProgressEngine {
    /// An engine seeded with Eq-6 per-level priors (see
    /// `sjcm_core::join::join_na_priors`).
    pub fn new(tracker: &ProgressTracker, priors: &[LevelPrior]) -> Self {
        let mut prior = [[0.0f64; MAX_LEVELS]; 2];
        for p in priors {
            let (Some(t), Some(raw)) = (p.tree.checked_sub(1), p.level.checked_sub(1)) else {
                continue;
            };
            if t < 2 {
                prior[t][raw.min(MAX_LEVELS - 1)] += p.na;
            }
        }
        let top = [0, 1].map(|t| prior[t].iter().rposition(|&v| v > 0.0));
        let prior_total: f64 = prior.iter().flatten().sum();
        Self {
            tracker: tracker.clone(),
            prior,
            top,
            prior_total,
            ewma: [[None; MAX_LEVELS]; 2],
            max_fraction: 0.0,
        }
    }

    /// The blended total-work estimate over both trees' levels.
    fn estimate(&mut self, done: &[[u64; MAX_LEVELS]; 2]) -> f64 {
        let mut total = 0.0;
        for (t, done) in done.iter().enumerate() {
            let Some(top) = self.top[t] else {
                // No prior for this tree: whatever was done is the
                // estimate (height-1 trees).
                for &d in done {
                    total += d as f64;
                }
                continue;
            };
            let mut above = self.prior[t][top].max(done[top] as f64);
            total += above;
            for raw in (0..top).rev() {
                let p_here = self.prior[t][raw];
                let p_above = self.prior[t][raw + 1].max(f64::MIN_POSITIVE);
                let prior_ratio = p_here / p_above;
                // The descent is depth-first, so the parent accessed
                // last is still open: only the ones before it have all
                // their children counted. The open parent is taken as
                // half descended, which is what it is on average.
                let closed = (done[raw + 1] as f64 - 1.0).max(0.0);
                let obs_ratio = if closed > 0.0 {
                    done[raw] as f64 / (closed + 0.5)
                } else {
                    prior_ratio
                };
                let smoothed = match self.ewma[t][raw] {
                    None => obs_ratio,
                    Some(prev) => 0.2 * obs_ratio + 0.8 * prev,
                };
                self.ewma[t][raw] = Some(smoothed);
                let w = closed / (closed + (0.25 * self.prior[t][raw + 1]).max(MIN_PARENTS));
                let blended = (1.0 - w) * prior_ratio + w * smoothed;
                let e = (above * blended).max(done[raw] as f64);
                total += e;
                above = e;
            }
        }
        total
    }

    /// Takes one sample: reads the shared counters and the unit ledger,
    /// refines the remaining-work estimate, advances the monotone clamp
    /// and returns the snapshot. Sampling a disabled tracker returns an
    /// all-zero snapshot.
    pub fn sample(&mut self) -> ProgressSnapshot {
        let Some(shared) = &self.tracker.shared else {
            return ProgressSnapshot::default();
        };
        let t_us = shared.epoch.elapsed().as_micros() as u64;
        let mut done = [[0u64; MAX_LEVELS]; 2];
        for (t, row) in done.iter_mut().enumerate() {
            for (raw, cell) in row.iter_mut().enumerate() {
                *cell = shared.na[t][raw].load(Ordering::Relaxed);
            }
        }
        let na_done: u64 = done.iter().flatten().sum();
        let pairs = shared.pairs.load(Ordering::Relaxed);
        let units = shared.ledger.totals();
        let finished = shared.finished.load(Ordering::Acquire);

        let (done_work, est_total, forfeited) = if self.prior_total > 0.0 && units.scheduled > 0 {
            // A unit schedule exists (cost-guided, round-robin):
            // the per-level branching ratios are not representative
            // mid-run — the frontier descent completes the upper
            // levels long before the leaves, so level-over-level
            // ratios track "how far along" rather than true fan-out.
            // The ledger is the better observation: if `f` of the
            // scheduled cost has retired, total ≈ done / f. Blend it
            // with the Eq-6 prior, prior-dominated early (f → 0),
            // observation-dominated late (f → 1, where the estimate
            // converges to the exact final work). Forfeited units leave
            // both: `f` is over the price that will still run, and the
            // prior keeps the share of the price not forfeited.
            let live = units.scheduled.saturating_sub(units.forfeited);
            let f = if live > 0 {
                (units.done as f64 / live as f64).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let prior = self.prior_total * (live as f64 / units.scheduled as f64);
            let obs_est = if f > 0.0 { na_done as f64 / f } else { prior };
            let blended = (1.0 - f) * prior.max(na_done as f64) + f * obs_est;
            (na_done as f64, blended, self.prior_total - prior)
        } else if self.prior_total > 0.0 {
            (na_done as f64, self.estimate(&done), 0.0)
        } else {
            // Nothing to estimate against (e.g. two height-1 trees):
            // progress is binary.
            (0.0, 0.0, 0.0)
        };
        let denom = est_total.max(done_work).max(f64::MIN_POSITIVE);
        let raw_fraction = if est_total > 0.0 {
            (done_work / denom).clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Monotone by construction: a refined (smaller) denominator or
        // a freshly retired forfeit can only push the max up, never
        // published output down. Pre-finish samples cap just below 1.0
        // so exactly-1.0 is unambiguously "finished".
        self.max_fraction = self.max_fraction.max(raw_fraction.min(0.9995));
        let fraction = if finished { 1.0 } else { self.max_fraction };

        // The one ETA rule, over the ledger's prices when the run has
        // units; with the ±15% envelope band.
        let secs = if finished {
            Some(0.0)
        } else if units.scheduled > 0 {
            units.eta()
        } else {
            eta(t_us as f64 / 1e6, done_work, 0.0, denom - done_work)
        };
        let eta_at = |scale: f64| secs.map(|s| (s * scale * 1e6) as u64);
        ProgressSnapshot {
            t_us,
            fraction,
            done_work,
            est_total_work: est_total,
            forfeited_work: forfeited,
            na_done,
            pairs,
            units_done: units.units_done,
            units_total: units.units_scheduled,
            eta_us: eta_at(1.0),
            eta_lo_us: eta_at(1.0 - PAPER_ENVELOPE),
            eta_hi_us: eta_at(1.0 + PAPER_ENVELOPE),
            finished,
        }
    }
}

/// Validates one progress JSONL document (as written next to the other
/// `--obs-dir` artifacts): every line parses with the required keys,
/// `t_us` and `fraction` are monotone non-decreasing, fractions stay in
/// `[0, 1]`, and the final line is `finished: true` with fraction
/// exactly 1.0. Returns the number of samples.
pub fn validate_progress_jsonl(text: &str) -> Result<usize, String> {
    let records = json::read_jsonl(text)?;
    let mut last_t = 0.0;
    let mut last_fraction = -1.0f64;
    for (i, v) in records.iter().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        if v.get("type").and_then(Value::as_str) != Some("progress") {
            return Err(at("not a progress record".to_string()));
        }
        json::require(
            v,
            &[
                "t_us",
                "fraction",
                "done_work",
                "na_done",
                "pairs",
                "finished",
            ],
        )
        .map_err(at)?;
        let t = v.get("t_us").and_then(Value::as_f64).unwrap_or(-1.0);
        if t < 0.0 || t < last_t {
            return Err(at(format!("t_us regressed ({t})")));
        }
        last_t = t;
        let f = v.get("fraction").and_then(Value::as_f64).unwrap_or(-1.0);
        if !(0.0..=1.0).contains(&f) {
            return Err(at(format!("fraction {f} outside [0, 1]")));
        }
        if f < last_fraction {
            return Err(at(format!("fraction regressed ({f} < {last_fraction})")));
        }
        last_fraction = f;
    }
    let Some(last) = records.last() else {
        return Err("no progress samples".to_string());
    };
    if last.get("finished") != Some(&Value::Bool(true)) {
        return Err("final sample is not finished".to_string());
    }
    if last_fraction != 1.0 {
        return Err(format!("final fraction {last_fraction} ≠ 1.0"));
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn priors_two_trees() -> Vec<LevelPrior> {
        // A 3-level-ish prior: 60 leaf accesses over 12 level-2
        // accesses per tree.
        vec![
            LevelPrior {
                tree: 1,
                level: 1,
                na: 60.0,
            },
            LevelPrior {
                tree: 1,
                level: 2,
                na: 12.0,
            },
            LevelPrior {
                tree: 2,
                level: 1,
                na: 60.0,
            },
            LevelPrior {
                tree: 2,
                level: 2,
                na: 12.0,
            },
        ]
    }

    fn feed(sink: &mut ProgressSink, t1: &[(u8, u64)], t2: &[(u8, u64)], pairs: u64) {
        sink.flush(t1.iter().copied(), t2.iter().copied(), pairs);
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let tracker = ProgressTracker::disabled();
        assert!(!tracker.is_enabled());
        let mut sink = tracker.sink();
        assert!(!sink.tick());
        feed(&mut sink, &[(0, 10)], &[], 3);
        let ledger = tracker.ledger();
        ledger.arm(1, 5);
        ledger.admit(5);
        ledger.done(5);
        assert_eq!(ledger.totals(), None);
        tracker.finish();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        let snap = engine.sample();
        assert_eq!(snap.fraction, 0.0);
        assert!(!snap.finished);
    }

    #[test]
    fn fraction_is_monotone_and_finishes_at_exactly_one() {
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        let mut sink = tracker.sink();
        let mut last = 0.0;
        for step in 1..=10u64 {
            // 6 leaf accesses per level-2 access, per tree — exactly
            // the prior's branching ratio.
            feed(
                &mut sink,
                &[(0, step * 6), (1, step)],
                &[(0, step * 6), (1, step)],
                step * 4,
            );
            let snap = engine.sample();
            assert!(snap.fraction >= last, "regressed at step {step}");
            assert!(snap.fraction < 1.0, "hit 1.0 before finish");
            last = snap.fraction;
        }
        tracker.finish();
        let snap = engine.sample();
        assert_eq!(snap.fraction, 1.0);
        assert!(snap.finished);
        assert_eq!(snap.eta_us, Some(0));
        // Fraction by then is substantial: 120 of ~144 predicted.
        assert!(last > 0.5, "got {last}");
    }

    #[test]
    fn estimate_tracks_observed_branching_over_the_prior() {
        // Prior says 5 leaf accesses per internal access; the run
        // observes 20. Late in the run the estimate should be far
        // closer to the observed total than to the prior.
        let priors = vec![
            LevelPrior {
                tree: 1,
                level: 1,
                na: 50.0,
            },
            LevelPrior {
                tree: 1,
                level: 2,
                na: 10.0,
            },
        ];
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors);
        let mut sink = tracker.sink();
        for step in 1..=10u64 {
            feed(&mut sink, &[(0, step * 20), (1, step)], &[], 0);
            engine.sample();
        }
        // Observed: 200 leaf + 10 internal. Prior said 60 total.
        let snap = engine.sample();
        assert!(
            snap.est_total_work > 150.0,
            "estimate {} still prior-bound",
            snap.est_total_work
        );
        assert!(snap.est_total_work >= snap.done_work);
    }

    #[test]
    fn early_estimate_is_prior_dominated() {
        let priors = vec![
            LevelPrior {
                tree: 1,
                level: 1,
                na: 1000.0,
            },
            LevelPrior {
                tree: 1,
                level: 2,
                na: 100.0,
            },
        ];
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors);
        let mut sink = tracker.sink();
        // One internal access, one (atypical) leaf access observed.
        feed(&mut sink, &[(0, 1), (1, 1)], &[], 0);
        let snap = engine.sample();
        // The one internal node is still open (w = 0) — the prior's
        // 10:1 ratio must stand against the observed 1:1.
        assert!(
            snap.est_total_work > 900.0,
            "estimate {} abandoned the prior too early",
            snap.est_total_work
        );
    }

    #[test]
    fn open_parents_of_a_small_top_level_do_not_pass_for_a_branching_ratio() {
        // A packed 60K × 60K join a quarter of the way in: the root has
        // two children, so the top level shows 2 of 4 accesses, and the
        // second of them is the node pair being descended — its 82
        // children so far say nothing about the 74 per parent the prior
        // predicts. Reading 82/2 as the fan-out, at the weight ⅔ that
        // ¼ · prior alone gives two parents, would halve the estimate.
        let priors: Vec<LevelPrior> = [(1, 8510.0), (2, 294.0), (3, 4.0)]
            .into_iter()
            .map(|(level, na)| LevelPrior { tree: 1, level, na })
            .collect();
        let prior_total = 8808.0;
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors);
        let mut sink = tracker.sink();
        feed(&mut sink, &[(0, 1964), (1, 82), (2, 2)], &[], 0);
        let est = engine.sample().est_total_work;
        assert!(
            (est - prior_total).abs() < 0.15 * prior_total,
            "estimate {est} left the prior {prior_total} on the evidence of one closed parent"
        );
    }

    /// Admits and completes one unit of `price`.
    fn run_unit(ledger: &UnitLedger, price: u64) {
        ledger.admit(price);
        ledger.done(price);
    }

    #[test]
    fn forfeit_retires_work_from_the_denominator() {
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        let (mut sink, ledger) = (tracker.sink(), tracker.ledger());
        ledger.arm(4, 400);
        run_unit(&ledger, 100);
        run_unit(&ledger, 100);
        feed(&mut sink, &[(0, 30), (1, 6)], &[(0, 30), (1, 6)], 0);
        let before = engine.sample();
        assert_eq!(before.forfeited_work, 0.0);
        assert!(before.fraction < 0.9, "{}", before.fraction);
        // The two units left are refused, in the ledger alone: nothing
        // the run will still do is outstanding, so the fraction reaches
        // the pre-finish cap without the run finishing.
        ledger.forfeit(100);
        ledger.forfeit(100);
        let after = engine.sample();
        assert!(after.forfeited_work > 0.0);
        assert_eq!(after.fraction, 0.9995);
        assert!(!after.finished);
    }

    #[test]
    fn forfeited_units_leave_the_ledger_and_the_denominator() {
        let ledger = UnitLedger::enabled();
        ledger.arm(4, 400);
        run_unit(&ledger, 100);
        // One refused at its checkpoint, one refused while another unit
        // is in flight: a forfeit leaves the flight alone.
        ledger.forfeit(100);
        ledger.admit(100);
        ledger.forfeit(100);
        assert_eq!(ledger.totals().unwrap().in_flight, 100);
        ledger.done(100);
        let t = ledger.totals().unwrap();
        assert_eq!(
            (t.units_scheduled, t.units_done, t.units_forfeited),
            (4, 2, 2)
        );
        assert_eq!(
            (t.scheduled, t.done, t.forfeited, t.in_flight),
            (400, 200, 200, 0)
        );
        // Everything that will run has run: nothing remains for the
        // ETA to wait on.
        assert_eq!(t.remaining(), 0);
        assert_eq!(t.eta(), None);
    }

    #[test]
    fn eta_credits_half_the_flight_and_waits_for_a_tenth() {
        // A tenth done is the warm-up floor: just below it, no ETA.
        assert_eq!(eta(1.0, 9.0, 0.0, 91.0), None);
        assert_eq!(eta(1.0, 0.0, 0.0, 100.0), None);
        assert_eq!(eta(1.0, 50.0, 0.0, 0.0), None);
        // 2 s for 20 done, nothing in flight: 0.1 s per unit of work,
        // 80 to go.
        let e = eta(2.0, 20.0, 0.0, 80.0).unwrap();
        assert!((e - 8.0).abs() < 1e-12);
        // 20 in flight count as 10 done and 10 fewer to go: still 0.1 s
        // per unit of work, 70 to go.
        let e = eta(3.0, 20.0, 20.0, 80.0).unwrap();
        assert!((e - 7.0).abs() < 1e-12);
        // The ledger reads through the same rule.
        let ledger = UnitLedger::enabled();
        ledger.arm(2, 10);
        assert_eq!(ledger.totals().unwrap().eta(), None);
        run_unit(&ledger, 4);
        ledger.admit(6);
        let t = ledger.totals().unwrap();
        assert!(t.exec_secs >= 0.0);
        assert_eq!(t.eta(), eta(t.exec_secs, 4.0, 6.0, 6.0));
    }

    #[test]
    fn eta_appears_with_a_measurable_rate_and_brackets_the_point_estimate() {
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        let mut sink = tracker.sink();
        let mut with_eta = None;
        for step in 1..=20u64 {
            feed(
                &mut sink,
                &[(0, step * 3), (1, step)],
                &[(0, step * 3), (1, step)],
                0,
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
            let snap = engine.sample();
            if snap.eta_us.is_some() {
                with_eta = Some(snap);
            }
        }
        let snap = with_eta.expect("rate never became measurable");
        let (eta, lo, hi) = (
            snap.eta_us.unwrap(),
            snap.eta_lo_us.unwrap(),
            snap.eta_hi_us.unwrap(),
        );
        assert!(lo <= eta && eta <= hi, "{lo} ≤ {eta} ≤ {hi}");
        // The band is the ±15% envelope.
        assert!(hi as f64 >= eta as f64 * 1.10);
    }

    #[test]
    fn snapshot_json_round_trips_and_validates() {
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        let mut sink = tracker.sink();
        let mut snaps = Vec::new();
        for step in 1..=5u64 {
            feed(
                &mut sink,
                &[(0, step * 6), (1, step)],
                &[(0, step * 6), (1, step)],
                step,
            );
            snaps.push(engine.sample());
        }
        tracker.finish();
        snaps.push(engine.sample());
        let doc = json::to_jsonl(snaps.iter().map(ProgressSnapshot::to_json));
        assert_eq!(validate_progress_jsonl(&doc), Ok(6));
        let records = json::read_jsonl(&doc).unwrap();
        for (snap, v) in snaps.iter().zip(&records) {
            assert_eq!(v.get("type").and_then(Value::as_str), Some("progress"));
            assert_eq!(v.get("t_us").unwrap().as_u64(), Some(snap.t_us));
            assert_eq!(v.get("fraction").unwrap().as_f64(), Some(snap.fraction));
            assert_eq!(v.get("pairs").unwrap().as_u64(), Some(snap.pairs));
            assert_eq!(*v.get("eta_us").unwrap(), Value::from(snap.eta_us));
        }
        // No ETA before a tenth of the work is done: written as null.
        assert_eq!(snaps[0].eta_us, None);
        assert_eq!(records[0].get("eta_us"), Some(&Value::Null));
    }

    #[test]
    fn validator_rejects_broken_streams() {
        assert!(validate_progress_jsonl("").is_err());
        // Regressing fraction.
        let bad = concat!(
            "{\"type\":\"progress\",\"t_us\":1,\"fraction\":0.5,\"done_work\":1,\"na_done\":1,\"pairs\":0,\"finished\":false}\n",
            "{\"type\":\"progress\",\"t_us\":2,\"fraction\":0.4,\"done_work\":2,\"na_done\":2,\"pairs\":0,\"finished\":true}\n",
        );
        assert!(validate_progress_jsonl(bad)
            .unwrap_err()
            .contains("regressed"));
        // Final fraction not 1.0.
        let unfinished = "{\"type\":\"progress\",\"t_us\":1,\"fraction\":0.5,\"done_work\":1,\"na_done\":1,\"pairs\":0,\"finished\":true}\n";
        assert!(validate_progress_jsonl(unfinished).is_err());
        // Not finished at all.
        let open = "{\"type\":\"progress\",\"t_us\":1,\"fraction\":1.0,\"done_work\":1,\"na_done\":1,\"pairs\":0,\"finished\":false}\n";
        assert!(validate_progress_jsonl(open).is_err());
    }

    #[test]
    fn terminal_line_renders_bar_fraction_and_eta() {
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        feed(
            &mut tracker.sink(),
            &[(0, 30), (1, 6)],
            &[(0, 30), (1, 6)],
            7,
        );
        let line = engine.sample().terminal_line();
        assert!(line.contains('%'), "{line}");
        assert!(line.starts_with('['), "{line}");
        assert!(line.ends_with("pairs 7"), "{line}");
        tracker.finish();
        let line = engine.sample().terminal_line();
        assert!(line.contains("100.0%"), "{line}");
        assert!(line.contains("done"), "{line}");
    }

    #[test]
    fn sink_deltas_accumulate_across_executors() {
        // Two sinks (two workers) feeding the same tracker: the hub
        // must see the sum, each sink publishing only its own deltas.
        let tracker = ProgressTracker::enabled();
        let mut engine = ProgressEngine::new(&tracker, &priors_two_trees());
        let mut a = tracker.sink();
        let mut b = tracker.sink();
        feed(&mut a, &[(0, 10)], &[(0, 4)], 3);
        feed(&mut b, &[(0, 7)], &[(0, 2)], 1);
        feed(&mut a, &[(0, 12)], &[(0, 4)], 3); // +2 NA only
        let snap = engine.sample();
        assert_eq!(snap.na_done, 10 + 7 + 4 + 2 + 2);
        assert_eq!(snap.pairs, 4);
    }

    #[test]
    fn tick_fires_on_the_flush_cadence() {
        let tracker = ProgressTracker::enabled();
        let mut sink = tracker.sink();
        let fires = (0..(FLUSH_EVERY * 2)).filter(|_| sink.tick()).count();
        assert_eq!(fires, 2);
    }
}
