//! Deadline- and NA-budget-aware query governor.
//!
//! The paper's whole point is that Eqs 2–6 price a spatial join
//! *before* it runs — which means the system can also decide, before
//! and during execution, whether a query is allowed to run, how much it
//! may cost, and when to cut it short. The [`Governor`] is that layer:
//!
//! 1. **Admission** — [`Governor::admit`] prices the full join with
//!    Eq 6 ([`sjcm_core::join::join_cost_na`]) on the trees' measured
//!    parameters and compares it against a configurable NA budget.
//!    Over-budget queries are either rejected with a typed
//!    [`JoinError::Rejected`] or down-graded to a capped degraded run
//!    ([`AdmissionPolicy`]).
//! 2. **Cooperative cancellation** — a deadline (or an explicit
//!    cancel-after-`k`-units point, the deterministic test hook) is
//!    checked at every work-unit boundary. A refused unit is forfeited
//!    and priced with a localized Eq 3
//!    ([`crate::DegradedJoinResult`]), and because units are gated by
//!    ordinal the forfeited-subtree inventory is identical across
//!    schedulers and thread counts for a fixed cancellation point.
//! 3. **Predictive load shedding** — the governor reads the run's one
//!    unit ledger ([`sjcm_obs::UnitLedger`], written by the
//!    crate-private `ExecContext` unit hooks) through the one
//!    ETA rule ([`sjcm_obs::progress::eta`], the progress engine's too)
//!    and, when the projected finish time exceeds the deadline even
//!    after the §4.1 ±15% trust band, it preemptively sheds the
//!    *cheapest-value* pending units (lowest predicted-pairs-per-NA)
//!    instead of truncating arbitrarily at expiry — so the time that
//!    remains is spent where the model says the pairs are.
//!
//! Every decision is logged as one event on a
//! [`sjcm_obs::governor::GovernorLog`] (admission, arming, shedding,
//! expiry, completion) so `experiments` can stream
//! `governor_events.jsonl` and `validate-obs` can check it.
//!
//! The governor decides; it keeps no work totals and no execution
//! clock, and it executes nothing. What it keeps is what only it
//! decides with: each unit's price and value (the shed ranking), the
//! per-unit retired / shed / in-flight flags, the cancellation prefix
//! and the deadline clock. A tree join whose governor
//! [gates units](Governor::is_unit_gated) runs on the dealt executor of
//! [`crate::parallel`] — the same deal the round-robin scheduler uses,
//! with the governor's gate live at every unit boundary — and every
//! unit reaches it through the `ExecContext` hooks only.
//!
//! [`Governor::unlimited`] follows the recorder's and the progress
//! hub's pattern: a disabled governor is one `Option` discriminant
//! check per call site, and the ungoverned executor paths are taken unchanged —
//! results are byte-identical (`tests/oracle.rs`:
//! `generous_governor_is_identical_to_unlimited`,
//! `gated_but_idle_governor_is_identical_to_ungoverned`), and every
//! join the repo's benchmark times runs with the hook compiled in and
//! off (`join.fixed_cost_seq_us`).

use crate::degraded::{DegradedJoinResult, JoinError};
use crate::parallel::shape_params;
use sjcm_core::join::join_cost_na;
use sjcm_obs::governor::GovernorLog;
use sjcm_obs::{UnitLedger, PAPER_ENVELOPE};
use sjcm_rtree::RTree;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What [`Governor::admit`] does when the Eq-6 predicted cost exceeds
/// the NA budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse to run the query: [`JoinError::Rejected`].
    #[default]
    Reject,
    /// Admit the query but cap its work at `budget / predicted` of the
    /// Eq-6-priced root units (an ordinal-prefix cap, so the forfeited
    /// inventory is deterministic); the result comes back degraded with
    /// the forfeited work priced.
    Degrade,
}

/// Configuration of a [`Governor`]. The default limits nothing — a
/// `Governor::new(GovernorConfig::default())` behaves like
/// [`Governor::unlimited`] except that it logs its lifecycle events.
#[derive(Debug, Clone, Default)]
pub struct GovernorConfig {
    /// Admission budget in Eq-6 node accesses. `None` admits anything.
    pub na_budget: Option<f64>,
    /// What to do when the prediction exceeds `na_budget`.
    pub admission: AdmissionPolicy,
    /// Wall-clock deadline, checked cooperatively at every work-unit
    /// boundary. On expiry all remaining units are forfeited (priced,
    /// not dropped silently).
    pub deadline: Option<Duration>,
    /// Enable ETA-guided load shedding (only meaningful with a
    /// deadline): when the projected finish time exceeds the deadline
    /// beyond the ±15% band, shed lowest-value pending units early
    /// instead of truncating arbitrarily at expiry.
    pub shed: bool,
    /// Deterministic cancellation point: refuse every unit with ordinal
    /// ≥ this value. The test hook behind the cancellation-determinism
    /// proptests; composes with (and is overridden by neither) the
    /// deadline.
    pub cancel_after_units: Option<u64>,
}

impl GovernorConfig {
    /// Sets the admission NA budget.
    pub fn with_na_budget(mut self, budget: f64) -> Self {
        self.na_budget = Some(budget);
        self
    }

    /// Sets the admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Sets the cooperative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables or disables ETA-guided shedding.
    pub fn with_shedding(mut self, shed: bool) -> Self {
        self.shed = shed;
        self
    }

    /// Sets the deterministic cancel-after-`k`-units point.
    pub fn with_cancel_after_units(mut self, units: u64) -> Self {
        self.cancel_after_units = Some(units);
        self
    }
}

/// Consecutive unit boundaries that must all predict an overrun before
/// any unit is shed. The rate is a ratio of wall time to *completed*
/// price (half the in-flight price credited), so an expensive unit
/// still in flight can inflate it; a real overrun keeps predicting
/// overrun at the next boundaries, a transient spike doesn't survive a
/// big unit completing.
const SHED_STREAK: u32 = 3;

/// At most this fraction of the pending price may be shed by one
/// decision. The predictor runs again at the very next boundary, so a
/// persistent overrun still converges geometrically while a single
/// noisy verdict forfeits a bounded slice instead of the whole tail.
const SHED_SLICE: f64 = 0.25;

#[derive(Debug, Default)]
struct GovState {
    /// The deadline clock.
    started: Option<Instant>,
    /// Consecutive boundaries that predicted an overrun (see
    /// [`SHED_STREAK`]); reset by any boundary that projects on time.
    overrun_streak: u32,
    predicted_na: f64,
    /// `budget / predicted` when a `Degrade` admission downgraded the
    /// run; [`Governor::arm_units`] turns it into an ordinal-prefix cap.
    degrade_ratio: Option<f64>,
    prices: Vec<u64>,
    values: Vec<f64>,
    /// Unit will never run again: executed, forfeited, or shed.
    retired: Vec<bool>,
    /// Unit was preemptively shed by the ETA predictor.
    shed: Vec<bool>,
    /// Unit was admitted and has not come back yet. Only pending units
    /// are shed: an admitted unit is already spending its time.
    in_flight: Vec<bool>,
    cancel_after: Option<u64>,
    executed: u64,
    forfeited: u64,
    shed_count: u64,
}

#[derive(Debug)]
struct GovernorInner {
    config: GovernorConfig,
    log: GovernorLog,
    expired: AtomicBool,
    finished: AtomicBool,
    state: Mutex<GovState>,
}

impl GovernorInner {
    fn state(&self) -> MutexGuard<'_, GovState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Counters of one governed run, for metrics publication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorSummary {
    /// Eq-6 predicted NA computed at admission.
    pub predicted_na: f64,
    /// Root work units the governed plan held (0 when the run never
    /// needed unit routing).
    pub units_total: u64,
    /// Units executed to completion.
    pub units_executed: u64,
    /// Units forfeited (deadline expiry, cancellation point, or shed).
    pub units_forfeited: u64,
    /// Units preemptively shed by the ETA predictor (still counted in
    /// `units_forfeited` once an executor reaches and skips them).
    pub units_shed: u64,
}

/// The query governor. Cloning shares all state (one governor per
/// query, however many executors it fans out to); the default value is
/// [`Governor::unlimited`].
#[derive(Debug, Clone, Default)]
pub struct Governor {
    inner: Option<Arc<GovernorInner>>,
}

impl Governor {
    /// A governor that limits nothing and logs nothing — one `Option`
    /// discriminant check per call site. A session that is never
    /// [governed](crate::session::JoinSession::govern) runs with exactly
    /// this.
    pub fn unlimited() -> Self {
        Self { inner: None }
    }

    /// A governor enforcing `config`.
    pub fn new(config: GovernorConfig) -> Self {
        Self {
            inner: Some(Arc::new(GovernorInner {
                config,
                log: GovernorLog::new(),
                expired: AtomicBool::new(false),
                finished: AtomicBool::new(false),
                state: Mutex::new(GovState::default()),
            })),
        }
    }

    /// `true` when any limit (or the decision log) is armed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The governor's decision log, when enabled.
    pub fn log(&self) -> Option<&GovernorLog> {
        self.inner.as_ref().map(|i| &i.log)
    }

    /// The decision log serialized as governor JSONL (`None` when the
    /// governor is unlimited).
    pub fn events_jsonl(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.log.to_jsonl())
    }

    /// Counters of the governed run so far (`None` when unlimited).
    pub fn summary(&self) -> Option<GovernorSummary> {
        self.inner.as_ref().map(|inner| {
            let st = inner.state();
            GovernorSummary {
                predicted_na: st.predicted_na,
                units_total: st.prices.len() as u64,
                units_executed: st.executed,
                units_forfeited: st.forfeited,
                units_shed: st.shed_count,
            }
        })
    }

    /// Admission control: prices the full join with Eq 6 on the trees'
    /// measured parameters and compares it against the NA budget.
    /// Starts the deadline clock either way. An unlimited governor
    /// admits for free.
    pub fn admit<const N: usize>(&self, r1: &RTree<N>, r2: &RTree<N>) -> Result<(), JoinError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let p1 = shape_params(&r1.subtree_shape(r1.root_id()));
        let p2 = shape_params(&r2.subtree_shape(r2.root_id()));
        let predicted = join_cost_na(&p1, &p2);
        let mut st = inner.state();
        if st.started.is_none() {
            st.started = Some(Instant::now());
        }
        st.predicted_na = predicted;
        match inner.config.na_budget {
            Some(budget) if predicted > budget => match inner.config.admission {
                AdmissionPolicy::Reject => {
                    drop(st);
                    inner.log.record(
                        "reject",
                        predicted,
                        format!("predicted NA {predicted:.1} > budget {budget:.1}"),
                    );
                    Err(JoinError::Rejected {
                        predicted_na: predicted,
                        budget,
                    })
                }
                AdmissionPolicy::Degrade => {
                    st.degrade_ratio = Some((budget / predicted).clamp(0.0, 1.0));
                    drop(st);
                    inner.log.record(
                        "admit",
                        predicted,
                        format!(
                            "degraded: predicted NA {predicted:.1} > budget {budget:.1}, \
                             capping work at the budget fraction"
                        ),
                    );
                    Ok(())
                }
            },
            Some(budget) => {
                drop(st);
                inner.log.record(
                    "admit",
                    predicted,
                    format!("predicted NA {predicted:.1} <= budget {budget:.1}"),
                );
                Ok(())
            }
            None => {
                drop(st);
                inner
                    .log
                    .record("admit", predicted, "no admission budget".to_string());
                Ok(())
            }
        }
    }

    /// `true` when execution must route through ordinal-tagged root
    /// units so the governor can gate each one: a deadline or an
    /// explicit cancellation point is armed, or admission downgraded
    /// the run to a capped prefix.
    pub fn is_unit_gated(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| {
            i.config.deadline.is_some()
                || i.config.cancel_after_units.is_some()
                || i.state().degrade_ratio.is_some()
        })
    }

    /// Arms the shed ranking with every unit's price and value and
    /// freezes the cancellation prefix; the work totals live in the
    /// run's unit ledger, armed beside it by `ExecContext::arm_units`.
    /// The dealt tree-join executor prices its root units with the same
    /// Eq-6 × overlap-fraction formula the cost-guided scheduler uses
    /// and values them in pairs per price.
    pub(crate) fn arm_units(&self, prices: Vec<u64>, values: Vec<f64>) {
        let Some(inner) = &self.inner else {
            return;
        };
        let n = prices.len();
        let total: u64 = prices.iter().sum();
        let mut st = inner.state();
        let mut cancel_after = inner.config.cancel_after_units;
        if let Some(ratio) = st.degrade_ratio {
            // Largest ordinal prefix whose cumulative Eq-6 price stays
            // within the admitted fraction of the total.
            let afford = (total as f64 * ratio).floor() as u64;
            let mut acc = 0u64;
            let mut k = 0u64;
            for &p in &prices {
                if acc + p > afford {
                    break;
                }
                acc += p;
                k += 1;
            }
            cancel_after = Some(cancel_after.map_or(k, |c| c.min(k)));
        }
        st.prices = prices;
        st.values = values;
        st.retired = vec![false; n];
        st.shed = vec![false; n];
        st.in_flight = vec![false; n];
        st.cancel_after = cancel_after;
        drop(st);
        inner.log.record(
            "arm",
            n as f64,
            format!(
                "{n} units, total price {total}{}{}",
                match cancel_after {
                    Some(k) => format!(", cancel after unit {k}"),
                    None => String::new(),
                },
                match inner.config.deadline {
                    Some(d) => format!(", deadline {} ms", d.as_millis()),
                    None => String::new(),
                },
            ),
        );
    }

    /// Gate at a work-unit boundary: may ordinal `ordinal` still run?
    /// `false` means the executor must forfeit the unit (it will be
    /// priced into the degraded result, not silently dropped). An
    /// unlimited governor always admits — one `Option` check.
    pub(crate) fn admit_unit(&self, ordinal: usize) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        if inner.expired.load(Ordering::Relaxed) {
            return false;
        }
        let mut st = inner.state();
        if let (Some(deadline), Some(start)) = (inner.config.deadline, st.started) {
            if start.elapsed() >= deadline {
                if !inner.expired.swap(true, Ordering::Relaxed) {
                    inner.log.record(
                        "expire",
                        ordinal as f64,
                        format!(
                            "deadline {} ms reached at unit {ordinal}",
                            deadline.as_millis()
                        ),
                    );
                }
                return false;
            }
        }
        if let Some(k) = st.cancel_after {
            if ordinal as u64 >= k {
                return false;
            }
        }
        if st.shed.get(ordinal).copied().unwrap_or(false) {
            return false;
        }
        if let Some(f) = st.in_flight.get_mut(ordinal) {
            *f = true;
        }
        true
    }

    /// Records a completed unit and runs the ETA overrun predictor over
    /// the run's unit `ledger`, which the caller has already credited
    /// with the unit (see the module docs).
    pub(crate) fn note_unit_done(&self, ordinal: usize, ledger: &UnitLedger) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut st = inner.state();
        st.executed += 1;
        if let Some(f) = st.in_flight.get_mut(ordinal) {
            *f = false;
        }
        if let Some(r) = st.retired.get_mut(ordinal) {
            *r = true;
        }
        if !inner.config.shed || inner.expired.load(Ordering::Relaxed) {
            return;
        }
        let (Some(deadline), Some(start), Some(totals)) =
            (inner.config.deadline, st.started, ledger.totals())
        else {
            return;
        };
        // The rate is the ledger's, over execution time only; the
        // projection still starts from the full wall-clock elapsed,
        // which is what the deadline is denominated in.
        let Some(eta) = totals.eta() else {
            return;
        };
        let elapsed = start.elapsed().as_secs_f64();
        let projected = elapsed + eta.secs;
        let deadline_s = deadline.as_secs_f64();
        // The ETA is trusted to the §4.1 band: shedding fires only when
        // even `ETA / (1 + band)` misses the deadline, and it sheds down
        // to what `deadline × (1 + band)` can afford. Both edges lean
        // toward shedding *less*: a unit shed too eagerly is gone for
        // good, while a unit kept too optimistically is re-examined at
        // the very next boundary and, at worst, truncated at expiry like
        // any ungoverned overrun.
        if projected <= deadline_s * (1.0 + PAPER_ENVELOPE) {
            st.overrun_streak = 0;
            return;
        }
        st.overrun_streak += 1;
        if st.overrun_streak < SHED_STREAK {
            return;
        }
        // Overrun predicted beyond the trust band, persistently: shed
        // down to the price the deadline can afford, keeping the
        // units in flight and then the highest-value pending units, at
        // most [`SHED_SLICE`] of the remaining price per decision.
        let afford_time = (deadline_s * (1.0 + PAPER_ENVELOPE) - elapsed).max(0.0);
        let remaining = totals.remaining();
        let floor = remaining - (remaining as f64 * SHED_SLICE) as u64;
        let afford_price = ((afford_time / eta.secs_per_work) as u64).max(floor);
        let to_shed = shed_candidates(
            &st.prices,
            &st.values,
            |i| !st.retired[i] && !st.in_flight[i],
            afford_price.saturating_sub(totals.in_flight),
        );
        if to_shed.is_empty() {
            return;
        }
        for &i in &to_shed {
            st.retired[i] = true;
            st.shed[i] = true;
            ledger.forfeit(st.prices[i]);
        }
        st.shed_count += to_shed.len() as u64;
        let shed_n = to_shed.len();
        drop(st);
        inner.log.record(
            "shed",
            shed_n as f64,
            format!(
                "eta {projected:.3}s beyond deadline {deadline_s:.3}s (+{:.0}% band): \
                 shed {shed_n} lowest-value units, kept price {afford_price}",
                PAPER_ENVELOPE * 100.0
            ),
        );
    }

    /// Records a unit the executor forfeited because
    /// [`Self::admit_unit`] refused it. Returns `false` when the unit was
    /// shed earlier — its price already left the ledger then — and
    /// `true` otherwise.
    pub(crate) fn note_forfeit(&self, ordinal: usize) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        let mut st = inner.state();
        st.forfeited += 1;
        match st.retired.get_mut(ordinal) {
            Some(r) => !std::mem::replace(r, true),
            None => true,
        }
    }

    /// Closes the decision log with a terminal `finish` event (once;
    /// later calls are no-ops). Entry points call this after assembling
    /// the degraded result.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        if inner.finished.swap(true, Ordering::Relaxed) {
            return;
        }
        let st = inner.state();
        inner.log.record(
            "finish",
            st.executed as f64,
            format!(
                "{} executed, {} forfeited ({} shed)",
                st.executed, st.forfeited, st.shed_count
            ),
        );
    }
}

/// Greedy value-density knapsack: keeps the highest-value pending units
/// whose prices fit `afford_price`, returns the ordinals to shed. Ties
/// broken by ordinal so the selection is deterministic.
fn shed_candidates(
    prices: &[u64],
    values: &[f64],
    is_pending: impl Fn(usize) -> bool,
    afford_price: u64,
) -> Vec<usize> {
    let mut pending: Vec<usize> = (0..prices.len()).filter(|&i| is_pending(i)).collect();
    pending.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    let mut kept = 0u64;
    let mut shed = Vec::new();
    for i in pending {
        if kept + prices[i] <= afford_price {
            kept += prices[i];
        } else {
            shed.push(i);
        }
    }
    shed.sort_unstable();
    shed
}

/// Convenience: asserts a degraded governed result is *well-formed* —
/// every forfeited unit is priced and the estimated forfeited fraction
/// is a finite probability-like number. Used by tests and experiments.
pub fn assert_well_formed<const N: usize>(d: &DegradedJoinResult<N>) {
    for s in &d.skips {
        assert!(
            s.est_pairs.is_finite() && s.est_pairs >= 0.0,
            "skip pairs {s:?}"
        );
    }
    let f = d.forfeited_fraction();
    assert!((0.0..=1.0).contains(&f), "forfeited fraction {f}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{JoinSession, Scheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sjcm_geom::Rect;
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
    /// `scheduler` and `gov` — what every test here runs.
    fn governed(
        r1: &RTree<2>,
        r2: &RTree<2>,
        scheduler: Scheduler,
        gov: &Governor,
    ) -> Result<DegradedJoinResult<2>, JoinError> {
        JoinSession::new(r1, r2)
            .scheduler(scheduler)
            .govern(gov)
            .run()
    }

    fn cost_guided(threads: usize) -> Scheduler {
        Scheduler::CostGuided { threads }
    }

    /// Both parallel schedulers at `threads` workers.
    fn parallel(threads: usize) -> [Scheduler; 2] {
        [Scheduler::RoundRobin { threads }, cost_guided(threads)]
    }

    #[test]
    fn unlimited_governor_is_inert() {
        let gov = Governor::unlimited();
        assert!(!gov.is_enabled());
        assert!(!gov.is_unit_gated());
        assert!(gov.admit_unit(0) && gov.admit_unit(usize::MAX));
        gov.note_unit_done(3, &UnitLedger::default());
        assert!(gov.note_forfeit(4));
        gov.finish();
        assert!(gov.summary().is_none());
        assert!(gov.events_jsonl().is_none());
    }

    #[test]
    fn rejection_is_typed_and_logged() {
        let a = build(600, 0.02, 1);
        let b = build(600, 0.02, 2);
        let gov = Governor::new(GovernorConfig::default().with_na_budget(1.0));
        let err = governed(&a, &b, cost_guided(2), &gov).unwrap_err();
        match err {
            JoinError::Rejected {
                predicted_na,
                budget,
            } => {
                assert!(predicted_na > 1.0);
                assert_eq!(budget, 1.0);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        let text = gov.events_jsonl().unwrap();
        assert!(sjcm_obs::validate_governor_jsonl(&text).is_ok(), "{text}");
    }

    #[test]
    fn degrade_policy_caps_an_ordinal_prefix() {
        let gov = Governor::new(
            GovernorConfig::default()
                .with_na_budget(10.0)
                .with_admission(AdmissionPolicy::Degrade),
        );
        // Simulate an over-budget admission at ratio 0.5.
        gov.inner.as_ref().unwrap().state().degrade_ratio = Some(0.5);
        gov.arm_units(vec![1; 10], vec![1.0; 10]);
        for i in 0..5 {
            assert!(gov.admit_unit(i), "unit {i} is inside the cap");
        }
        for i in 5..10 {
            assert!(!gov.admit_unit(i), "unit {i} is beyond the cap");
        }
    }

    #[test]
    fn cancellation_inventory_is_identical_across_schedulers() {
        let a = build(1_500, 0.012, 3);
        let b = build(1_500, 0.012, 4);
        let full = governed(&a, &b, Scheduler::Sequential, &Governor::unlimited())
            .unwrap()
            .result;
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            for sched in parallel(threads) {
                let gov = Governor::new(GovernorConfig::default().with_cancel_after_units(3));
                let d = governed(&a, &b, sched, &gov).unwrap();
                assert_well_formed(&d);
                assert!(!d.is_exact(), "{sched:?} must forfeit");
                assert!(d.result.pair_count < full.pair_count);
                let summary = gov.summary().unwrap();
                assert!(summary.units_forfeited > 0);
                runs.push((sched, d));
            }
        }
        let (_, first) = &runs[0];
        for (sched, d) in &runs[1..] {
            assert_eq!(d.skips, first.skips, "inventory diverged at {sched:?}");
            assert_eq!(
                {
                    let mut p = d.result.pairs.clone();
                    p.sort_unstable();
                    p
                },
                {
                    let mut p = first.result.pairs.clone();
                    p.sort_unstable();
                    p
                },
                "retained pairs diverged at {sched:?}"
            );
        }
    }

    #[test]
    fn zero_deadline_forfeits_everything_but_stays_well_formed() {
        let a = build(1_200, 0.012, 5);
        let b = build(1_200, 0.012, 6);
        for sched in parallel(2) {
            let gov = Governor::new(GovernorConfig::default().with_deadline(Duration::ZERO));
            let d = governed(&a, &b, sched, &gov).unwrap();
            assert_well_formed(&d);
            assert!(!d.is_exact());
            assert_eq!(d.result.pair_count, 0, "{sched:?}");
            assert!(d.forfeited_pairs() > 0.0, "{sched:?}");
            let text = gov.events_jsonl().unwrap();
            assert!(sjcm_obs::validate_governor_jsonl(&text).is_ok(), "{text}");
            assert!(text.contains("\"expire\""));
        }
    }

    #[test]
    fn generous_deadline_changes_nothing_but_the_boundaries() {
        let a = build(1_000, 0.012, 7);
        let b = build(1_000, 0.012, 8);
        let plain = governed(&a, &b, cost_guided(3), &Governor::unlimited())
            .unwrap()
            .result;
        let gov = Governor::new(GovernorConfig::default().with_deadline(Duration::from_secs(3600)));
        let d = governed(&a, &b, cost_guided(3), &gov).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.result.pairs, plain.pairs);
        assert_eq!(d.result.na_total(), plain.na_total());
        let summary = gov.summary().unwrap();
        assert_eq!(summary.units_forfeited, 0);
        assert!(summary.units_executed > 0);
    }

    #[test]
    fn shed_candidates_keep_the_highest_value_units() {
        let prices = vec![10, 10, 10, 10];
        let values = vec![0.1, 5.0, 0.2, 4.0];
        let all = |_| true;
        // Budget for two units: keep the two highest-value (1 and 3).
        assert_eq!(shed_candidates(&prices, &values, all, 20), vec![0, 2]);
        // Units no longer pending are never shed.
        assert_eq!(shed_candidates(&prices, &values, |i| i != 0, 20), vec![2]);
        // No budget: shed every pending unit.
        assert_eq!(shed_candidates(&prices, &values, all, 0), vec![0, 1, 2, 3]);
        // Ample budget: shed nothing.
        assert!(shed_candidates(&prices, &values, all, 100).is_empty());
    }
}
