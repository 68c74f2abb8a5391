//! Deadline- and NA-budget-aware query governor.
//!
//! The paper's whole point is that Eqs 2–6 price a spatial join
//! *before* it runs — which means the system can also decide, before
//! execution, whether a query is allowed to run, how much of it may
//! run, and when to cut it short. The [`Governor`] is that layer:
//!
//! 1. **Admission** — [`Governor::admit`] prices the full join with
//!    Eq 6 ([`sjcm_core::join::join_cost_na`]) on the trees' measured
//!    parameters and compares it against a configurable NA budget.
//!    Over-budget queries are either rejected with a typed
//!    [`JoinError::Rejected`] or down-graded to a capped degraded run
//!    ([`AdmissionPolicy`]).
//! 2. **One decision at arm time** — when the executor arms its root
//!    units, every unit's price (Eq 6 × overlap) and value (expected
//!    pairs per price) are known before any page is read. The governor
//!    turns the cancellation point and a `Degrade` admission's cap into
//!    one per-unit refusal vector there: cancel-after-`k` refuses the
//!    ordinals ≥ `k`, and the cap keeps the highest-value units whose
//!    summed price fits the admitted fraction of the total. Both are
//!    pure functions of the trees and the budget, so the forfeited
//!    inventory is identical across schedulers and thread counts.
//! 3. **Deadline** — a wall-clock deadline is checked at every
//!    work-unit boundary; at expiry every unit not yet admitted is
//!    forfeited (plain truncation). A refused unit is priced with a
//!    localized Eq 3 ([`crate::DegradedJoinResult`]), never dropped
//!    silently.
//!
//! Every decision is logged as one event on a
//! [`sjcm_obs::governor::GovernorLog`] (admission, arming, expiry,
//! completion) so `experiments` can stream `governor_events.jsonl` and
//! `validate-obs` can check it.
//!
//! The governor decides; it keeps no work totals and no execution
//! clock, and it executes nothing. What it keeps is what only it
//! decides with: the per-unit refusal vector and the deadline clock. A
//! tree join whose governor [gates units](Governor::is_unit_gated) runs
//! on the dealt executor of [`crate::parallel`] — the same deal the
//! round-robin scheduler uses, with the governor's gate live at every
//! unit boundary — and every unit reaches it through the `ExecContext`
//! hooks only.
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
    /// Eq-6-priced root units, keeping the units with the most expected
    /// pairs per price (decided once, when the units are armed, so the
    /// forfeited inventory is deterministic); the result comes back
    /// degraded with the forfeited work priced.
    ///
    /// The cap binds the units' Eq-6 × overlap *price*, not the node
    /// accesses they go on to measure: ranking by an estimated ratio
    /// favours units the model underprices, so a capped run can read
    /// more than its budget (6 304 NA against 5 404 on the insertion-
    /// built uniform 60K pair of `experiments governor` at a third of
    /// the prediction).
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
    /// Deterministic cancellation point: refuse every unit with ordinal
    /// ≥ this value. The test hook behind the cancellation-determinism
    /// proptests; composes with the deadline and the `Degrade` cap (a
    /// unit runs only if none of them refuses it).
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

    /// Sets the deterministic cancel-after-`k`-units point.
    pub fn with_cancel_after_units(mut self, units: u64) -> Self {
        self.cancel_after_units = Some(units);
        self
    }
}

#[derive(Debug, Default)]
struct GovState {
    /// The deadline clock.
    started: Option<Instant>,
    predicted_na: f64,
    /// `budget / predicted` when a `Degrade` admission downgraded the
    /// run; [`Governor::arm_units`] turns it into the value-ranked cap.
    degrade_ratio: Option<f64>,
    /// Per unit ordinal: refused at its checkpoint, by the cancellation
    /// point or the `Degrade` cap. Set once, when the units are armed.
    refused: Vec<bool>,
    executed: u64,
    forfeited: u64,
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
    /// Units forfeited (deadline expiry, cancellation point, or the
    /// `Degrade` cap).
    pub units_forfeited: u64,
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
                units_total: st.refused.len() as u64,
                units_executed: st.executed,
                units_forfeited: st.forfeited,
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
    /// the run to the value-ranked cap.
    pub fn is_unit_gated(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| {
            i.config.deadline.is_some()
                || i.config.cancel_after_units.is_some()
                || i.state().degrade_ratio.is_some()
        })
    }

    /// Freezes the per-unit refusal vector from every unit's price and
    /// value (its expected pairs per price), before any unit runs: the
    /// cancellation point refuses the ordinals ≥ `k`, and a `Degrade`
    /// admission keeps the highest-value units whose summed price fits
    /// `⌊total × budget / predicted⌋` ([`value_cap_refusals`]). The
    /// work totals live in the run's unit ledger, armed beside it by
    /// `ExecContext::arm_units`.
    pub(crate) fn arm_units(&self, prices: &[u64], values: &[f64]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let n = prices.len();
        let total: u64 = prices.iter().sum();
        let mut refused = vec![false; n];
        let mut detail = format!("{n} units, total price {total}");
        if let Some(k) = inner.config.cancel_after_units {
            let k = usize::try_from(k).unwrap_or(usize::MAX);
            refused.iter_mut().skip(k).for_each(|r| *r = true);
            detail += &format!(", cancel after unit {k}");
        }
        let mut st = inner.state();
        if let Some(ratio) = st.degrade_ratio {
            let afford = (total as f64 * ratio).floor() as u64;
            let capped = value_cap_refusals(prices, values, afford);
            detail += &format!(
                ", degrade cap {afford}: {} lowest-value units refused",
                capped.len()
            );
            for i in capped {
                refused[i] = true;
            }
        }
        st.refused = refused;
        drop(st);
        if let Some(d) = inner.config.deadline {
            detail += &format!(", deadline {} ms", d.as_millis());
        }
        inner.log.record("arm", n as f64, detail);
    }

    /// Gate at a work-unit boundary: may ordinal `ordinal` still run?
    /// `false` means the executor must forfeit the unit (it will be
    /// priced into the degraded result, not silently dropped): the
    /// deadline has passed, or the unit was refused when the units were
    /// armed. An unlimited governor always admits — one `Option` check.
    pub(crate) fn admit_unit(&self, ordinal: usize) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        if inner.expired.load(Ordering::Relaxed) {
            return false;
        }
        let st = inner.state();
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
        !st.refused.get(ordinal).copied().unwrap_or(false)
    }

    /// Counts a unit that ran to completion.
    pub(crate) fn note_unit_done(&self) {
        if let Some(inner) = &self.inner {
            inner.state().executed += 1;
        }
    }

    /// Counts a unit the executor forfeited because
    /// [`Self::admit_unit`] refused it.
    pub(crate) fn note_forfeit(&self) {
        if let Some(inner) = &self.inner {
            inner.state().forfeited += 1;
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
            format!("{} executed, {} forfeited", st.executed, st.forfeited),
        );
    }
}

/// The `Degrade` cap's greedy value-density knapsack: keeps the units
/// with the most expected pairs per price whose prices fit
/// `afford_price` and returns the ordinals left out, ascending. Ties
/// are broken by ordinal so the selection is deterministic.
fn value_cap_refusals(prices: &[u64], values: &[f64], afford_price: u64) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..prices.len()).collect();
    ranked.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    let mut kept = 0u64;
    let mut refused = Vec::new();
    for i in ranked {
        if kept + prices[i] <= afford_price {
            kept += prices[i];
        } else {
            refused.push(i);
        }
    }
    refused.sort_unstable();
    refused
}

/// Convenience: asserts a degraded governed result is *well-formed* —
/// every forfeited unit is priced and the estimated forfeited fraction
/// is a finite probability-like number. Used by tests and experiments.
pub fn assert_well_formed(d: &DegradedJoinResult) {
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
    ) -> Result<DegradedJoinResult, JoinError> {
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
        assert!(!gov.is_unit_gated());
        assert!(gov.admit_unit(0) && gov.admit_unit(usize::MAX));
        gov.note_unit_done();
        gov.note_forfeit();
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
    fn degrade_policy_keeps_the_highest_value_units() {
        let gov = Governor::new(
            GovernorConfig::default()
                .with_na_budget(10.0)
                .with_admission(AdmissionPolicy::Degrade),
        );
        // Simulate an over-budget admission at ratio 0.5: half of the
        // total price of 10 is afforded, and the values rank the units
        // against their ordinal order.
        gov.inner.as_ref().unwrap().state().degrade_ratio = Some(0.5);
        let values = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5, 1.0];
        gov.arm_units(&[1; 10], &values);
        for i in [1, 3, 5, 7, 9] {
            assert!(
                gov.admit_unit(i),
                "unit {i} is among the five most valuable"
            );
        }
        for i in [0, 2, 4, 6, 8] {
            assert!(!gov.admit_unit(i), "unit {i} is outside the cap");
        }
        // The cancellation point composes with the cap: a unit runs
        // only if neither refuses it.
        let gov = Governor::new(
            GovernorConfig::default()
                .with_na_budget(10.0)
                .with_admission(AdmissionPolicy::Degrade)
                .with_cancel_after_units(4),
        );
        gov.inner.as_ref().unwrap().state().degrade_ratio = Some(0.5);
        gov.arm_units(&[1; 10], &values);
        let admitted: Vec<usize> = (0..10).filter(|&i| gov.admit_unit(i)).collect();
        assert_eq!(admitted, vec![1, 3]);
        assert_eq!(gov.summary().unwrap().units_total, 10);
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
    fn value_cap_refuses_the_lowest_value_units() {
        let prices = vec![10, 10, 10, 10];
        let values = vec![0.1, 5.0, 0.2, 4.0];
        // Budget for two units: keep the two highest-value (1 and 3).
        assert_eq!(value_cap_refusals(&prices, &values, 20), vec![0, 2]);
        // A unit that does not fit is passed over for a cheaper one
        // further down the ranking.
        assert_eq!(
            value_cap_refusals(&[10, 30, 10], &[1.0, 2.0, 0.5], 25),
            vec![1]
        );
        // No budget: refuse every unit.
        assert_eq!(value_cap_refusals(&prices, &values, 0), vec![0, 1, 2, 3]);
        // Ample budget: refuse nothing.
        assert!(value_cap_refusals(&prices, &values, 100).is_empty());
    }
}
