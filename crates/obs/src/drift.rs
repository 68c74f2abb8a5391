//! The model-vs-actual drift monitor.
//!
//! The paper's evaluation (§4.1) claims the analytical formulas track
//! the measured NA/DA within roughly a 15% relative-error envelope.
//! The [`DriftMonitor`] turns that claim into a *live* check: the
//! per-level predictions (Eq 6 for NA, Eqs 8–12 for DA) are registered
//! **before** the join runs ([`DriftMonitor::predict`]); while the join
//! progresses, running counters can be tested against the envelope
//! in-flight ([`DriftMonitor::observe_in_flight`] — a counter that
//! already *exceeds* `prediction × (1 + envelope)` is a breach no
//! matter how much work remains, so overruns are flagged before the run
//! finishes); when the run completes, every target gets its final
//! relative-error gauge ([`DriftMonitor::observe`], published to a
//! [`MetricsRegistry`] as `drift.<name>` by
//! [`DriftMonitor::publish`]).
//!
//! Target names are dotted paths, matching the metrics convention:
//! `na.r1.l2` (tree R1, paper level 2), `da.r2.l1`, and the totals
//! [`NA_TOTAL`] / [`DA_TOTAL`] the execution layer uses for its
//! in-flight checks.

use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Target name for the whole-join NA prediction (both trees).
pub const NA_TOTAL: &str = "na.total";
/// Target name for the whole-join DA prediction (both trees).
pub const DA_TOTAL: &str = "da.total";

/// The paper's accuracy envelope: ~15% relative error (§4.1). The one
/// copy of the band: the drift monitor's default, the progress ETA's
/// confidence band, the governor's forfeit-estimate gates and EXPLAIN
/// ANALYZE's per-operator verdicts all read it.
pub const PAPER_ENVELOPE: f64 = 0.15;

/// The least share of its total a prediction must carry to be held to
/// [`PAPER_ENVELOPE`]: a per-level drift target of the `join` command,
/// or an EXPLAIN ANALYZE operator's share of the plan's I/O. Below it
/// a cell is a small denominator — a root-adjacent level of a few
/// hundred accesses, or a 3-page probe priced at 5 pages — where a few
/// node pairs read as tens of percent, and the paper's ~15% claim is
/// about cells with mass. Such cells are still reported, ungated.
pub const MASS_FLOOR: f64 = 0.03;

#[derive(Debug, Clone)]
struct Target {
    predicted: f64,
    actual: Option<f64>,
    overrun: bool,
}

/// One evaluated prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSample {
    /// Target name (e.g. `na.r1.l1`).
    pub name: String,
    /// Registered prediction.
    pub predicted: f64,
    /// Observed value.
    pub actual: f64,
    /// `|predicted − actual| / actual` (`∞` when `actual` is 0 and
    /// `predicted` is not).
    pub rel_err: f64,
    /// `rel_err ≤ envelope`.
    pub within: bool,
    /// The running counter crossed `predicted × (1 + envelope)` while
    /// the join was still in flight.
    pub overrun: bool,
}

/// Collects predictions up front, checks observations against them.
/// Thread-safe; the parallel join's workers call
/// [`DriftMonitor::observe_in_flight`] concurrently.
#[derive(Debug)]
pub struct DriftMonitor {
    envelope: f64,
    targets: Mutex<BTreeMap<String, Target>>,
}

impl Default for DriftMonitor {
    fn default() -> Self {
        Self::new(PAPER_ENVELOPE)
    }
}

impl DriftMonitor {
    /// A monitor with the given relative-error envelope (0.15 = the
    /// paper's ~15%).
    pub fn new(envelope: f64) -> Self {
        assert!(envelope > 0.0, "envelope must be positive");
        Self {
            envelope,
            targets: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured envelope.
    pub fn envelope(&self) -> f64 {
        self.envelope
    }

    /// Registers (or overwrites) the prediction for `name`.
    pub fn predict(&self, name: &str, predicted: f64) {
        let mut t = self.targets.lock().expect("drift poisoned");
        t.insert(
            name.to_string(),
            Target {
                predicted,
                actual: None,
                overrun: false,
            },
        );
    }

    /// Number of registered targets.
    pub fn target_count(&self) -> usize {
        self.targets.lock().expect("drift poisoned").len()
    }

    /// In-flight check: has the running counter for `name` already
    /// exceeded its prediction by more than the envelope? Records the
    /// overrun (sticky) and returns `true` on breach. Unknown names
    /// return `false` — the execution layer does not need to know which
    /// targets the caller registered.
    pub fn observe_in_flight(&self, name: &str, actual_so_far: f64) -> bool {
        let mut targets = self.targets.lock().expect("drift poisoned");
        let Some(target) = targets.get_mut(name) else {
            return false;
        };
        if actual_so_far > target.predicted * (1.0 + self.envelope) {
            target.overrun = true;
        }
        target.overrun
    }

    /// Final observation for `name`: stores `actual` and returns the
    /// evaluated sample. `None` when no prediction was registered.
    pub fn observe(&self, name: &str, actual: f64) -> Option<DriftSample> {
        let mut targets = self.targets.lock().expect("drift poisoned");
        let target = targets.get_mut(name)?;
        target.actual = Some(actual);
        Some(sample(name, target, self.envelope))
    }

    /// Every observed target, sorted by name.
    pub fn samples(&self) -> Vec<DriftSample> {
        let targets = self.targets.lock().expect("drift poisoned");
        targets
            .iter()
            .filter(|(_, t)| t.actual.is_some())
            .map(|(name, t)| sample(name, t, self.envelope))
            .collect()
    }

    /// The targets currently in breach: observed outside the envelope,
    /// or flagged as in-flight overruns (even if never finally
    /// observed).
    pub fn breaches(&self) -> Vec<DriftSample> {
        let targets = self.targets.lock().expect("drift poisoned");
        targets
            .iter()
            .filter(|(_, t)| t.overrun || t.actual.is_some())
            .map(|(name, t)| sample(name, t, self.envelope))
            .filter(|s| !s.within || s.overrun)
            .collect()
    }

    /// `true` when every observed target is inside the envelope and no
    /// in-flight overrun fired.
    pub fn all_within(&self) -> bool {
        self.breaches().is_empty()
    }

    /// Publishes the evaluation into `metrics`: one gauge
    /// `drift.<name>` per observed target (the relative error), the
    /// envelope as `drift.envelope`, and the breach count as the
    /// `drift.breaches` counter.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        metrics.gauge_set("drift.envelope", self.envelope);
        for s in self.samples() {
            metrics.gauge_set(&format!("drift.{}", s.name), s.rel_err);
        }
        metrics.counter_add("drift.breaches", self.breaches().len() as u64);
    }
}

fn sample(name: &str, target: &Target, envelope: f64) -> DriftSample {
    // An overrun target that was never finally observed reports the
    // overrun threshold itself as a lower bound on the actual value.
    let actual = target.actual.unwrap_or(f64::NAN);
    let rel_err = if actual == 0.0 {
        if target.predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (target.predicted - actual).abs() / actual
    };
    DriftSample {
        name: name.to_string(),
        predicted: target.predicted,
        actual,
        rel_err,
        within: rel_err <= envelope,
        overrun: target.overrun,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_envelope_passes() {
        let d = DriftMonitor::new(0.15);
        d.predict("na.total", 1000.0);
        let s = d.observe("na.total", 950.0).unwrap();
        assert!(s.within);
        assert!((s.rel_err - 50.0 / 950.0).abs() < 1e-12);
        assert!(d.all_within());
    }

    #[test]
    fn outside_envelope_is_a_breach() {
        let d = DriftMonitor::new(0.15);
        d.predict("da.total", 100.0);
        let s = d.observe("da.total", 200.0).unwrap();
        assert!(!s.within);
        assert_eq!(d.breaches().len(), 1);
        assert!(!d.all_within());
    }

    #[test]
    fn in_flight_overrun_is_sticky_and_one_sided() {
        let d = DriftMonitor::new(0.15);
        d.predict("na.total", 100.0);
        // Under-prediction mid-run is not a breach — most of the join
        // may simply not have run yet.
        assert!(!d.observe_in_flight("na.total", 50.0));
        assert!(!d.observe_in_flight("na.total", 114.0)); // inside the envelope
        assert!(d.observe_in_flight("na.total", 116.0));
        // Sticky: later smaller readings don't clear it.
        assert!(d.observe_in_flight("na.total", 10.0));
        assert!(!d.all_within());
        assert_eq!(d.breaches().len(), 1);
        assert!(d.breaches()[0].overrun);
    }

    #[test]
    fn unknown_targets_are_ignored() {
        let d = DriftMonitor::new(0.15);
        assert!(!d.observe_in_flight("nope", 1e9));
        assert!(d.observe("nope", 1.0).is_none());
        assert!(d.all_within());
    }

    #[test]
    fn zero_actual_guard() {
        let d = DriftMonitor::new(0.15);
        d.predict("a", 0.0);
        d.predict("b", 5.0);
        assert!(d.observe("a", 0.0).unwrap().within);
        let s = d.observe("b", 0.0).unwrap();
        assert!(s.rel_err.is_infinite());
        assert!(!s.within);
    }

    #[test]
    fn publish_writes_gauges_and_breach_counter() {
        let d = DriftMonitor::new(0.15);
        d.predict("na.r1.l1", 100.0);
        d.predict("na.r1.l2", 100.0);
        d.observe("na.r1.l1", 98.0);
        d.observe("na.r1.l2", 160.0);
        let m = MetricsRegistry::new();
        d.publish(&m);
        assert_eq!(m.gauge("drift.envelope"), Some(0.15));
        assert!(m.gauge("drift.na.r1.l1").unwrap() < 0.15);
        assert!(m.gauge("drift.na.r1.l2").unwrap() > 0.15);
        assert_eq!(m.counter("drift.breaches"), 1);
    }

    #[test]
    fn concurrent_in_flight_checks() {
        let d = DriftMonitor::new(0.15);
        d.predict(NA_TOTAL, 1000.0);
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let d = &d;
                scope.spawn(move || {
                    d.observe_in_flight(NA_TOTAL, (i * 200) as f64);
                });
            }
        });
        // 1400 > 1150 ⇒ someone tripped it.
        assert!(!d.all_within());
    }
}
