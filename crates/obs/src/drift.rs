//! The model-vs-actual drift check.
//!
//! The paper's evaluation (§4.1) claims the analytical formulas track
//! the measured NA/DA within roughly a 15% relative-error envelope.
//! [`evaluate`] turns that claim into a check of one finished run: the
//! per-level predictions (Eq 6 for NA, Eqs 8–12 for DA, gated by
//! [`gate`]) meet the run's measured tallies under the same names,
//! and each becomes a [`DriftSample`]; [`publish`] writes them to a
//! [`MetricsRegistry`] as `drift.<name>` gauges.
//!
//! Target names are dotted paths, matching the metrics convention:
//! `na.r1.l2` (tree R1, paper level 2), `da.r2.l1`, and the totals
//! [`NA_TOTAL`] / [`DA_TOTAL`].

use crate::metrics::MetricsRegistry;

/// Target name for the whole-join NA prediction (both trees).
pub const NA_TOTAL: &str = "na.total";
/// Target name for the whole-join DA prediction (both trees).
pub const DA_TOTAL: &str = "da.total";

/// The paper's accuracy envelope: ~15% relative error (§4.1). The one
/// copy of the band: the drift check's, the progress ETA's confidence
/// band, the governor's forfeit-estimate gates and EXPLAIN ANALYZE's
/// per-operator verdicts all read it.
pub const PAPER_ENVELOPE: f64 = 0.15;

/// The least share of its total a prediction must carry to be held to
/// [`PAPER_ENVELOPE`]: a per-level drift target of the `join` command,
/// or an EXPLAIN ANALYZE operator's share of the plan's I/O. Below it
/// a cell is a small denominator — a root-adjacent level of a few
/// hundred accesses, or a 3-page probe priced at 5 pages — where a few
/// node pairs read as tens of percent, and the paper's ~15% claim is
/// about cells with mass. Such cells are still reported, ungated.
pub const MASS_FLOOR: f64 = 0.03;

/// One evaluated prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSample {
    /// Target name (e.g. `na.r1.l1`).
    pub name: String,
    /// The prediction.
    pub predicted: f64,
    /// The observed value.
    pub actual: f64,
    /// `|predicted − actual| / actual` (`∞` when `actual` is 0 and
    /// `predicted` is not).
    pub rel_err: f64,
    /// `rel_err ≤ envelope`.
    pub within: bool,
}

/// Splits named predictions into the ones held to the envelope — the
/// [`NA_TOTAL`] / [`DA_TOTAL`] totals, and every level predicted to
/// carry at least [`MASS_FLOOR`] of its total — and the names of the
/// rest, in input order.
pub fn gate(targets: &[(String, f64)]) -> (Vec<(String, f64)>, Vec<String>) {
    let total_of = |name: &str| {
        targets
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (na, da) = (total_of(NA_TOTAL), total_of(DA_TOTAL));
    let (mut gated, mut ungated) = (Vec::new(), Vec::new());
    for (name, predicted) in targets {
        let total = if name.starts_with("na.") { na } else { da };
        if name == NA_TOTAL || name == DA_TOTAL || *predicted >= MASS_FLOOR * total {
            gated.push((name.clone(), *predicted));
        } else {
            ungated.push(name.clone());
        }
    }
    (gated, ungated)
}

/// Every prediction that has an observation of the same name, evaluated
/// against `envelope` and sorted by name. A prediction with no
/// observation, and an observation with no prediction, yield nothing.
pub fn evaluate(
    predictions: &[(String, f64)],
    observations: &[(String, f64)],
    envelope: f64,
) -> Vec<DriftSample> {
    let mut samples: Vec<DriftSample> = predictions
        .iter()
        .filter_map(|(name, predicted)| {
            let (_, actual) = observations.iter().find(|(n, _)| n == name)?;
            Some(sample(name, *predicted, *actual, envelope))
        })
        .collect();
    samples.sort_by(|a, b| a.name.cmp(&b.name));
    samples
}

/// Publishes `samples` into `metrics`: one gauge `drift.<name>` per
/// sample (the relative error), the envelope as `drift.envelope`, and
/// the samples outside it as the `drift.breaches` counter.
pub fn publish(samples: &[DriftSample], envelope: f64, metrics: &MetricsRegistry) {
    metrics.gauge_set("drift.envelope", envelope);
    for s in samples {
        metrics.gauge_set(&format!("drift.{}", s.name), s.rel_err);
    }
    let breaches = samples.iter().filter(|s| !s.within).count();
    metrics.counter_add("drift.breaches", breaches as u64);
}

fn sample(name: &str, predicted: f64, actual: f64, envelope: f64) -> DriftSample {
    let rel_err = if actual == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (predicted - actual).abs() / actual
    };
    DriftSample {
        name: name.to_string(),
        predicted,
        actual,
        rel_err,
        within: rel_err <= envelope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn within_envelope_passes() {
        let s = evaluate(
            &named(&[("na.total", 1000.0)]),
            &named(&[("na.total", 950.0)]),
            0.15,
        );
        assert_eq!(s.len(), 1);
        assert!(s[0].within);
        assert!((s[0].rel_err - 50.0 / 950.0).abs() < 1e-12);
    }

    #[test]
    fn outside_envelope_is_a_breach() {
        let s = evaluate(
            &named(&[("da.total", 100.0)]),
            &named(&[("da.total", 200.0)]),
            0.15,
        );
        assert!(!s[0].within);
        assert_eq!(s.iter().filter(|s| !s.within).count(), 1);
    }

    #[test]
    fn zero_actual_guard() {
        let s = evaluate(
            &named(&[("a", 0.0), ("b", 5.0)]),
            &named(&[("a", 0.0), ("b", 0.0)]),
            0.15,
        );
        assert!(s[0].within);
        assert!(s[1].rel_err.is_infinite());
        assert!(!s[1].within);
    }

    #[test]
    fn publish_writes_gauges_and_breach_counter() {
        let s = evaluate(
            &named(&[("na.r1.l1", 100.0), ("na.r1.l2", 100.0)]),
            &named(&[("na.r1.l1", 98.0), ("na.r1.l2", 160.0)]),
            0.15,
        );
        let m = MetricsRegistry::new();
        publish(&s, 0.15, &m);
        assert_eq!(m.gauge("drift.envelope"), Some(0.15));
        assert!(m.gauge("drift.na.r1.l1").unwrap() < 0.15);
        assert!(m.gauge("drift.na.r1.l2").unwrap() > 0.15);
        assert_eq!(m.counter("drift.breaches"), 1);
    }

    #[test]
    fn gate_keeps_the_totals_and_the_levels_with_mass() {
        let targets = named(&[
            ("na.r1.l1", 900.0),
            ("na.r1.l2", 20.0),
            ("na.total", 1000.0),
            ("da.r1.l1", 40.0),
            ("da.total", 50.0),
        ]);
        let (gated, ungated) = gate(&targets);
        let names: Vec<&str> = gated.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["na.r1.l1", "na.total", "da.r1.l1", "da.total"]);
        // 20 NA is 2% of the NA total; each family is held to its own.
        assert_eq!(ungated, ["na.r1.l2"]);
    }
}
