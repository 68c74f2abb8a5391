//! Governor decision log: the JSONL event stream and `governor.*`
//! metric names the query governor publishes through.
//!
//! The governor (in `sjcm-join`) makes a small number of *decisions*
//! per query — admit or reject, arm its units (the deadline, the
//! cancellation point, the `Degrade` cap), expire, finish — and each
//! decision is one
//! [`GovernorEvent`] here. Events carry a monotone microsecond
//! timestamp relative to the governor's own epoch, a kind from the
//! closed [`KNOWN_KINDS`] set, a numeric payload and a free-form
//! detail, and serialize to one JSONL line each under the
//! [`GOVERNOR_SCHEMA`] tag. [`validate_governor_jsonl`] is the
//! `validate-obs` gate for the `governor_events.jsonl` artifact.
//!
//! This module lives in `sjcm-obs` (not `sjcm-join`) for the same
//! layering reason the progress hub does: the experiment harness and
//! the validators consume the stream without linking the executors.

use crate::json::{self, Value};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag stamped on every governor JSONL line.
pub const GOVERNOR_SCHEMA: &str = "sjcm.governor.v1";

/// Canonical file name of the governor event artifact.
pub const GOVERNOR_EVENTS_FILE: &str = "governor_events.jsonl";

/// Event kinds a governor may emit, in rough lifecycle order. The
/// validator rejects anything outside this set.
pub const KNOWN_KINDS: &[&str] = &["admit", "reject", "arm", "expire", "finish"];

/// Kinds that legally terminate a stream: a run either finishes (even
/// degraded) or dies at admission.
pub const TERMINAL_KINDS: &[&str] = &["finish", "reject"];

/// `1` while a governed query was admitted, `0` when it was rejected.
pub const GOV_ADMITTED: &str = "governor.admitted";
/// Eq-6 predicted NA the admission decision was priced at.
pub const GOV_PREDICTED_NA: &str = "governor.predicted_na";
/// The configured NA budget (absent ⇒ gauge not published).
pub const GOV_NA_BUDGET: &str = "governor.na_budget";
/// The configured deadline in milliseconds.
pub const GOV_DEADLINE_MS: &str = "governor.deadline_ms";
/// Root work units the governed plan held.
pub const GOV_UNITS_TOTAL: &str = "governor.units.total";
/// Units executed to completion.
pub const GOV_UNITS_EXECUTED: &str = "governor.units.executed";
/// Units forfeited (deadline, cancellation point, or `Degrade` cap).
pub const GOV_UNITS_FORFEITED: &str = "governor.units.forfeited";

/// One governor decision.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorEvent {
    /// Microseconds since the governor was created (monotone).
    pub t_us: u64,
    /// One of [`KNOWN_KINDS`].
    pub kind: &'static str,
    /// Numeric payload (meaning depends on the kind: predicted NA for
    /// admit/reject, unit count for arm, executed units for finish,
    /// …).
    pub value: f64,
    /// Human-readable context.
    pub detail: String,
}

/// Thread-safe, append-only event collector with a fixed epoch.
/// Cloning shares the buffer (one log per governed query).
#[derive(Debug, Clone)]
pub struct GovernorLog {
    epoch: Instant,
    events: Arc<Mutex<Vec<GovernorEvent>>>,
}

impl Default for GovernorLog {
    fn default() -> Self {
        Self::new()
    }
}

impl GovernorLog {
    /// A fresh log; `t_us` of subsequent events counts from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Appends one event stamped with the current offset from the
    /// epoch. Timestamps are clamped monotone (two decisions inside
    /// the same microsecond keep their append order).
    pub fn record(&self, kind: &'static str, value: f64, detail: impl Into<String>) {
        debug_assert!(KNOWN_KINDS.contains(&kind), "unknown governor kind {kind}");
        let mut events = self.events.lock().unwrap_or_else(|p| p.into_inner());
        let now = self.epoch.elapsed().as_micros() as u64;
        let t_us = events.last().map_or(now, |e| now.max(e.t_us));
        events.push(GovernorEvent {
            t_us,
            kind,
            value,
            detail: detail.into(),
        });
    }

    /// Snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<GovernorEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Serializes the log as governor JSONL (one line per event,
    /// trailing newline; empty string when nothing was recorded).
    pub fn to_jsonl(&self) -> String {
        json::to_jsonl(self.events().iter().map(Value::from))
    }
}

impl From<&GovernorEvent> for Value {
    /// `{"schema":…,"t_us":…,"kind":…,"value":…,"detail":…}`; a
    /// non-finite `value` is `null`, which [`validate_governor_jsonl`]
    /// rejects.
    fn from(e: &GovernorEvent) -> Self {
        Value::from([
            ("schema", GOVERNOR_SCHEMA.into()),
            ("t_us", e.t_us.into()),
            ("kind", e.kind.into()),
            ("value", e.value.into()),
            ("detail", e.detail.as_str().into()),
        ])
    }
}

/// Validates one governor JSONL document: every line parses and is
/// schema-tagged, kinds come from [`KNOWN_KINDS`], `t_us` is monotone
/// non-decreasing, `value` is a number, and the final event is terminal
/// ([`TERMINAL_KINDS`]). Returns the number of events.
pub fn validate_governor_jsonl(text: &str) -> Result<usize, String> {
    let records = json::read_jsonl(text)?;
    let mut last_t = 0.0;
    let mut last_kind = "";
    for (i, v) in records.iter().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        if v.get("schema").and_then(Value::as_str) != Some(GOVERNOR_SCHEMA) {
            return Err(at(format!("missing schema {GOVERNOR_SCHEMA}")));
        }
        json::require(v, &["t_us", "kind", "value", "detail"]).map_err(at)?;
        let kind = v.get("kind").and_then(Value::as_str).unwrap_or("");
        if !KNOWN_KINDS.contains(&kind) {
            return Err(at(format!("unknown kind {kind:?}")));
        }
        let t = v.get("t_us").and_then(Value::as_f64).unwrap_or(-1.0);
        if t < 0.0 || t < last_t {
            return Err(at(format!("t_us regressed ({t})")));
        }
        if v.get("value").and_then(Value::as_f64).is_none() {
            return Err(at("missing numeric value".to_string()));
        }
        last_t = t;
        last_kind = kind;
    }
    if records.is_empty() {
        return Err("no governor events".to_string());
    }
    if !TERMINAL_KINDS.contains(&last_kind) {
        return Err(format!("final event {last_kind} is not terminal"));
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_round_trips_through_the_validator() {
        let log = GovernorLog::new();
        log.record("admit", 1234.5, "predicted 1234.5 <= budget 2000");
        log.record("arm", 42.0, "deadline 50ms over 42 units");
        log.record("expire", 0.0, "");
        log.record("finish", 35.0, "35 executed, 7 forfeited");
        let text = log.to_jsonl();
        assert_eq!(validate_governor_jsonl(&text).unwrap(), 4);
        let events = log.events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn a_non_finite_value_is_null_and_fails_validation() {
        let log = GovernorLog::new();
        log.record("admit", f64::NAN, "predicted NaN");
        log.record("finish", 3.0, "");
        let text = log.to_jsonl();
        let records = json::read_jsonl(&text).unwrap();
        assert_eq!(records[0].get("value"), Some(&Value::Null));
        assert_eq!(
            records[0].get("schema").unwrap().as_str(),
            Some(GOVERNOR_SCHEMA)
        );
        assert_eq!(records[1].get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            validate_governor_jsonl(&text),
            Err("line 1: missing numeric value".to_string())
        );
    }

    #[test]
    fn rejection_is_a_valid_terminal_stream() {
        let log = GovernorLog::new();
        log.record("reject", 9999.0, "predicted 9999 > budget 100");
        assert_eq!(validate_governor_jsonl(&log.to_jsonl()).unwrap(), 1);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_governor_jsonl("").is_err());
        assert!(validate_governor_jsonl("not json\n").is_err());
        // Wrong schema.
        assert!(validate_governor_jsonl(
            "{\"schema\":\"other\",\"t_us\":1,\"kind\":\"finish\",\"value\":0,\"detail\":\"\"}\n"
        )
        .is_err());
        // Unknown kind.
        assert!(validate_governor_jsonl(
            "{\"schema\":\"sjcm.governor.v1\",\"t_us\":1,\"kind\":\"bogus\",\"value\":0,\"detail\":\"\"}\n"
        )
        .is_err());
        // The retired ETA-shedding kind is unknown too.
        let shed = "{\"schema\":\"sjcm.governor.v1\",\"t_us\":1,\"kind\":\"shed\",\"value\":7,\"detail\":\"\"}\n\
                    {\"schema\":\"sjcm.governor.v1\",\"t_us\":2,\"kind\":\"finish\",\"value\":0,\"detail\":\"\"}\n";
        assert_eq!(
            validate_governor_jsonl(shed),
            Err("line 1: unknown kind \"shed\"".to_string())
        );
        // Non-terminal tail.
        assert!(validate_governor_jsonl(
            "{\"schema\":\"sjcm.governor.v1\",\"t_us\":1,\"kind\":\"admit\",\"value\":0,\"detail\":\"\"}\n"
        )
        .is_err());
        // Regressing timestamps.
        let two = "{\"schema\":\"sjcm.governor.v1\",\"t_us\":5,\"kind\":\"admit\",\"value\":0,\"detail\":\"\"}\n\
                   {\"schema\":\"sjcm.governor.v1\",\"t_us\":4,\"kind\":\"finish\",\"value\":0,\"detail\":\"\"}\n";
        assert!(validate_governor_jsonl(two).is_err());
    }
}
