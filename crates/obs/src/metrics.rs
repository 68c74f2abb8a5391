//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms behind one mutex.
//!
//! The registry is deliberately simple — metrics are recorded at unit
//! and phase boundaries (per work unit, per join, per experiment), not
//! per node access, so a single `Mutex<BTreeMap>` is far below the
//! noise floor of everything it measures. `BTreeMap` keeps the JSONL
//! export and the report tables deterministically ordered.
//!
//! Naming convention (dotted paths, like the gauges the drift check
//! publishes): `<subsystem>.<quantity>[.<qualifier>…]`, e.g.
//! `join.na.r1.l2`, `buffer.r1.misses`, `parallel.steal.attempts`.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Which kind a metric name resolved to (for report rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-write-wins `f64`.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, with one implicit overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total number of recorded samples.
    pub total: u64,
    /// Sum of recorded samples.
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram with power-of-four bounds `1, 4, …, 4096`.
    fn new() -> Self {
        let bounds = vec![1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0];
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            total: 0,
            sum: 0.0,
        }
    }

    fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
    }
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry. Thread-safe; share by reference (or `Arc`).
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<State>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().expect("metrics poisoned");
        f.debug_struct("MetricsRegistry")
            .field("counters", &s.counters.len())
            .field("gauges", &s.gauges.len())
            .field("histograms", &s.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut s = self.state.lock().expect("metrics poisoned");
        *s.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        let s = self.state.lock().expect("metrics poisoned");
        s.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut s = self.state.lock().expect("metrics poisoned");
        s.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let s = self.state.lock().expect("metrics poisoned");
        s.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`, declaring it with
    /// power-of-four bucket bounds `1, 4, …, 4096` when absent — a shape
    /// that suits the small positive counts the schedulers produce
    /// (queue depths, per-unit tallies).
    pub fn histogram_record(&self, name: &str, value: f64) {
        let mut s = self.state.lock().expect("metrics poisoned");
        s.histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .record(value);
    }

    /// Snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let s = self.state.lock().expect("metrics poisoned");
        s.histograms.get(name).cloned()
    }

    /// Every gauge whose name starts with `prefix`, sorted by name.
    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(String, f64)> {
        let s = self.state.lock().expect("metrics poisoned");
        s.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// All metric names with their kinds, sorted by name (for reports).
    pub fn names(&self) -> Vec<(String, MetricKind)> {
        let s = self.state.lock().expect("metrics poisoned");
        let mut out: Vec<(String, MetricKind)> = s
            .counters
            .keys()
            .map(|k| (k.clone(), MetricKind::Counter))
            .chain(s.gauges.keys().map(|k| (k.clone(), MetricKind::Gauge)))
            .chain(
                s.histograms
                    .keys()
                    .map(|k| (k.clone(), MetricKind::Histogram)),
            )
            .collect();
        out.sort();
        out
    }

    /// Serializes the registry as JSONL: one object per metric —
    /// `{"type":"counter","name":…,"value":…}`,
    /// `{"type":"gauge","name":…,"value":…}`, and
    /// `{"type":"histogram","name":…,"bounds":[…],"counts":[…],"total":…,"sum":…}`
    /// — counters first, then gauges, then histograms, each sorted by
    /// name, so the artifact is byte-deterministic for deterministic runs.
    pub fn to_jsonl(&self) -> String {
        json::to_jsonl(self.records())
    }

    /// Writes [`MetricsRegistry::to_jsonl`] to `path` (parent
    /// directories are created).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        json::write_jsonl(path, self.records())
    }

    fn records(&self) -> Vec<Value> {
        let s = self.state.lock().expect("metrics poisoned");
        let scalar = |kind: &str, name: &str, value: Value| {
            Value::from([
                ("type", kind.into()),
                ("name", name.into()),
                ("value", value),
            ])
        };
        let counters = s
            .counters
            .iter()
            .map(|(k, v)| scalar("counter", k, (*v).into()));
        let gauges = s
            .gauges
            .iter()
            .map(|(k, v)| scalar("gauge", k, (*v).into()));
        let histograms = s.histograms.iter().map(|(k, h)| {
            Value::from([
                ("type", "histogram".into()),
                ("name", k.as_str().into()),
                (
                    "bounds",
                    Value::Arr(h.bounds.iter().map(|&b| b.into()).collect()),
                ),
                (
                    "counts",
                    Value::Arr(h.counts.iter().map(|&c| c.into()).collect()),
                ),
                ("total", h.total.into()),
                ("sum", h.sum.into()),
            ])
        });
        counters.chain(gauges).chain(histograms).collect()
    }
}

/// Validates a metrics JSONL document — the join command's metrics
/// file follows this contract: every line
/// parses with the type/name/value shape (histograms: one more count
/// than bounds), and the drift contract holds — a `drift.envelope`
/// gauge is present, every other `drift.*` gauge is a number no larger
/// than it, and the `drift.breaches` counter is 0. Returns the number
/// of metric lines.
pub fn validate_metrics_jsonl(text: &str) -> Result<usize, String> {
    let records = json::read_jsonl(text)?;
    let mut envelope = None;
    let mut drift_gauges = Vec::new();
    let mut breaches = None;
    for (i, v) in records.iter().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let str_of = |k: &str| v.get(k).and_then(Value::as_str).filter(|s| !s.is_empty());
        let (Some(kind), Some(name)) = (str_of("type"), str_of("name")) else {
            return Err(at("metric line missing type/name".to_string()));
        };
        match kind {
            "counter" | "gauge" => json::require(v, &["value"]).map_err(at)?,
            "histogram" => {
                let len = |k: &str| v.get(k).and_then(Value::as_arr).map(<[Value]>::len);
                match (len("bounds"), len("counts")) {
                    (Some(b), Some(c)) if c == b + 1 => {}
                    _ => return Err(at("malformed histogram".to_string())),
                }
            }
            other => return Err(at(format!("unknown metric type {other:?}"))),
        }
        let value = v.get("value").and_then(Value::as_f64);
        match (kind, name) {
            ("gauge", "drift.envelope") => envelope = value,
            ("gauge", _) if name.starts_with("drift.") => drift_gauges.push((name, value)),
            ("counter", "drift.breaches") => breaches = value,
            _ => {}
        }
    }
    if records.is_empty() {
        return Err("no metrics recorded".to_string());
    }
    let env = envelope.ok_or("drift.envelope gauge missing")?;
    if drift_gauges.is_empty() {
        return Err("no drift.* gauges recorded".to_string());
    }
    for (name, err) in drift_gauges {
        match err {
            Some(e) if e <= env => {}
            Some(e) => {
                return Err(format!(
                    "{name} = {:.1}% exceeds the {:.1}% envelope",
                    e * 100.0,
                    env * 100.0
                ))
            }
            None => return Err(format!("{name} is null (non-finite relative error)")),
        }
    }
    match breaches {
        Some(0.0) => Ok(records.len()),
        Some(b) => Err(format!("drift.breaches = {b}, expected 0")),
        None => Err("drift.breaches counter missing".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_add("a.b", 2);
        m.counter_add("a.b", 3);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricsRegistry::new();
        m.gauge_set("g", 1.0);
        m.gauge_set("g", 0.25);
        assert_eq!(m.gauge("g"), Some(0.25));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let m = MetricsRegistry::new();
        for v in [0.5, 1.0, 2.0, 4.0, 4097.0, 1e9] {
            m.histogram_record("h", v);
        }
        let h = m.histogram("h").unwrap();
        // ≤1, ≤4, ≤16, ≤64, ≤256, ≤1024, ≤4096, overflow
        assert_eq!(h.counts, vec![2, 2, 0, 0, 0, 0, 0, 2]);
        assert_eq!(h.total, 6);
    }

    #[test]
    fn default_buckets_cover_small_counts() {
        let m = MetricsRegistry::new();
        m.histogram_record("depths", 3.0);
        let h = m.histogram("depths").unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 1);
        assert_eq!(h.bounds.len() + 1, h.counts.len());
    }

    #[test]
    fn gauge_prefix_query() {
        let m = MetricsRegistry::new();
        m.gauge_set("drift.na.r1.l1", 0.1);
        m.gauge_set("drift.da.r1.l1", 0.2);
        m.gauge_set("other", 9.0);
        let drift = m.gauges_with_prefix("drift.");
        assert_eq!(drift.len(), 2);
        assert_eq!(drift[0].0, "drift.da.r1.l1");
    }

    #[test]
    fn jsonl_parses_with_required_keys() {
        let m = MetricsRegistry::new();
        m.counter_add("c", 1);
        m.gauge_set("g", 0.5);
        m.gauge_set("bad", f64::INFINITY);
        m.histogram_record("h", 2.0);
        m.histogram_record("h", f64::NAN);
        let records = json::read_jsonl(&m.to_jsonl()).unwrap();
        let kinds: Vec<&str> = records
            .iter()
            .map(|v| v.get("type").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(kinds, vec!["counter", "gauge", "gauge", "histogram"]);
        assert_eq!(records[0].get("value").unwrap().as_u64(), Some(1));
        assert_eq!(records[1].get("name").unwrap().as_str(), Some("bad"));
        assert_eq!(records[1].get("value"), Some(&Value::Null));
        assert_eq!(records[2].get("value").unwrap().as_f64(), Some(0.5));
        let h = &records[3];
        json::require(h, &["name", "bounds", "counts", "total", "sum"]).unwrap();
        assert_eq!(h.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("sum"), Some(&Value::Null), "a NaN sum is null, not 0");
    }

    fn drift_metrics(err: f64, breaches: u64) -> String {
        let m = MetricsRegistry::new();
        m.counter_add("drift.breaches", breaches);
        m.gauge_set("drift.envelope", 0.15);
        m.gauge_set("drift.na.total", err);
        m.histogram_record("h", 3.0);
        m.to_jsonl()
    }

    #[test]
    fn validator_enforces_the_drift_contract() {
        assert_eq!(validate_metrics_jsonl(&drift_metrics(0.1, 0)), Ok(4));
        let over = validate_metrics_jsonl(&drift_metrics(0.2, 0)).unwrap_err();
        assert!(over.contains("exceeds"), "{over}");
        let nan = validate_metrics_jsonl(&drift_metrics(f64::NAN, 0)).unwrap_err();
        assert!(nan.contains("null"), "{nan}");
        assert!(validate_metrics_jsonl(&drift_metrics(0.1, 1)).is_err());
        assert!(validate_metrics_jsonl("").is_err());
        let no_envelope = drift_metrics(0.1, 0).replace("drift.envelope", "other");
        assert!(validate_metrics_jsonl(&no_envelope).is_err());
    }

    #[test]
    fn validator_names_the_broken_line() {
        let text = drift_metrics(0.1, 0);
        let lines: Vec<&str> = text.lines().collect();
        for (broken, want) in [
            (
                "{\"type\":\"gauge\",\"name\":\"g\"}",
                "line 2: missing key value",
            ),
            (
                "{\"type\":\"odd\",\"name\":\"g\"}",
                "line 2: unknown metric type",
            ),
            (
                "{\"name\":\"g\",\"value\":1}",
                "line 2: metric line missing type/name",
            ),
            (
                "{\"type\":\"histogram\",\"name\":\"h\",\"bounds\":[1],\"counts\":[1]}",
                "line 2: malformed histogram",
            ),
            ("{\"type\":", "line 2: "),
        ] {
            let doc = [lines[0], broken, lines[1], lines[2], lines[3]].join("\n");
            let err = validate_metrics_jsonl(&doc).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
    }

    #[test]
    fn names_lists_all_kinds_sorted() {
        let m = MetricsRegistry::new();
        m.histogram_record("z", 1.0);
        m.counter_add("a", 1);
        m.gauge_set("m", 0.0);
        let names: Vec<String> = m.names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
