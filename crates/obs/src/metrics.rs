//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms behind one mutex.
//!
//! The registry is deliberately simple — metrics are recorded at unit
//! and phase boundaries (per work unit, per join, per experiment), not
//! per node access, so a single `Mutex<BTreeMap>` is far below the
//! noise floor of everything it measures. `BTreeMap` keeps the JSONL
//! export and the report tables deterministically ordered.
//!
//! Naming convention (dotted paths, like the gauges the drift monitor
//! publishes): `<subsystem>.<quantity>[.<qualifier>…]`, e.g.
//! `join.na.r1.l2`, `buffer.r1.evictions`, `parallel.steal.attempts`.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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
        let s = self.state.lock().expect("metrics poisoned");
        let mut out = String::new();
        for (k, v) in &s.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}",
                escape(k)
            );
        }
        for (k, v) in &s.gauges {
            let _ = write!(
                out,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":",
                escape(k)
            );
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
            out.push_str("}\n");
        }
        for (k, h) in &s.histograms {
            let bounds: Vec<String> = h.bounds.iter().map(|b| format!("{b}")).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| format!("{c}")).collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":{},\"bounds\":[{}],\"counts\":[{}],\"total\":{},\"sum\":{}}}",
                escape(k),
                bounds.join(","),
                counts.join(","),
                h.total,
                if h.sum.is_finite() { h.sum } else { 0.0 }
            );
        }
        out
    }

    /// Writes [`MetricsRegistry::to_jsonl`] to `path` (parent
    /// directories are created).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

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
        m.gauge_set("bad", f64::INFINITY); // serialized as null
        m.histogram_record("h", 2.0);
        let jsonl = m.to_jsonl();
        let mut kinds = Vec::new();
        for line in jsonl.lines() {
            let v = parse(line).expect("line parses");
            let kind = v.get("type").unwrap().as_str().unwrap().to_string();
            assert!(v.get("name").is_some());
            match kind.as_str() {
                "counter" | "gauge" => assert!(v.get("value").is_some()),
                "histogram" => {
                    let bounds = v.get("bounds").unwrap().as_arr().unwrap();
                    let counts = v.get("counts").unwrap().as_arr().unwrap();
                    assert_eq!(counts.len(), bounds.len() + 1);
                    assert!(v.get("total").is_some());
                }
                other => panic!("unexpected type {other}"),
            }
            kinds.push(kind);
        }
        assert_eq!(kinds, vec!["counter", "gauge", "gauge", "histogram"]);
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
