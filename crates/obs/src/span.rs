//! Hierarchical timed spans with a JSONL sink.
//!
//! A [`Tracer`] is either **enabled** (it owns a shared record buffer)
//! or **disabled** (it owns nothing). Every operation on a disabled
//! tracer — opening a span, attaching a field, dropping the guard — is
//! a single `Option` discriminant check: no clock read, no allocation,
//! no lock. That is the "no-op sink" guarantee the execution layers
//! rely on when they thread a tracer through their hot paths.
//!
//! Spans form a tree through explicit parent links ([`Span::child`],
//! or [`Tracer::span_under`] when the parent id has to cross a thread
//! boundary, as in the parallel join's per-unit spans). Records are
//! buffered in completion order and serialized one JSON object per
//! line by [`Tracer::to_jsonl`] / [`Tracer::write_jsonl`];
//! [`Tracer::tree_summary`] renders the same records as an indented
//! human-readable tree.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, ids).
    U64(u64),
    /// Floating point (ratios, costs).
    F64(f64),
    /// Short string (labels).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&FieldValue> for Value {
    fn from(v: &FieldValue) -> Self {
        match v {
            FieldValue::U64(v) => (*v).into(),
            FieldValue::F64(v) => (*v).into(),
            FieldValue::Str(s) => s.as_str().into(),
            FieldValue::Bool(b) => (*b).into(),
        }
    }
}

/// One completed span, as buffered by the tracer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within this tracer (1-based, allocation order).
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (e.g. `"frontier-descent"`).
    pub name: String,
    /// Start offset from the tracer's epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Attached fields, in attachment order.
    pub fields: Vec<(String, FieldValue)>,
}

impl From<&SpanRecord> for Value {
    /// One line of the span artifact, keys in `SPAN_KEYS` order.
    fn from(r: &SpanRecord) -> Self {
        let fields = r.fields.iter().map(|(k, v)| (k.clone(), v.into()));
        let values: [Value; 7] = [
            "span".into(),
            r.id.into(),
            r.parent.into(),
            r.name.as_str().into(),
            r.start_us.into(),
            r.dur_us.into(),
            Value::Obj(fields.collect()),
        ];
        let pairs = SPAN_KEYS.map(String::from).into_iter().zip(values);
        Value::Obj(pairs.collect())
    }
}

/// Keys of every span line, in the order [`Tracer::to_jsonl`] writes
/// them.
const SPAN_KEYS: [&str; 7] = [
    "type", "id", "parent", "name", "start_us", "dur_us", "fields",
];

/// Validates a span JSONL document (the `join_trace.jsonl` artifact):
/// every line parses as a `"type":"span"` record carrying
/// [`Tracer::to_jsonl`]'s keys, and there is at least one. Returns the
/// number of spans.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let records = json::read_jsonl(text)?;
    for (i, v) in records.iter().enumerate() {
        json::require(v, &SPAN_KEYS)
            .and_then(|()| match v.get("type").and_then(Value::as_str) {
                Some("span") => Ok(()),
                _ => Err("not a span record".to_string()),
            })
            .map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    if records.is_empty() {
        return Err("no spans recorded".to_string());
    }
    Ok(records.len())
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

/// The span collector. Cheap to clone (shared buffer); see the module
/// docs for the disabled-mode guarantee.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// A tracer whose every operation is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A collecting tracer.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                records: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` when spans are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. The span records itself when dropped (or on
    /// [`Span::finish`]).
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        self.span_under(None, name)
    }

    /// Opens a span under an explicit parent id — the cross-thread form
    /// of [`Span::child`] (span ids are plain `u64`s and can be shipped
    /// to worker threads).
    #[inline]
    pub fn span_under(&self, parent: Option<u64>, name: &str) -> Span {
        match &self.inner {
            None => Span { live: None },
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                Span {
                    live: Some(LiveSpan {
                        inner: Arc::clone(inner),
                        id,
                        parent,
                        name: name.to_string(),
                        started: Instant::now(),
                        fields: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Snapshot of all completed spans, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.records.lock().expect("tracer poisoned").clone(),
        }
    }

    /// All completed spans as JSONL: one
    /// `{"type":"span","id":…,"parent":…,"name":…,"start_us":…,"dur_us":…,"fields":{…}}`
    /// object per line. Empty string when disabled or nothing recorded.
    pub fn to_jsonl(&self) -> String {
        json::to_jsonl(self.records().iter().map(Value::from))
    }

    /// Writes [`Tracer::to_jsonl`] to `path` (parent directories are
    /// created). A disabled tracer writes an empty file, so a `--trace`
    /// flag always produces its artifact.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        json::write_jsonl(path, self.records().iter().map(Value::from))
    }

    /// Renders the span tree: children indented under their parents (in
    /// start order), with durations and fields. Roots ordered by start.
    pub fn tree_summary(&self) -> String {
        let mut records = self.records();
        records.sort_by_key(|r| (r.start_us, r.id));
        let mut children: std::collections::BTreeMap<Option<u64>, Vec<usize>> = Default::default();
        for (i, r) in records.iter().enumerate() {
            children.entry(r.parent).or_default().push(i);
        }
        let mut out = String::new();
        fn render(
            records: &[SpanRecord],
            children: &std::collections::BTreeMap<Option<u64>, Vec<usize>>,
            parent: Option<u64>,
            depth: usize,
            out: &mut String,
        ) {
            let Some(kids) = children.get(&parent) else {
                return;
            };
            for &i in kids {
                let r = &records[i];
                let _ = write!(
                    out,
                    "{:indent$}{}  {:.3} ms",
                    "",
                    r.name,
                    r.dur_us as f64 / 1000.0,
                    indent = depth * 2
                );
                for (k, v) in &r.fields {
                    let _ = write!(out, "  {k}={}", Value::from(v));
                }
                out.push('\n');
                render(records, children, Some(r.id), depth + 1, out);
            }
        }
        render(&records, &children, None, 0, &mut out);
        out
    }
}

struct LiveSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: String,
    started: Instant,
    fields: Vec<(String, FieldValue)>,
}

/// An open span; records itself into the tracer when dropped. All
/// methods are no-ops for spans of a disabled tracer.
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    /// This span's id, `None` when the tracer is disabled. Ship it to
    /// another thread and reparent with [`Tracer::span_under`].
    #[inline]
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }

    /// Opens a child span.
    #[inline]
    pub fn child(&self, name: &str) -> Span {
        match &self.live {
            None => Span { live: None },
            Some(live) => Tracer {
                inner: Some(Arc::clone(&live.inner)),
            }
            .span_under(Some(live.id), name),
        }
    }

    /// Attaches a `key = value` field.
    #[inline]
    pub fn set(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(live) = &mut self.live {
            live.fields.push((key.to_string(), value.into()));
        }
    }

    /// Completes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let start_us = live
            .started
            .saturating_duration_since(live.inner.epoch)
            .as_micros() as u64;
        let dur_us = live.started.elapsed().as_micros() as u64;
        let record = SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            start_us,
            dur_us,
            fields: live.fields,
        };
        live.inner
            .records
            .lock()
            .expect("tracer poisoned")
            .push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut s = t.span("root");
        s.set("k", 1u64);
        let c = s.child("inner");
        assert_eq!(c.id(), None);
        drop(c);
        drop(s);
        assert!(t.records().is_empty());
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.tree_summary(), "");
    }

    #[test]
    fn spans_nest_and_record_in_completion_order() {
        let t = Tracer::enabled();
        let mut root = t.span("root");
        root.set("n", 42u64);
        {
            let mut child = root.child("child");
            child.set("label", "x");
        }
        drop(root);
        let records = t.records();
        assert_eq!(records.len(), 2);
        // Child completes first.
        assert_eq!(records[0].name, "child");
        assert_eq!(records[0].parent, Some(records[1].id));
        assert_eq!(records[1].name, "root");
        assert_eq!(records[1].parent, None);
        assert_eq!(
            records[1].fields,
            vec![("n".to_string(), FieldValue::U64(42))]
        );
    }

    #[test]
    fn jsonl_lines_parse_and_carry_required_keys() {
        let t = Tracer::enabled();
        {
            let mut s = t.span("a \"quoted\" name");
            s.set("ratio", 0.5f64);
            s.set("nan", f64::NAN); // must serialize as null, not NaN
            s.set("flag", true);
            s.set("n", 3u64);
        }
        let jsonl = t.to_jsonl();
        assert_eq!(validate_trace_jsonl(&jsonl), Ok(1));
        let records = json::read_jsonl(&jsonl).unwrap();
        let v = &records[0];
        let keys: Vec<&str> = match v {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, SPAN_KEYS);
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\" name"));
        assert_eq!(v.get("parent"), Some(&Value::Null));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(fields.get("nan"), Some(&Value::Null));
        assert_eq!(fields.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(fields.get("n").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn validator_rejects_broken_span_lines() {
        assert!(validate_trace_jsonl("").is_err());
        let good = "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"a\",\"start_us\":0,\"dur_us\":1,\"fields\":{}}";
        let missing = good.replace(",\"dur_us\":1", "");
        let err = validate_trace_jsonl(&format!("{good}\n{missing}\n")).unwrap_err();
        assert_eq!(err, "line 2: missing key dur_us");
        let err = validate_trace_jsonl(&format!("{good}\n{{\"type\"\n")).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn cross_thread_reparenting_via_span_under() {
        let t = Tracer::enabled();
        let root = t.span("root");
        let root_id = root.id();
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                let t = t.clone();
                scope.spawn(move || {
                    let mut s = t.span_under(root_id, "unit");
                    s.set("worker", w);
                });
            }
        });
        drop(root);
        let records = t.records();
        assert_eq!(records.len(), 4);
        let root_rec = records.iter().find(|r| r.name == "root").unwrap();
        assert_eq!(
            records
                .iter()
                .filter(|r| r.parent == Some(root_rec.id))
                .count(),
            3
        );
    }

    #[test]
    fn tree_summary_indents_children() {
        let t = Tracer::enabled();
        {
            let root = t.span("root");
            let _child = root.child("leafwork");
        }
        let tree = t.tree_summary();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("root"));
        assert!(lines[1].starts_with("  leafwork"));
    }
}
