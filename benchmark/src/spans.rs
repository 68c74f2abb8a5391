//! Reading the span tree: the traced run's only timing mechanism.
//!
//! The harness opens every span below one root span, around each call
//! into a layer's public function. Spans the program itself opens
//! (`cost-guided-join`, `worker`, `unit`, …) start as roots of their own,
//! because the program cannot know the harness's span; [`Trace::new`]
//! adopts each of them under the tightest harness span whose interval
//! contains it, so they nest under the harness's `join.*` span.

use crate::stats::median;
use sjcm::obs::{FieldValue, SpanRecord};
use std::collections::HashMap;

/// A finished trace: the records plus the indexes the reducers use.
pub struct Trace {
    records: Vec<SpanRecord>,
    by_name: HashMap<String, Vec<usize>>,
    children: HashMap<u64, Vec<usize>>,
}

fn end_us(r: &SpanRecord) -> u64 {
    r.start_us + r.dur_us
}

impl Trace {
    /// Indexes `records`; `root` is the id of the harness's root span.
    pub fn new(mut records: Vec<SpanRecord>, root: u64) -> Self {
        adopt_orphans(&mut records, root);
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            by_name.entry(r.name.clone()).or_default().push(i);
            if let Some(p) = r.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Trace {
            records,
            by_name,
            children,
        }
    }

    /// All spans called `name`, in completion order.
    pub fn named(&self, name: &str) -> Vec<&SpanRecord> {
        self.by_name
            .get(name)
            .map(|ix| ix.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// The direct children of span `id`.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        self.children
            .get(&id)
            .map(|ix| ix.iter().map(|&i| &self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .iter()
            .map(|r| r.dur_us as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds; 0
    /// when the workload never opened one (it bypasses that call).
    pub fn ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Median over the spans called `name` of duration ÷ the span's
    /// `ops` field, in nanoseconds per operation.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let per_op: Vec<f64> = self
            .named(name)
            .iter()
            .filter_map(|r| {
                let ops = field_f64(r, "ops")?;
                (ops > 0.0).then(|| r.dur_us as f64 * 1e3 / ops)
            })
            .collect();
        if per_op.is_empty() {
            0.0
        } else {
            median(&per_op)
        }
    }

    /// Field `key` of the last span called `name`; 0 when absent.
    pub fn field(&self, name: &str, key: &str) -> f64 {
        self.named(name)
            .last()
            .and_then(|r| field_f64(r, key))
            .unwrap_or(0.0)
    }

    /// A span's self time in microseconds: its duration minus the part
    /// of its interval that its children cover. Children may overlap
    /// each other (two workers under one join) and are clipped to the
    /// parent's interval, so the result is never negative.
    pub fn self_us(&self, r: &SpanRecord) -> u64 {
        self.uncovered_us(r, |_| true)
    }

    /// The part of `r`'s interval, in microseconds, that none of its
    /// children accepted by `counts` covers.
    pub fn uncovered_us(&self, r: &SpanRecord, counts: impl Fn(&SpanRecord) -> bool) -> u64 {
        let mut cover: Vec<(u64, u64)> = self
            .children_of(r.id)
            .into_iter()
            .filter(|c| counts(c))
            .map(|c| (c.start_us.max(r.start_us), end_us(c).min(end_us(r))))
            .filter(|(s, e)| e > s)
            .collect();
        r.dur_us - union_len(&mut cover)
    }
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A numeric span field as `f64`.
pub fn field_f64(r: &SpanRecord, key: &str) -> Option<f64> {
    r.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
        Some(match v {
            FieldValue::U64(x) => *x as f64,
            FieldValue::F64(x) => *x,
            FieldValue::Bool(b) => f64::from(u8::from(*b)),
            FieldValue::Str(_) => return None,
        })
    })
}

/// Gives every parentless span other than `root` the tightest span
/// below `root` that contains it in time as its parent.
fn adopt_orphans(records: &mut [SpanRecord], root: u64) {
    let parent_of: HashMap<u64, Option<u64>> = records.iter().map(|r| (r.id, r.parent)).collect();
    let under_root = |mut id: u64| loop {
        if id == root {
            return true;
        }
        match parent_of.get(&id) {
            Some(Some(p)) => id = *p,
            _ => return false,
        }
    };
    let harness: Vec<(u64, u64, u64)> = records
        .iter()
        .filter(|r| under_root(r.id))
        .map(|r| (r.id, r.start_us, end_us(r)))
        .collect();
    for r in records.iter_mut() {
        if r.parent.is_some() || r.id == root {
            continue;
        }
        let (s, e) = (r.start_us, end_us(r));
        r.parent = harness
            .iter()
            .filter(|&&(_, hs, he)| hs <= s && e <= he)
            .min_by_key(|&&(id, hs, he)| (he - hs, std::cmp::Reverse(id)))
            .map(|&(id, _, _)| id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A join of 100 µs with two workers running side by side over
        // [10, 70) and [20, 90): together they cover 80 µs, not 130.
        let t = Trace::new(
            vec![
                span(1, None, "run", 0, 1000),
                span(2, Some(1), "join.run", 100, 100),
                span(3, Some(2), "worker", 110, 60),
                span(4, Some(2), "worker", 120, 70),
            ],
            1,
        );
        let join = t.named("join.run")[0];
        assert_eq!(t.self_us(join), 20);
        // The root's only child covers 100 of its 1000 µs.
        assert_eq!(t.self_us(t.named("run")[0]), 900);
        // A leaf's self time is its duration.
        assert_eq!(t.self_us(t.named("worker")[1]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent by clock skew of the two
        // threads must not drive the self time negative.
        let t = Trace::new(
            vec![
                span(1, None, "run", 0, 100),
                span(2, Some(1), "join.run", 10, 50),
                span(3, Some(2), "worker", 5, 100),
            ],
            1,
        );
        assert_eq!(t.self_us(t.named("join.run")[0]), 0);
    }

    #[test]
    fn program_roots_nest_under_the_tightest_harness_span() {
        let t = Trace::new(
            vec![
                span(1, None, "run", 0, 1000),
                span(2, Some(1), "query-pass", 100, 500),
                span(3, Some(2), "join.run", 200, 300),
                // Opened by the program with no parent.
                span(4, None, "cost-guided-join", 210, 280),
                span(5, Some(4), "worker", 220, 100),
                // Outside every pass: only the root contains it.
                span(6, None, "stray", 700, 10),
            ],
            1,
        );
        assert_eq!(t.named("cost-guided-join")[0].parent, Some(3));
        assert_eq!(t.named("worker")[0].parent, Some(4));
        assert_eq!(t.named("stray")[0].parent, Some(1));
        assert_eq!(t.self_us(t.named("join.run")[0]), 20);
    }

    #[test]
    fn reducers_read_durations_and_fields() {
        let mut probe = span(2, Some(1), "geom.scalar", 0, 2000);
        probe
            .fields
            .push(("ops".to_string(), FieldValue::U64(1_000_000)));
        let t = Trace::new(vec![span(1, None, "run", 0, 5000), probe], 1);
        assert_eq!(t.ms("geom.scalar"), 2.0);
        assert_eq!(t.ns_per_op("geom.scalar"), 2.0);
        assert_eq!(t.field("geom.scalar", "ops"), 1e6);
        assert_eq!(t.ms("never.opened"), 0.0);
    }
}
