//! `obs`: what a span costs, enabled and disabled, and what an enabled
//! tracer costs the parallel join that opens the program's spans.

use super::Probes;
use crate::metrics::Metrics;
use crate::pipeline::run_join;
use crate::spans::Trace;
use crate::stats::{median, quartiles};
use crate::workload::{LayerInputs, Scope};
use sjcm::join::{JoinConfig, Scheduler};
use sjcm::obs::Tracer;
use std::hint::black_box;

const SPANS: usize = 100_000;
/// Enabled/disabled join pairs behind the overhead figure.
const OVERHEAD_PAIRS: usize = 15;

/// Opens and finishes 10⁵ spans on `tracer`.
fn open_spans(tracer: &Tracer) {
    for _ in 0..SPANS {
        black_box(tracer.span("s"));
    }
}

/// Open + finish on an enabled tracer of the probe's own, so that the
/// 10⁵ records do not land in the benchmark's trace.
fn span_ns(p: &Probes) {
    p.repeat("obs.span", 3, |span| {
        open_spans(&Tracer::enabled());
        span.set("ops", SPANS);
    });
}

fn disabled_span_ns(p: &Probes) {
    p.repeat("obs.disabled_span", 3, |span| {
        open_spans(&Tracer::disabled());
        span.set("ops", SPANS);
    });
}

/// The cost-guided join with an enabled tracer of its own, then with a
/// disabled one, alternating, at least fifteen pairs.
fn join_enabled_overhead_pct(p: &Probes, x: &LayerInputs) {
    let scheduler = Scheduler::CostGuided { threads: x.threads };
    let join = |tracer: &Tracer| {
        let root = tracer.span("run");
        let scope = Scope {
            tracer,
            span: &root,
        };
        run_join(
            x.trees[0],
            x.trees[1],
            scheduler,
            JoinConfig::default(),
            &scope,
        )
        .expect("ungoverned join cannot fail")
    };
    let mut enabled_first = false;
    p.repeat("obs.join_pair", OVERHEAD_PAIRS, |pair| {
        // Whichever runs second finds the caches warm: take turns.
        enabled_first = !enabled_first;
        for enabled in [enabled_first, !enabled_first] {
            if enabled {
                let _span = pair.child("probe.obs.join_enabled");
                black_box(join(&Tracer::enabled()));
            } else {
                let _span = pair.child("probe.obs.join_disabled");
                black_box(join(&Tracer::disabled()));
            }
        }
    });
}

pub fn probe(p: &Probes, x: &LayerInputs) {
    span_ns(p);
    disabled_span_ns(p);
    join_enabled_overhead_pct(p, x);
}

pub fn reduce(t: &Trace, m: &mut Metrics) {
    m.set("obs.span_ns", t.ns_per_op("probe.obs.span"));
    m.set(
        "obs.disabled_span_ns",
        t.ns_per_op("probe.obs.disabled_span"),
    );
    // One overhead figure per pair; the spread of those figures says
    // whether their median resolves anything.
    let overheads: Vec<f64> = t
        .named("probe.obs.join_pair")
        .iter()
        .filter_map(|pair| {
            let kids = t.children_of(pair.id);
            let dur = |name: &str| {
                kids.iter()
                    .find(|c| c.name == name)
                    .map(|c| c.dur_us as f64)
            };
            let (on, off) = (
                dur("probe.obs.join_enabled")?,
                dur("probe.obs.join_disabled")?,
            );
            Some(100.0 * (on - off) / off)
        })
        .collect();
    let [q1, _, q3] = quartiles(&overheads);
    m.set("obs.join_enabled_overhead_pct", median(&overheads));
    m.set("obs.join_enabled_overhead_spread_pct", q3 - q1);
}
