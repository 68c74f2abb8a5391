//! `join`: the sequential SJ with and without result pairs, node
//! matching on sampled leaf pairs, the two parallel schedulers at two
//! threads, the fixed cost of a tiny join, and the two index-light
//! baselines — all on the workload's two main trees.

use super::Probes;
use crate::metrics::Metrics;
use crate::pipeline::run_join;
use crate::spans::Trace;
use crate::stats::median;
use crate::workload::{with_ids, LayerInputs, Scope};
use sjcm::join::baselines::index_nested_loop_join;
use sjcm::join::{matched_entries, JoinConfig, MatchKernel, MatchScratch, PbsmSession, Scheduler};
use sjcm::obs::{Span, SpanRecord, Tracer};
use sjcm::rtree::{BulkLoad, NodeId, RTree, RTreeConfig};
use std::hint::black_box;

/// Objects per side of the join whose cost is all set-up.
const TINY: usize = 500;
const TINY_BATCH: usize = 20;

fn config(collect_pairs: bool) -> JoinConfig {
    JoinConfig {
        collect_pairs,
        ..JoinConfig::default()
    }
}

/// One join of the two main trees under `scheduler`, its counts attached
/// to `span`.
fn join_once(p: &Probes, x: &LayerInputs, span: &mut Span, scheduler: Scheduler, pairs: bool) {
    let result = run_join(
        x.trees[0],
        x.trees[1],
        scheduler,
        config(pairs),
        &p.scope(span),
    )
    .expect("ungoverned join cannot fail");
    span.set("na", result.na_total());
    span.set("da", result.da_total());
    span.set("pairs", result.pair_count);
    span.set("na_imbalance", result.na_imbalance());
    span.set("units", result.workers.iter().map(|w| w.units).sum::<u64>());
    span.set(
        "steals",
        result.steals.iter().map(|s| s.units_stolen).sum::<u64>(),
    );
}

fn seq_ms(p: &Probes, x: &LayerInputs) {
    p.repeat("join.seq", 5, |span| {
        join_once(p, x, span, Scheduler::Sequential, true)
    });
}

fn seq_nopairs_ms(p: &Probes, x: &LayerInputs) {
    p.repeat("join.seq_nopairs", 5, |span| {
        join_once(p, x, span, Scheduler::Sequential, false)
    });
}

fn par2_cost_guided_ms(p: &Probes, x: &LayerInputs) {
    let scheduler = Scheduler::CostGuided { threads: x.threads };
    p.repeat("join.par2_cost_guided", 5, |span| {
        join_once(p, x, span, scheduler, true)
    });
}

fn par2_cost_guided_nopairs_ms(p: &Probes, x: &LayerInputs) {
    let scheduler = Scheduler::CostGuided { threads: x.threads };
    p.repeat("join.par2_cost_guided_nopairs", 5, |span| {
        join_once(p, x, span, scheduler, false)
    });
}

fn par2_round_robin_ms(p: &Probes, x: &LayerInputs) {
    let scheduler = Scheduler::RoundRobin { threads: x.threads };
    p.repeat("join.par2_round_robin", 5, |span| {
        join_once(p, x, span, scheduler, true)
    });
}

/// `matched_entries` over the sampled leaf pairs with `kernel`.
fn match_ns_per_node_pair(
    p: &Probes,
    x: &LayerInputs,
    leaf_pairs: &[(NodeId, NodeId)],
    name: &str,
    kernel: MatchKernel,
) {
    let config = JoinConfig {
        kernel,
        ..JoinConfig::default()
    };
    let mut scratch = MatchScratch::new();
    p.repeat(name, 5, |span| {
        let (mut matched, mut tested) = (0u64, 0u64);
        for &(a, b) in leaf_pairs {
            let (n1, n2) = (x.trees[0].node(a), x.trees[1].node(b));
            matched += black_box(matched_entries(n1, n2, &config, &mut scratch)).len() as u64;
            tested += (n1.len() * n2.len()) as u64;
        }
        span.set("ops", leaf_pairs.len());
        span.set("matched", matched);
        span.set("tested", tested);
    });
}

/// A join of two packed 500-object trees: session set-up, unit pricing
/// and thread spawn with next to no traversal.
fn fixed_cost_us(p: &Probes, x: &LayerInputs) {
    let tiny = |set: usize| -> RTree<2> {
        let prefix = &x.sets[set][..TINY.min(x.sets[set].len())];
        RTree::bulk_load(RTreeConfig::paper(2), with_ids(prefix), BulkLoad::Str, 0.67)
    };
    let (t1, t2) = (tiny(0), tiny(1));
    for (name, scheduler) in [
        ("join.fixed_cost_seq", Scheduler::Sequential),
        (
            "join.fixed_cost_par2",
            Scheduler::CostGuided { threads: x.threads },
        ),
    ] {
        // Batches run against a disabled tracer, so that the batch span
        // times joins and not the spans the joins would open.
        let quiet = Tracer::disabled();
        p.repeat(name, 5, |span| {
            let dead = quiet.span("quiet");
            let scope = Scope {
                tracer: &quiet,
                span: &dead,
            };
            for _ in 0..TINY_BATCH {
                black_box(
                    run_join(&t1, &t2, scheduler, config(true), &scope)
                        .expect("ungoverned join cannot fail"),
                );
            }
            span.set("ops", TINY_BATCH);
        });
    }
}

/// `PbsmSession` over the raw sets: the join with no index at all.
fn pbsm_ms(p: &Probes, x: &LayerInputs) {
    let (left, right) = (with_ids(x.sets[0]), with_ids(x.sets[1]));
    p.repeat("join.pbsm", 3, |span| {
        let out = PbsmSession::new(&left, &right, 32, 50)
            .run()
            .expect("ungoverned PBSM cannot fail");
        span.set("pairs", out.result.pairs.len());
    });
}

/// `index_nested_loop_join`: one window query on the first tree per
/// object of the second set.
fn inl_ms(p: &Probes, x: &LayerInputs) {
    let probes = with_ids(x.sets[1]);
    p.repeat("join.inl", 3, |span| {
        let out = index_nested_loop_join(x.trees[0], &probes);
        span.set("pairs", out.pairs.len());
    });
}

pub fn probe(p: &Probes, x: &LayerInputs, leaf_pairs: &[(NodeId, NodeId)]) {
    seq_ms(p, x);
    seq_nopairs_ms(p, x);
    match_ns_per_node_pair(p, x, leaf_pairs, "join.match", MatchKernel::default());
    match_ns_per_node_pair(p, x, leaf_pairs, "join.match_scalar", MatchKernel::Scalar);
    par2_cost_guided_ms(p, x);
    par2_cost_guided_nopairs_ms(p, x);
    par2_round_robin_ms(p, x);
    fixed_cost_us(p, x);
    pbsm_ms(p, x);
    inl_ms(p, x);
}

/// Per cost-guided run: (time no worker was running, worker busy share
/// of `threads` × the join's span), from the program's own spans.
fn worker_coverage(t: &Trace, threads: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut serial_ms, mut busy_pct) = (Vec::new(), Vec::new());
    for probe in t.named("probe.join.par2_cost_guided") {
        // Present only when the run was parallel (threads ≥ 2).
        let Some(join) = t
            .children_of(probe.id)
            .into_iter()
            .find(|c| c.name == "cost-guided-join")
        else {
            continue;
        };
        let is_worker = |c: &SpanRecord| c.name == "worker";
        serial_ms.push(t.uncovered_us(join, is_worker) as f64 / 1e3);
        let busy: u64 = t
            .children_of(join.id)
            .iter()
            .filter(|c| is_worker(c))
            .map(|c| c.dur_us)
            .sum();
        busy_pct.push(100.0 * busy as f64 / (threads * join.dur_us.max(1) as f64));
    }
    (serial_ms, busy_pct)
}

pub fn reduce(t: &Trace, m: &mut Metrics) {
    let seq = t.ms("probe.join.seq");
    let nopairs = t.ms("probe.join.seq_nopairs");
    let na = t.field("probe.join.seq", "na");
    m.set("join.seq_ms", seq);
    m.set("join.seq_nopairs_ms", nopairs);
    m.set("join.emit_ms", seq - nopairs);
    m.set("join.ns_per_na", nopairs * 1e6 / na);
    m.set("join.na", na);
    m.set("join.da", t.field("probe.join.seq", "da"));
    m.set("join.pairs", t.field("probe.join.seq", "pairs"));

    let match_ns = t.ns_per_op("probe.join.match");
    m.set("join.match_ns_per_node_pair", match_ns);
    m.set(
        "join.match_scalar_ns_per_node_pair",
        t.ns_per_op("probe.join.match_scalar"),
    );
    m.set(
        "join.match_hit_ratio",
        t.field("probe.join.match", "matched") / t.field("probe.join.match", "tested"),
    );
    // Every visited node pair costs two node accesses, so NA / 2 node
    // pairs were matched; base: the pair-free sequential join.
    m.set(
        "join.match_share_pct",
        100.0 * (match_ns * na / 2.0) / (nopairs * 1e6),
    );

    let par2 = t.ms("probe.join.par2_cost_guided");
    let par2_nopairs = t.ms("probe.join.par2_cost_guided_nopairs");
    m.set("join.par2_cost_guided_ms", par2);
    m.set("join.par2_cost_guided_nopairs_ms", par2_nopairs);
    m.set(
        "join.par2_round_robin_ms",
        t.ms("probe.join.par2_round_robin"),
    );
    m.set("join.speedup_at_2", seq / par2);
    m.set("join.merge_sort_ms", par2 - par2_nopairs);
    for key in ["na_imbalance", "units", "steals"] {
        m.set(
            &format!("join.{key}"),
            t.field("probe.join.par2_cost_guided", key),
        );
    }
    let threads = t.field("probe.bench.facts", "threads");
    let (serial_ms, busy_pct) = worker_coverage(t, threads);
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    // With one thread the join falls back to the sequential traversal:
    // all of it is serial.
    let serial = if serial_ms.is_empty() {
        par2
    } else {
        median(&serial_ms)
    };
    m.set("join.par2_serial_ms", serial);
    m.set("join.worker_busy_pct", or_zero(&busy_pct));

    m.set(
        "join.fixed_cost_seq_us",
        t.ns_per_op("probe.join.fixed_cost_seq") / 1e3,
    );
    m.set(
        "join.fixed_cost_par2_us",
        t.ns_per_op("probe.join.fixed_cost_par2") / 1e3,
    );
    m.set("join.pbsm_ms", t.ms("probe.join.pbsm"));
    m.set("join.inl_ms", t.ms("probe.join.inl"));
}
