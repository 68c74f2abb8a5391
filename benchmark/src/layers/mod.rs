//! The per-layer probes: one small function per metric, each a call into
//! one layer's public API on the workload's own data, made under a span.
//! `probe` runs them; `reduce` turns the finished trace into metrics, so
//! the trace file alone reproduces every number.
//!
//! A later change that deletes an API touches the one function that
//! calls it and nothing else here.

pub mod core;
pub mod exec;
pub mod geom;
pub mod join;
pub mod obs;
pub mod optimizer;
pub mod rtree;
pub mod storage;

use crate::metrics::Metrics;
use crate::spans::Trace;
use crate::stats::{sub_seed, SplitMix64};
use crate::workload::{Facts, LayerInputs, Scope};
use sjcm::join::PbsmSession;
use sjcm::obs::{Span, Tracer};
use sjcm::rtree::{NodeId, ObjectId, RTree};
use std::time::Instant;

/// Upper bound on repetitions of one probe, so that a very cheap probe
/// under a long time box does not flood the trace.
const MAX_REPS: usize = 400;

/// Intersecting leaf pairs sampled for the kernel and matching probes.
pub const NODE_PAIR_SAMPLE: usize = 2_000;

/// Where probes record, and how long each may repeat.
pub struct Probes<'a> {
    pub tracer: &'a Tracer,
    pub parent: &'a Span,
    /// Time box of one probe in seconds; 0 runs the minimum repetitions.
    pub box_s: f64,
}

impl Probes<'_> {
    /// Runs `f` under a fresh span called `probe.<name>` at least `min`
    /// times and until the time box is spent. The clock here only ends the loop:
    /// every reported time is read from the spans.
    pub fn repeat(&self, name: &str, min: usize, mut f: impl FnMut(&mut Span)) {
        let start = Instant::now();
        for done in 0..MAX_REPS {
            if done >= min && start.elapsed().as_secs_f64() >= self.box_s {
                break;
            }
            let mut span = self.parent.child(&format!("probe.{name}"));
            f(&mut span);
        }
    }

    /// Runs `f` once under a span called `probe.<name>`: for probes that
    /// count rather than time.
    pub fn once(&self, name: &str, f: impl FnOnce(&mut Span)) {
        f(&mut self.parent.child(&format!("probe.{name}")));
    }

    /// A scope for code that opens its own stage spans below `span`.
    pub fn scope<'s>(&'s self, span: &'s Span) -> Scope<'s> {
        Scope {
            tracer: self.tracer,
            span,
        }
    }
}

/// A seeded sample of intersecting leaf pairs of the two main trees:
/// the node pairs the join's matching step actually sees at leaf level.
pub fn sample_leaf_pairs(x: &LayerInputs) -> Vec<(NodeId, NodeId)> {
    let leaves = |tree: &RTree<2>| -> Vec<_> {
        tree.node_ids_at_level(0)
            .into_iter()
            .filter_map(|id| Some((tree.node(id).mbr()?, ObjectId(id.0))))
            .collect()
    };
    let mut pairs = PbsmSession::new(&leaves(x.trees[0]), &leaves(x.trees[1]), 16, 50)
        .run()
        .expect("ungoverned PBSM cannot fail")
        .result
        .pairs;
    pairs.sort_unstable();
    SplitMix64::new(sub_seed(x.seed, 30)).shuffle(&mut pairs);
    pairs.truncate(NODE_PAIR_SAMPLE);
    pairs
        .into_iter()
        .map(|(a, b)| (NodeId(a.0), NodeId(b.0)))
        .collect()
}

/// Runs every layer's probes on `x`.
pub fn probe(p: &Probes, x: &LayerInputs) {
    let leaf_pairs = sample_leaf_pairs(x);
    geom::probe(p, x, &leaf_pairs);
    storage::probe(p, x);
    rtree::probe(p, x);
    join::probe(p, x, &leaf_pairs);
    core::probe(p, x);
    optimizer::probe(p, x);
    exec::probe(p, x);
    obs::probe(p, x);
}

/// Reduces the trace to the per-layer metrics of every layer.
pub fn reduce(t: &Trace, facts: &Facts, m: &mut Metrics) {
    geom::reduce(t, m);
    rtree::reduce(t, m);
    join::reduce(t, m);
    storage::reduce(t, m);
    core::reduce(t, facts, m);
    optimizer::reduce(t, m);
    exec::reduce(t, m);
    obs::reduce(t, m);
}
