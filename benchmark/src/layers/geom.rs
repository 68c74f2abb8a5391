//! `geom`: the intersection predicate, scalar and batched, over the entry
//! rectangles of sampled leaf pairs, and the density measure.

use super::Probes;
use crate::metrics::Metrics;
use crate::spans::Trace;
use crate::workload::LayerInputs;
use sjcm::geom::{density, OverlapMask, Rect, RectBatch};
use sjcm::rtree::NodeId;
use std::hint::black_box;

/// The entry rectangles of each sampled leaf pair.
fn entry_rects(x: &LayerInputs, pairs: &[(NodeId, NodeId)]) -> Vec<(Vec<Rect<2>>, Vec<Rect<2>>)> {
    let rects = |tree: usize, id: NodeId| -> Vec<Rect<2>> {
        x.trees[tree]
            .node(id)
            .entries
            .iter()
            .map(|e| e.rect)
            .collect()
    };
    pairs
        .iter()
        .map(|&(a, b)| (rects(0, a), rects(1, b)))
        .collect()
}

/// `Rect::intersects`, one call per entry pair.
fn scalar_ns_per_test(p: &Probes, sample: &[(Vec<Rect<2>>, Vec<Rect<2>>)]) {
    p.repeat("geom.scalar", 5, |span| {
        let (mut tests, mut hits) = (0u64, 0u64);
        for (r1, r2) in sample {
            for b in r2 {
                for a in r1 {
                    hits += u64::from(a.intersects(b));
                }
            }
            tests += (r1.len() * r2.len()) as u64;
        }
        span.set("ops", tests);
        span.set("hits", black_box(hits));
    });
}

/// `RectBatch::overlap_mask`: each R2 entry against a pre-filled batch of
/// the R1 node's entries.
fn batch_ns_per_test(p: &Probes, sample: &[(Vec<Rect<2>>, Vec<Rect<2>>)]) {
    let batches: Vec<RectBatch<2>> = sample
        .iter()
        .map(|(r1, _)| r1.iter().copied().collect())
        .collect();
    let mut mask = OverlapMask::new();
    p.repeat("geom.batch", 5, |span| {
        let (mut tests, mut hits) = (0u64, 0u64);
        for (batch, (_, r2)) in batches.iter().zip(sample) {
            for b in r2 {
                batch.overlap_mask(b, 0, batch.len(), &mut mask);
                hits += mask.count() as u64;
            }
            tests += (batch.len() * r2.len()) as u64;
        }
        span.set("ops", tests);
        span.set("hits", black_box(hits));
    });
}

/// `RectBatch::clear` + `push`: the re-pack the batched kernel pays per
/// node pair.
fn batch_fill_ns_per_entry(p: &Probes, sample: &[(Vec<Rect<2>>, Vec<Rect<2>>)]) {
    let mut batch = RectBatch::<2>::new();
    p.repeat("geom.batch_fill", 5, |span| {
        let mut entries = 0u64;
        for (r1, _) in sample {
            batch.clear();
            for r in r1 {
                batch.push(r);
            }
            entries += black_box(batch.len()) as u64;
        }
        span.set("ops", entries);
    });
}

/// `geom::density` of the two main sets, ten times to a span.
fn density_ms(p: &Probes, x: &LayerInputs) {
    p.repeat("geom.density", 5, |span| {
        for _ in 0..10 {
            black_box(density(black_box(x.sets[0]).iter()) + density(x.sets[1].iter()));
        }
        span.set("ops", 10u64);
    });
}

pub fn probe(p: &Probes, x: &LayerInputs, leaf_pairs: &[(NodeId, NodeId)]) {
    let sample = entry_rects(x, leaf_pairs);
    scalar_ns_per_test(p, &sample);
    batch_ns_per_test(p, &sample);
    batch_fill_ns_per_entry(p, &sample);
    density_ms(p, x);
}

pub fn reduce(t: &Trace, m: &mut Metrics) {
    m.set("geom.scalar_ns_per_test", t.ns_per_op("probe.geom.scalar"));
    m.set("geom.batch_ns_per_test", t.ns_per_op("probe.geom.batch"));
    m.set(
        "geom.batch_fill_ns_per_entry",
        t.ns_per_op("probe.geom.batch_fill"),
    );
    m.set("geom.density_ms", t.ns_per_op("probe.geom.density") / 1e6);
}
