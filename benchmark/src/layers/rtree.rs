//! `rtree`: packing, insertion, save and load of the workload's own
//! data, the shape of its two main trees, window queries, and the
//! statistics walks.

use super::Probes;
use crate::metrics::Metrics;
use crate::spans::{field_f64, Trace};
use crate::stats::{median, sub_seed};
use crate::workload::{with_ids, LayerInputs};
use sjcm::datagen::query_windows;
use sjcm::rtree::{BulkLoad, RTree, RTreeConfig};
use sjcm::storage::{FilePageStore, DEFAULT_PAGE_SIZE};
use std::hint::black_box;

/// Objects of the first set the insertion probe inserts one at a time.
const INSERT_SAMPLE: usize = 10_000;

/// Seeded windows per query probe, timed in batches.
const WINDOWS: usize = 2_000;
const WINDOW_BATCH: usize = 100;
/// Side of a query window: a few dozen results at the paper's scale.
const WINDOW_SIDE: f64 = 0.02;

/// `RTree::bulk_load` (STR, 67 % fill) of both main sets.
fn bulk_load_ms(p: &Probes, x: &LayerInputs) {
    p.repeat("rtree.bulk_load", 3, |_| {
        for set in &x.sets[..2] {
            black_box(RTree::bulk_load(
                RTreeConfig::paper(2),
                with_ids(set),
                BulkLoad::Str,
                0.67,
            ));
        }
    });
}

/// `RTree::insert`, one object at a time, of a prefix of the first set:
/// ChooseSubtree, the R* split and forced reinsertion.
fn insert_us_per_object(p: &Probes, x: &LayerInputs) {
    let sample = with_ids(&x.sets[0][..INSERT_SAMPLE.min(x.sets[0].len())]);
    p.repeat("rtree.insert", 2, |span| {
        let mut tree = RTree::<2>::new(RTreeConfig::paper(2));
        for &(rect, id) in &sample {
            tree.insert(rect, id);
        }
        span.set("ops", black_box(tree).len());
    });
}

/// `RTree::save` of both main trees to files, then `FilePageStore::open`
/// + `RTree::load` of both.
fn save_ms_and_load_ms(p: &Probes, x: &LayerInputs) {
    let paths = [x.dir.join("probe-r1.pages"), x.dir.join("probe-r2.pages")];
    p.repeat("rtree.persist", 3, |span| {
        let mut handles = Vec::new();
        {
            let _save = span.child("probe.rtree.save");
            for (tree, path) in x.trees.iter().zip(&paths) {
                let mut store = FilePageStore::create(path, DEFAULT_PAGE_SIZE)
                    .expect("create the probe's file");
                handles.push(tree.save(&mut store).expect("save"));
            }
        }
        let _load = span.child("probe.rtree.load");
        for ((tree, path), handle) in x.trees.iter().zip(&paths).zip(handles) {
            let store = FilePageStore::open(path, DEFAULT_PAGE_SIZE).expect("open");
            black_box(RTree::<2>::load(&store, handle, *tree.config()).expect("load"));
        }
    });
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

/// Nodes, heights and leaf fill of the two main trees.
fn shape(p: &Probes, x: &LayerInputs) {
    p.once("rtree.shape", |span| {
        let (mut nodes, mut leaves, mut leaf_entries) = (0, 0, 0);
        for tree in &x.trees[..2] {
            nodes += tree.node_count();
            for id in tree.node_ids_at_level(0) {
                leaves += 1;
                leaf_entries += tree.node(id).len();
            }
        }
        let capacity = leaves * x.trees[0].config().max_entries;
        span.set("nodes", nodes);
        span.set("height_1", x.trees[0].height());
        span.set("height_2", x.trees[1].height());
        span.set(
            "leaf_fill_pct",
            100.0 * leaf_entries as f64 / capacity as f64,
        );
    });
}

/// `RTree::query_window_counting` over seeded windows on the first tree.
fn query_window(p: &Probes, x: &LayerInputs) {
    let windows = query_windows::<2>(WINDOWS, [WINDOW_SIDE; 2], sub_seed(x.seed, 31));
    p.repeat("rtree.query_windows", 1, |sweep| {
        let (mut visits, mut results) = (0u64, 0u64);
        for batch in windows.chunks(WINDOW_BATCH) {
            let mut span = sweep.child("probe.rtree.query_window_batch");
            for w in batch {
                let (hits, per_level) = x.trees[0].query_window_counting(w);
                visits += per_level.iter().sum::<u64>();
                results += hits.len() as u64;
            }
            span.set("ops", batch.len());
        }
        sweep.set("visits", visits);
        sweep.set("results", results);
    });
}

/// `RTree::stats` of the first tree.
fn stats_ms(p: &Probes, x: &LayerInputs) {
    p.repeat("rtree.stats", 3, |_| {
        black_box(x.trees[0].stats());
    });
}

/// `RTree::subtree_stats` of each child of the first tree's root: what
/// the cost-guided scheduler pays to price its units.
fn subtree_stats_us(p: &Probes, x: &LayerInputs) {
    let tree = x.trees[0];
    let root = tree.node(tree.root_id());
    if root.is_leaf() {
        return;
    }
    p.repeat("rtree.subtree_stats", 3, |span| {
        for e in &root.entries {
            black_box(tree.subtree_stats(e.child.node()));
        }
        span.set("ops", root.len());
    });
}

pub fn probe(p: &Probes, x: &LayerInputs) {
    bulk_load_ms(p, x);
    insert_us_per_object(p, x);
    save_ms_and_load_ms(p, x);
    shape(p, x);
    query_window(p, x);
    stats_ms(p, x);
    subtree_stats_us(p, x);
}

pub fn reduce(t: &Trace, m: &mut Metrics) {
    m.set("rtree.bulk_load_ms", t.ms("probe.rtree.bulk_load"));
    m.set("rtree.insert_ms", t.ms("probe.rtree.insert"));
    m.set(
        "rtree.insert_us_per_object",
        t.ns_per_op("probe.rtree.insert") / 1e3,
    );
    m.set("rtree.save_ms", t.ms("probe.rtree.save"));
    m.set("rtree.load_ms", t.ms("probe.rtree.load"));
    for key in ["nodes", "height_1", "height_2", "leaf_fill_pct"] {
        m.set(&format!("rtree.{key}"), t.field("probe.rtree.shape", key));
    }
    m.set(
        "rtree.query_window_us_p50",
        t.ns_per_op("probe.rtree.query_window_batch") / 1e3,
    );
    let ratios: Vec<f64> = t
        .named("probe.rtree.query_windows")
        .iter()
        .filter_map(|r| Some(field_f64(r, "visits")? / field_f64(r, "results")?.max(1.0)))
        .collect();
    m.set("rtree.query_window_na_per_result", median(&ratios));
    m.set("rtree.stats_ms", t.ms("probe.rtree.stats"));
    m.set(
        "rtree.subtree_stats_us",
        t.ns_per_op("probe.rtree.subtree_stats") / 1e3,
    );
}
