//! `storage`: the page codec, the file store's raw write / sync / read,
//! the path buffer's hit ratio and the flight recorder's cost.

use super::Probes;
use crate::metrics::Metrics;
use crate::spans::Trace;
use crate::workload::LayerInputs;
use sjcm::join::{JoinConfig, JoinSession};
use sjcm::rtree::{Child, RTree};
use sjcm::storage::{
    DiskEntry, DiskNode, FilePageStore, FlightRecorder, PageStore, DEFAULT_PAGE_SIZE,
};
use std::hint::black_box;

/// The first main tree's nodes in their on-disk form (child pointers are
/// node ids here; the codec does not care).
fn disk_nodes(tree: &RTree<2>) -> Vec<DiskNode<2>> {
    tree.iter_nodes()
        .map(|(_, node)| DiskNode {
            level: node.level,
            entries: node
                .entries
                .iter()
                .map(|e| DiskEntry {
                    rect: e.rect,
                    child: match e.child {
                        Child::Object(o) => o.0,
                        Child::Node(n) => n.0,
                    },
                })
                .collect(),
        })
        .collect()
}

/// `DiskNode::encode` over the tree's nodes, no file.
fn encode_ns_per_page(p: &Probes, nodes: &[DiskNode<2>]) {
    p.repeat("storage.encode", 5, |span| {
        for node in nodes {
            black_box(node.encode(DEFAULT_PAGE_SIZE).expect("node fits its page"));
        }
        span.set("ops", nodes.len());
    });
}

/// `DiskNode::decode` over the same pages.
fn decode_ns_per_page(p: &Probes, pages: &[Vec<u8>]) {
    p.repeat("storage.decode", 5, |span| {
        for page in pages {
            black_box(DiskNode::<2>::decode(page).expect("page decodes"));
        }
        span.set("ops", pages.len());
    });
}

/// Raw `FilePageStore` allocate + write, `sync`, and read of the same
/// page count, each under its own span.
fn file_write_sync_read_ms(p: &Probes, x: &LayerInputs, pages: &[Vec<u8>]) {
    let path = x.dir.join("probe.pages");
    p.repeat("storage.file", 3, |span| {
        let mut store =
            FilePageStore::create(&path, DEFAULT_PAGE_SIZE).expect("create the probe's file");
        let mut ids = Vec::with_capacity(pages.len());
        {
            let _write = span.child("probe.storage.file_write");
            for page in pages {
                let id = store.allocate().expect("allocate");
                store.write(id, page).expect("write");
                ids.push(id);
            }
        }
        {
            let _sync = span.child("probe.storage.sync");
            store.sync().expect("sync");
        }
        {
            let _read = span.child("probe.storage.file_read");
            for &id in &ids {
                black_box(store.read(id).expect("read"));
            }
        }
        span.set("pages", pages.len());
    });
    let _ = std::fs::remove_file(&path);
}

/// The sequential join with an armed flight recorder; the reducer
/// subtracts the same join without one (`probe.join.seq_nopairs`).
fn recorder_ns_per_access(p: &Probes, x: &LayerInputs) {
    let config = JoinConfig {
        collect_pairs: false,
        ..JoinConfig::default()
    };
    p.repeat("storage.join_recorded", 3, |span| {
        let recorder = FlightRecorder::enabled();
        let result = JoinSession::new(x.trees[0], x.trees[1])
            .config(config)
            .record(&recorder)
            .run()
            .expect("ungoverned join cannot fail")
            .result;
        span.set("na", result.na_total());
    });
}

pub fn probe(p: &Probes, x: &LayerInputs) {
    let nodes = disk_nodes(x.trees[0]);
    let pages: Vec<Vec<u8>> = nodes
        .iter()
        .map(|n| n.encode(DEFAULT_PAGE_SIZE).expect("node fits its page"))
        .collect();
    encode_ns_per_page(p, &nodes);
    decode_ns_per_page(p, &pages);
    file_write_sync_read_ms(p, x, &pages);
    recorder_ns_per_access(p, x);
}

/// Needs `join::reduce` to have run: the recorder's cost and the hit
/// ratio are stated against the plain sequential join.
pub fn reduce(t: &Trace, m: &mut Metrics) {
    m.set(
        "storage.encode_ns_per_page",
        t.ns_per_op("probe.storage.encode"),
    );
    m.set(
        "storage.decode_ns_per_page",
        t.ns_per_op("probe.storage.decode"),
    );
    m.set("storage.file_write_ms", t.ms("probe.storage.file_write"));
    m.set("storage.file_read_ms", t.ms("probe.storage.file_read"));
    m.set("storage.sync_ms", t.ms("probe.storage.sync"));
    let pages = t.field("probe.rtree.shape", "nodes");
    m.set("storage.pages_written", pages);
    m.set("storage.file_bytes", pages * DEFAULT_PAGE_SIZE as f64);
    let (na, da) = (
        m.get("join.na").expect("join reduced first"),
        m.get("join.da").expect("join reduced first"),
    );
    m.set("storage.path_hit_ratio", 1.0 - da / na);
    let plain = m.get("join.seq_nopairs_ms").expect("join reduced first");
    m.set(
        "storage.recorder_ns_per_access",
        (t.ms("probe.storage.join_recorded") - plain) * 1e6 / na,
    );
}
