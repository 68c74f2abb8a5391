//! Tree-construction benchmarks: R\* vs quadratic insertion, STR vs
//! Hilbert bulk loading, plus deletion and persistence round-trips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sjcm_bench::uniform_items;
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig, SplitStrategy};
use sjcm_storage::InMemoryPageStore;
use std::hint::black_box;

type Items = Vec<(sjcm_geom::Rect<2>, ObjectId)>;

fn insertion_build(config: RTreeConfig, items: &Items) -> usize {
    let mut tree = RTree::new(config);
    for &(r, id) in items {
        tree.insert(r, id);
    }
    tree.node_count()
}

fn bench_insertion(c: &mut Criterion) {
    let mut group = c.benchmark_group("insertion_build");
    group.sample_size(10);
    for &n in &[2_000usize, 10_000] {
        let items = uniform_items(n, 0.4, 300);
        group.bench_with_input(BenchmarkId::new("rstar", n), &items, |b, items| {
            b.iter(|| black_box(insertion_build(RTreeConfig::paper(2), items)))
        });
        group.bench_with_input(BenchmarkId::new("quadratic", n), &items, |b, items| {
            let config = RTreeConfig::paper(2).with_split(SplitStrategy::Quadratic);
            b.iter(|| black_box(insertion_build(config, items)))
        });
    }
    // The paper's scale: the uniform 60K of Figures 5–6 and a TIGER-like
    // road map the size of the benchmark's `tiger80k-insert` build.
    let roads = sjcm_datagen::tiger::generate(sjcm_datagen::tiger::TigerConfig::roads(80_000, 300));
    let roads: Items = sjcm_datagen::with_ids(roads)
        .into_iter()
        .map(|(r, id)| (r, ObjectId(id)))
        .collect();
    for (parameter, items) in [
        ("60000", uniform_items(60_000, 0.4, 300)),
        ("tiger80000", roads),
    ] {
        group.bench_with_input(BenchmarkId::new("rstar", parameter), &items, |b, items| {
            b.iter(|| black_box(insertion_build(RTreeConfig::paper(2), items)))
        });
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_load");
    group.sample_size(10);
    for &n in &[10_000usize, 40_000] {
        let items = uniform_items(n, 0.4, 301);
        group.bench_with_input(BenchmarkId::new("str", n), &items, |b, items| {
            b.iter(|| {
                black_box(RTree::bulk_load(
                    RTreeConfig::paper(2),
                    items.clone(),
                    BulkLoad::Str,
                    1.0,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("hilbert", n), &items, |b, items| {
            b.iter(|| {
                black_box(RTree::bulk_load(
                    RTreeConfig::paper(2),
                    items.clone(),
                    BulkLoad::Hilbert,
                    1.0,
                ))
            })
        });
    }
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistence");
    group.sample_size(10);
    let items = uniform_items(20_000, 0.4, 302);
    let tree = RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.8);
    group.bench_function("save", |b| {
        b.iter(|| {
            let mut store = InMemoryPageStore::with_default_page_size();
            black_box(tree.save(&mut store).unwrap())
        })
    });
    let mut store = InMemoryPageStore::with_default_page_size();
    let handle = tree.save(&mut store).unwrap();
    group.bench_function("load", |b| {
        b.iter(|| black_box(RTree::<2>::load(&store, handle, *tree.config()).unwrap()))
    });
    group.finish();
}

fn bench_deletion(c: &mut Criterion) {
    let mut group = c.benchmark_group("deletion");
    group.sample_size(10);
    let items = uniform_items(5_000, 0.4, 303);
    group.bench_function("delete_half", |b| {
        b.iter_with_setup(
            || {
                let mut tree = RTree::new(RTreeConfig::paper(2));
                for &(r, id) in &items {
                    tree.insert(r, id);
                }
                tree
            },
            |mut tree| {
                for &(r, id) in items.iter().step_by(2) {
                    assert!(tree.remove(&r, id));
                }
                black_box(tree.len())
            },
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_insertion,
    bench_bulk_load,
    bench_persistence,
    bench_deletion
);
criterion_main!(benches);
