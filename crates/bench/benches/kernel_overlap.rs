//! Batched-kernel benchmarks: the SoA intersection kernels of
//! `sjcm-geom` against the scalar predicates they replace.
//!
//! Two layers are measured, both in the BENCH JSON convention (one
//! `{...}` line per result):
//!
//! * `kernel_micro` — raw one-vs-many predicate throughput on a fixed
//!   slab of rectangles, isolating the autovectorized inner loop;
//! * `node_matching` — the R-tree join's entry-matching phase on the
//!   60K fixed-seed workload: the exact multiset of node pairs the SJ
//!   traversal visits is collected once, then re-matched with the
//!   scalar and batched kernels (informational: short runs);
//! * `pbsm_sweep` — the PBSM plane sweep over the two 60K datasets,
//!   whose long candidate runs are the workload the kernels target.
//!
//! The **guard**: batched sweep matching (`pbsm_sweep` at `grid = 1` —
//! one sweep of the full sorted lists) must be at least 1.5× the
//! scalar one on the full 60K workload (smoke mode runs a reduced
//! scale and only asserts no regression). Both kernels must produce
//! identical results — asserted on every timed run.

use criterion::{criterion_group, criterion_main, Criterion};
use sjcm_bench::uniform_items;
use sjcm_geom::{OverlapMask, Rect, RectBatch};
use sjcm_join::{matched_entries, JoinConfig, MatchKernel, MatchScratch, PbsmSession};
use sjcm_rtree::{BulkLoad, NodeId, ObjectId, RTree, RTreeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn str_tree(n: usize, d: f64, seed: u64) -> RTree<2> {
    let items: Vec<_> =
        sjcm_datagen::uniform::generate::<2>(sjcm_datagen::uniform::UniformConfig::new(n, d, seed))
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, ObjectId(i as u32)))
            .collect();
    RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.67)
}

/// Raw kernel throughput: one query rectangle against a slab of
/// candidates, scalar `Rect::intersects` loop vs `overlap_mask`.
fn bench_kernel_micro(c: &mut Criterion) {
    let _ = c; // manual timing: JSON lines, not a criterion group
    let (cands, queries, reps) = if smoke() {
        (4_096usize, 64usize, 5u32)
    } else {
        (4_096, 512, 15)
    };
    let rects: Vec<Rect<2>> = sjcm_datagen::uniform::generate::<2>(
        sjcm_datagen::uniform::UniformConfig::new(cands, 0.5, 600),
    );
    let probes: Vec<Rect<2>> = sjcm_datagen::uniform::generate::<2>(
        sjcm_datagen::uniform::UniformConfig::new(queries, 0.5, 601),
    );
    let batch: RectBatch<2> = rects.iter().copied().collect();
    let mut mask = OverlapMask::new();

    let run_scalar = |hits: &mut u64| {
        let start = Instant::now();
        for q in &probes {
            for r in &rects {
                *hits += u64::from(q.intersects(r));
            }
        }
        start.elapsed()
    };
    let run_batched = |hits: &mut u64, mask: &mut OverlapMask| {
        let start = Instant::now();
        for q in &probes {
            batch.overlap_mask(q, 0, batch.len(), mask);
            *hits += mask.count() as u64;
        }
        start.elapsed()
    };

    let (mut warm_s, mut warm_b) = (0u64, 0u64);
    let _ = (run_scalar(&mut warm_s), run_batched(&mut warm_b, &mut mask));
    assert_eq!(warm_s, warm_b, "kernel disagrees with scalar predicate");

    let (mut scalar, mut batched) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        let (mut hs, mut hb) = (0u64, 0u64);
        scalar = scalar.min(run_scalar(&mut hs));
        batched = batched.min(run_batched(&mut hb, &mut mask));
        assert_eq!(hs, hb);
        black_box((hs, hb));
    }
    let tests = (cands * queries) as f64;
    println!(
        "{{\"group\":\"kernel_overlap\",\"bench\":\"kernel_micro/{cands}x{queries}\",\
         \"scalar_us\":{},\"batched_us\":{},\"scalar_ns_per_test\":{:.3},\
         \"batched_ns_per_test\":{:.3},\"speedup\":{:.2}}}",
        scalar.as_micros(),
        batched.as_micros(),
        scalar.as_nanos() as f64 / tests,
        batched.as_nanos() as f64 / tests,
        scalar.as_secs_f64() / batched.as_secs_f64()
    );
}

/// Collects the multiset of node pairs the synchronized traversal
/// visits — the inputs of every `matched_entries` call in a join of
/// the two trees. Both trees are STR-built from the same generator, so
/// heights match and no pinning arises.
fn visited_node_pairs(t1: &RTree<2>, t2: &RTree<2>) -> Vec<(NodeId, NodeId)> {
    assert_eq!(t1.height(), t2.height(), "bench assumes equal heights");
    let config = JoinConfig::default();
    let mut scratch = MatchScratch::new();
    let mut frontier = vec![(t1.root_id(), t2.root_id())];
    let mut out = Vec::new();
    while let Some((a, b)) = frontier.pop() {
        out.push((a, b));
        let n1 = t1.node(a);
        let n2 = t2.node(b);
        if n1.is_leaf() {
            continue;
        }
        for (c1, c2) in matched_entries(n1, n2, &config, &mut scratch) {
            frontier.push((c1.node(), c2.node()));
        }
    }
    out
}

/// Node-level entry matching on the 60K fixed-seed workload: re-match
/// the exact node pairs the synchronized traversal visits, scalar vs
/// batched (informational — `matched_entries` hands the kernels only
/// the entries meeting the other node's MBR, about 13 of a node's 33,
/// so this phase is bounded by the restriction pass both kernels
/// share; the guard lives on the long-run sweep below).
fn bench_node_matching(c: &mut Criterion) {
    let _ = c; // manual timing: JSON lines, not a criterion group
    let (n, reps) = if smoke() {
        (8_000usize, 5u32)
    } else {
        (60_000, 9)
    };
    let t1 = str_tree(n, 0.5, 4242);
    let t2 = str_tree(n, 0.5, 2424);
    let pairs = visited_node_pairs(&t1, &t2);

    let run = |kernel: MatchKernel| {
        let config = JoinConfig {
            kernel,
            ..JoinConfig::default()
        };
        let mut scratch = MatchScratch::new();
        let start = Instant::now();
        let mut matched = 0u64;
        for &(a, b) in &pairs {
            matched += matched_entries(t1.node(a), t2.node(b), &config, &mut scratch).len() as u64;
        }
        let elapsed = start.elapsed();
        black_box(matched);
        (elapsed, matched)
    };
    let (_, expect) = run(MatchKernel::Scalar);
    let (mut scalar, mut batched) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        let (ts, ms) = run(MatchKernel::Scalar);
        let (tb, mb) = run(MatchKernel::Batched);
        assert_eq!(ms, expect, "scalar match count drifted");
        assert_eq!(mb, expect, "batched kernel changed the match count");
        scalar = scalar.min(ts);
        batched = batched.min(tb);
    }
    println!(
        "{{\"group\":\"kernel_overlap\",\"bench\":\"node_matching/nested_loop/{n}\",\
         \"node_pairs\":{},\"entry_matches\":{expect},\
         \"scalar_us\":{},\"batched_us\":{},\"speedup\":{:.2}}}",
        pairs.len(),
        scalar.as_micros(),
        batched.as_micros(),
        scalar.as_secs_f64() / batched.as_secs_f64()
    );
}

/// The sweep-phase guard on the 60K fixed-seed workload: the PBSM
/// plane sweep over both datasets, scalar vs batched. At `grid = 1`
/// the join *is* one sweep of the two sorted 60K lists (candidate runs
/// of ~350 — the workload the SoA kernels target); partitioning and
/// the shared one-time sort are identical across kernels, so the
/// end-to-end ratio understates the kernel win, making the ≥1.5× bar
/// conservative. Higher grid resolutions are reported informationally
/// (shorter runs → the kernel's short-run fallback → parity).
fn bench_pbsm_sweep(c: &mut Criterion) {
    let _ = c; // manual timing: JSON lines, not a criterion group
    let (n, reps) = if smoke() {
        (8_000usize, 5u32)
    } else {
        (60_000, 9)
    };
    let items1 = uniform_items(n, 0.5, 4242);
    let items2 = uniform_items(n, 0.5, 2424);
    let grids: &[usize] = if smoke() { &[1, 16] } else { &[1, 4, 8, 16] };
    for &grid in grids {
        let run = |kernel: MatchKernel| {
            let start = Instant::now();
            let r = PbsmSession::new(&items1, &items2, grid, 50)
                .kernel(kernel)
                .run()
                .expect("ungoverned PBSM cannot fail")
                .result;
            let elapsed = start.elapsed();
            let pairs = r.pairs.len();
            black_box(r);
            (elapsed, pairs)
        };
        let (_, expect) = run(MatchKernel::Scalar);
        assert!(expect > 0, "workload produced no pairs");
        let (mut scalar, mut batched) = (Duration::MAX, Duration::MAX);
        for _ in 0..reps {
            let (ts, ps) = run(MatchKernel::Scalar);
            let (tb, pb) = run(MatchKernel::Batched);
            assert_eq!(ps, expect, "scalar pair count drifted");
            assert_eq!(pb, expect, "batched kernel changed the pair count");
            scalar = scalar.min(ts);
            batched = batched.min(tb);
        }
        let speedup = scalar.as_secs_f64() / batched.as_secs_f64();
        println!(
            "{{\"group\":\"kernel_overlap\",\"bench\":\"pbsm_sweep/{grid}/{n}\",\
             \"pairs\":{expect},\"scalar_us\":{},\"batched_us\":{},\"speedup\":{speedup:.2}}}",
            scalar.as_micros(),
            batched.as_micros(),
        );
        if grid == 1 {
            // The acceptance guard. Smoke mode (reduced scale, shared
            // CI runners) only insists the batched kernel is not a
            // regression; the 1.5× bar applies at full scale.
            let bar = if smoke() { 1.0 } else { 1.5 };
            assert!(
                speedup >= bar,
                "batched sweep matching {speedup:.2}x < required {bar:.1}x \
                 (scalar {scalar:?}, batched {batched:?})"
            );
        }
        if grid == 16 {
            // High-resolution grids produce cells too small (~230
            // entries at 60K) to amortize the per-cell SoA fill, so
            // the kernel demotes them to the scalar path and the two
            // arms run identical code: the expected speedup is parity,
            // and what this guard rejects is the 0.91× class of
            // regression where batched pays the fill without using it.
            // The bar sits a noise margin below 1.0 — back-to-back
            // parity runs measure 0.99–1.01×.
            let bar = if smoke() { 0.9 } else { 0.95 };
            assert!(
                speedup >= bar,
                "batched sweep at grid 16 regressed to {speedup:.2}x \
                 (< {bar:.1}x; scalar {scalar:?}, batched {batched:?})"
            );
        }
    }
}

criterion_group!(
    benches,
    bench_kernel_micro,
    bench_node_matching,
    bench_pbsm_sweep
);
criterion_main!(benches);
