//! The flight recorder's acceptance test on the paper's workload: a
//! fixed-seed 60K × 60K uniform 2-D join, recorded page-by-page, then
//! replayed offline.
//!
//! Pinned guarantees:
//!
//! * recording is free of observable side effects — the recorded run's
//!   pairs and counters equal the unobserved run's;
//! * replaying the trace through the policy it was recorded under
//!   (the paper's path buffer) reproduces the live DA counters
//!   *exactly* — identical totals and identical per-level splits, with
//!   zero hit/miss verdict mismatches;
//! * the LRU what-if curve, one replay per capacity, starts at every
//!   access, is monotone non-increasing in buffer capacity (the
//!   inclusion property), and bottoms out at the compulsory cold-miss
//!   floor, one miss per distinct (corr, tree, page);
//! * the binary serialization round-trips the full 60K trace.

use sjcm_join::{JoinConfig, JoinObs, JoinSession, Scheduler};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
use sjcm_storage::{AccessTrace, BufferPolicy, FlightRecorder};
use std::collections::{HashMap, HashSet};

fn build_uniform(n: usize, density: f64, seed: u64) -> RTree<2> {
    let rects = sjcm_datagen::uniform::generate::<2>(sjcm_datagen::uniform::UniformConfig::new(
        n, density, seed,
    ));
    let items: Vec<_> = rects
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, ObjectId(i as u32)))
        .collect();
    RTree::bulk_load(RTreeConfig::paper(2), items, BulkLoad::Str, 0.67)
}

#[test]
fn recorded_60k_trace_replays_exactly_and_lru_sweep_is_monotone() {
    let t1 = build_uniform(60_000, 0.5, 4242);
    let t2 = build_uniform(60_000, 0.5, 2424);
    let config = JoinConfig {
        collect_pairs: false,
        ..JoinConfig::default()
    };
    let threads = 4;

    let plain = JoinSession::new(&t1, &t2)
        .config(config)
        .scheduler(Scheduler::CostGuided { threads })
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    let recorder = FlightRecorder::enabled();
    let obs = JoinObs {
        recorder: recorder.clone(),
        ..JoinObs::default()
    };
    let live = JoinSession::new(&t1, &t2)
        .config(config)
        .scheduler(Scheduler::CostGuided { threads })
        .observe(&obs)
        .run()
        .expect("ungoverned join cannot fail")
        .result;

    // Recording must not perturb the join.
    assert_eq!(live.pair_count, plain.pair_count);
    assert_eq!(live.na_total(), plain.na_total());
    assert_eq!(live.da_total(), plain.da_total());

    let trace = recorder.into_trace(BufferPolicy::Path, 0.0, 0.0);
    assert_eq!(trace.events.len() as u64, live.na_total());

    // Exact reproduction of the live DA counters: totals AND the
    // per-level splits, via the per-domain path-buffer re-simulation.
    let out = sjcm_storage::replay(&trace.events, BufferPolicy::Path);
    assert_eq!(out.kind_mismatches, 0, "no hit/miss verdict may diverge");
    assert_eq!(out.stats1, live.stats1, "tree 1 per-level NA/DA splits");
    assert_eq!(out.stats2, live.stats2, "tree 2 per-level NA/DA splits");
    assert_eq!(out.da_total(), live.da_total());

    // The LRU what-if curve, one replay per capacity: every access
    // misses at capacity 0, misses never rise with capacity, and they
    // reach the cold-miss floor, one per distinct (corr, tree, page),
    // no later than the largest domain's page count, where nothing is
    // ever evicted.
    let misses = |cap| sjcm_storage::replay(&trace.events, BufferPolicy::Lru(cap)).da_total();
    let distinct: HashSet<_> = trace
        .events
        .iter()
        .map(|e| (e.corr, e.tree, e.page))
        .collect();
    let cold = distinct.len() as u64;
    let mut domain_pages: HashMap<(u32, u8), usize> = HashMap::new();
    for &(corr, tree, _) in &distinct {
        *domain_pages.entry((corr, tree)).or_default() += 1;
    }
    let widest = domain_pages.into_values().max().expect("a recorded access");
    assert_eq!(
        misses(widest),
        cold,
        "a buffer of every page misses only cold"
    );
    let mut prev = misses(0);
    assert_eq!(prev, live.na_total(), "capacity 0 caches nothing");
    let mut cap = 0;
    while prev > cold {
        cap += 1;
        let cur = misses(cap);
        assert!(
            cur <= prev,
            "DA must not grow with buffer size: {cur} > {prev} at capacity {cap}"
        );
        prev = cur;
    }
    assert!(cap > 1 && cap <= widest, "saturating capacity {cap}");
    assert_eq!(misses(cap + 1), cold);

    // Binary round-trip of the full trace.
    let decoded = AccessTrace::from_bytes(&trace.to_bytes()).expect("round-trip");
    assert_eq!(decoded, trace);
}
