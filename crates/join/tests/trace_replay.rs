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
//! * the Mattson stack-distance LRU sweep is monotone non-increasing
//!   in buffer capacity (the inclusion property), agrees with
//!   brute-force LRU re-simulation at spot capacities, and bottoms out
//!   at the compulsory cold-miss floor;
//! * the binary serialization round-trips the full 60K trace.

use sjcm_join::{JoinConfig, JoinObs, JoinSession, Scheduler};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
use sjcm_storage::{AccessTrace, BufferPolicy, FlightRecorder, StackDistance};

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
    assert_eq!(trace.dropped, 0, "60K workload must fit the ring");
    assert_eq!(trace.events.len() as u64, live.na_total());

    // Exact reproduction of the live DA counters: totals AND the
    // per-level splits, via the per-domain path-buffer re-simulation.
    let out = sjcm_storage::replay(&trace.events, BufferPolicy::Path);
    assert_eq!(out.kind_mismatches, 0, "no hit/miss verdict may diverge");
    assert_eq!(out.stats1, live.stats1, "tree 1 per-level NA/DA splits");
    assert_eq!(out.stats2, live.stats2, "tree 2 per-level NA/DA splits");
    assert_eq!(out.da_total(), live.da_total());

    // The LRU what-if curve from one Mattson scan: monotone
    // non-increasing in capacity, floored at the cold misses.
    let sd = StackDistance::analyze(&trace.events);
    assert_eq!(sd.total(), live.na_total());
    let sat = sd.saturating_capacity();
    assert!(sat >= 1);
    let mut prev = sd.misses_at(0);
    assert_eq!(prev, live.na_total(), "capacity 0 caches nothing");
    for cap in 1..=sat + 1 {
        let cur = sd.misses_at(cap);
        assert!(
            cur <= prev,
            "DA must not grow with buffer size: {cur} > {prev} at capacity {cap}"
        );
        prev = cur;
    }
    assert_eq!(sd.misses_at(sat), sd.cold_misses());
    assert_eq!(sd.misses_at(sat + 100), sd.cold_misses());

    // Mattson vs brute-force LRU at spot capacities.
    for cap in [1, 16, 256] {
        let brute = sjcm_storage::replay(&trace.events, BufferPolicy::Lru(cap));
        assert_eq!(
            brute.da_total(),
            sd.misses_at(cap),
            "Mattson and brute-force LRU({cap}) disagree"
        );
    }

    // Binary round-trip of the full trace.
    let decoded = AccessTrace::from_bytes(&trace.to_bytes()).expect("round-trip");
    assert_eq!(decoded, trace);
}
