//! Property tests for the trace replay engine: the single-pass Mattson
//! stack-distance analyzer must agree with brute-force LRU simulation
//! on every trace and every capacity, and replay must be an exact
//! reconstruction when the recorded policy is replayed.

use proptest::prelude::*;
use sjcm_storage::recorder::{FlightRecorder, PageAccessEvent};
use sjcm_storage::replay::{replay, StackDistance};
use sjcm_storage::BufferPolicy;
use sjcm_storage::{AccessStats, BufferManager, PageId};
use std::collections::HashMap;

/// One randomized access: (corr domain, tree, page, level).
fn access() -> impl Strategy<Value = (u32, u8, u32, u8)> {
    (0u32..3, 1u8..3, 0u32..20, 0u8..4)
}

/// Records `seq` through live buffers of `policy`, producing a faithful
/// tick-ordered event stream (the same shape the join executors emit).
fn record(seq: &[(u32, u8, u32, u8)], policy: BufferPolicy) -> Vec<PageAccessEvent> {
    let recorder = FlightRecorder::enabled();
    let mut lanes = HashMap::new();
    let mut bufs: HashMap<(u32, u8), Box<dyn BufferManager>> = HashMap::new();
    for &(corr, tree, page, level) in seq {
        let lane = lanes.entry((corr, tree)).or_insert_with(|| {
            let mut l = recorder.lane(tree);
            l.set_corr(corr);
            l
        });
        let buf = bufs.entry((corr, tree)).or_insert_with(|| policy.build());
        let kind = buf.access(PageId(page), level);
        lane.record(PageId(page), level, kind);
    }
    drop(lanes);
    recorder.drain().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Mattson hit counts equal brute-force LRU replay at every
    // capacity — the inclusion property made executable.
    #[test]
    fn mattson_matches_brute_force_lru(seq in prop::collection::vec(access(), 1..120)) {
        let events = record(&seq, BufferPolicy::None);
        let sd = StackDistance::analyze(&events);
        for cap in 0usize..12 {
            let brute = replay(&events, BufferPolicy::Lru(cap));
            prop_assert_eq!(
                sd.misses_at(cap),
                brute.da_total(),
                "capacity {}", cap
            );
        }
        // The curve the sweep reports must be monotone non-increasing.
        for cap in 1usize..12 {
            prop_assert!(sd.misses_at(cap) <= sd.misses_at(cap - 1));
        }
        // Floor: unlimited capacity leaves exactly the cold misses.
        prop_assert_eq!(sd.misses_at(usize::MAX / 2), sd.cold_misses());
    }

    // Replaying the recorded policy reproduces the recorded hit/miss
    // stream exactly, for all three policies.
    #[test]
    fn replay_of_recorded_policy_is_exact(
        seq in prop::collection::vec(access(), 1..120),
        policy_pick in 0u8..4,
    ) {
        let policy = match policy_pick {
            0 => BufferPolicy::None,
            1 => BufferPolicy::Path,
            2 => BufferPolicy::Lru(3),
            _ => BufferPolicy::Lru(0),
        };
        let events = record(&seq, policy);
        let out = replay(&events, policy);
        prop_assert_eq!(out.kind_mismatches, 0);
        let mut want1 = AccessStats::new();
        let mut want2 = AccessStats::new();
        for e in &events {
            if e.tree == 1 { want1.record(e.level, e.kind) } else { want2.record(e.level, e.kind) }
        }
        prop_assert_eq!(out.stats1, want1);
        prop_assert_eq!(out.stats2, want2);
    }

    // NA is invariant across replayed policies; DA is ordered
    // none ≥ path and none ≥ any LRU.
    #[test]
    fn na_invariant_da_ordered(seq in prop::collection::vec(access(), 1..120)) {
        let events = record(&seq, BufferPolicy::Path);
        let none = replay(&events, BufferPolicy::None);
        let path = replay(&events, BufferPolicy::Path);
        let lru = replay(&events, BufferPolicy::Lru(8));
        prop_assert_eq!(none.na_total(), events.len() as u64);
        prop_assert_eq!(path.na_total(), events.len() as u64);
        prop_assert_eq!(lru.na_total(), events.len() as u64);
        prop_assert!(path.da_total() <= none.da_total());
        prop_assert!(lru.da_total() <= none.da_total());
    }

    // Serialization round-trips through the binary format.
    #[test]
    fn trace_bytes_round_trip(seq in prop::collection::vec(access(), 0..60)) {
        let events = record(&seq, BufferPolicy::Path);
        let trace = sjcm_storage::AccessTrace {
            policy: BufferPolicy::Path,
            dropped: 0,
            na_pred: 12.5,
            da_pred: 3.25,
            events,
        };
        let round = sjcm_storage::AccessTrace::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(round, trace);
    }
}
