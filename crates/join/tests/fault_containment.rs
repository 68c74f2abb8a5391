//! Fault containment across the join pipeline: a join run with a fault
//! injector (`JoinSession::faults`) must (a) be bit-identical to the
//! unfaulted run when the injector is disabled, (b) absorb transient faults within the retry
//! budget invisibly, (c) contain permanent page loss — forfeiting
//! only the affected subtree pairs, identically for the sequential
//! executor and both parallel schedulers at any thread count — and
//! (d) keep the governor's unit ledger balanced when a gated unit is
//! lost to a fault.

use proptest::prelude::*;
use sjcm_join::{
    DegradedJoinResult, Governor, GovernorConfig, JoinConfig, JoinResultSet, JoinSession, Scheduler,
};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
use sjcm_storage::{FaultInjector, FaultPlan};

/// Session-API shorthand: an ungoverned, unfaulted join.
fn join(t1: &RTree<2>, t2: &RTree<2>, config: JoinConfig, sched: Scheduler) -> JoinResultSet {
    JoinSession::new(t1, t2)
        .config(config)
        .scheduler(sched)
        .run()
        .expect("ungoverned join cannot fail")
        .result
}

/// Session-API shorthand: a faulted and/or governed join (completes
/// degraded rather than failing).
fn try_join(
    t1: &RTree<2>,
    t2: &RTree<2>,
    config: JoinConfig,
    sched: Scheduler,
    faults: &FaultInjector,
    gov: &Governor,
) -> DegradedJoinResult<2> {
    JoinSession::new(t1, t2)
        .config(config)
        .scheduler(sched)
        .faults(faults)
        .govern(gov)
        .run()
        .expect("faulted/governed runs complete degraded, they do not fail")
}

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

fn sorted_pairs(r: &sjcm_join::JoinResultSet) -> Vec<(ObjectId, ObjectId)> {
    let mut p = r.pairs.clone();
    p.sort_unstable();
    p
}

/// Runs all three execution strategies under fresh injectors armed with
/// the same plan, so their fault state starts identically.
fn run_all(
    t1: &RTree<2>,
    t2: &RTree<2>,
    config: JoinConfig,
    plan: FaultPlan,
) -> [DegradedJoinResult<2>; 3] {
    let seq = try_join(
        t1,
        t2,
        config,
        Scheduler::Sequential,
        &FaultInjector::enabled(plan),
        &Governor::unlimited(),
    );
    let cg = try_join(
        t1,
        t2,
        config,
        Scheduler::CostGuided { threads: 4 },
        &FaultInjector::enabled(plan),
        &Governor::unlimited(),
    );
    let rr = try_join(
        t1,
        t2,
        config,
        Scheduler::RoundRobin { threads: 3 },
        &FaultInjector::enabled(plan),
        &Governor::unlimited(),
    );
    [seq, cg, rr]
}

#[test]
fn disabled_injector_matches_infallible_twins_exactly() {
    let t1 = build_uniform(4000, 0.5, 71);
    let t2 = build_uniform(4000, 0.5, 72);
    let config = JoinConfig::default();

    let seq = join(&t1, &t2, config, Scheduler::Sequential);
    let try_seq = try_join(
        &t1,
        &t2,
        config,
        Scheduler::Sequential,
        &FaultInjector::disabled(),
        &Governor::unlimited(),
    );
    assert!(try_seq.is_exact());
    assert_eq!(try_seq.faults.injected(), 0);
    assert_eq!(try_seq.result.pairs, seq.pairs, "same emission order too");
    assert_eq!(try_seq.result.pair_count, seq.pair_count);
    assert_eq!(try_seq.result.stats1, seq.stats1);
    assert_eq!(try_seq.result.stats2, seq.stats2);

    for sched in [
        Scheduler::CostGuided { threads: 3 },
        Scheduler::RoundRobin { threads: 3 },
    ] {
        let plain = join(&t1, &t2, config, sched);
        let twin = try_join(
            &t1,
            &t2,
            config,
            sched,
            &FaultInjector::disabled(),
            &Governor::unlimited(),
        );
        assert!(twin.is_exact());
        assert_eq!(twin.result.pairs, plain.pairs, "{sched:?}");
        assert_eq!(twin.result.na_total(), plain.na_total(), "{sched:?}");
        assert_eq!(twin.result.da_total(), plain.da_total(), "{sched:?}");
        assert_eq!(twin.result.workers.len(), plain.workers.len());
    }
}

#[test]
fn transient_faults_within_budget_are_invisible() {
    let t1 = build_uniform(5000, 0.5, 81);
    let t2 = build_uniform(5000, 0.5, 82);
    let config = JoinConfig::default();
    // Budget 2 ≤ the default 3 retries: every fault heals under retry.
    let plan = FaultPlan::none(4242).with_transient(0.35, 2);

    let clean = join(&t1, &t2, config, Scheduler::Sequential);
    let clean_pairs = sorted_pairs(&clean);
    let [seq, cg, rr] = run_all(&t1, &t2, config, plan);

    for (name, d) in [("seq", &seq), ("cost-guided", &cg), ("round-robin", &rr)] {
        assert!(d.is_exact(), "{name}: no pair may be forfeited");
        assert_eq!(sorted_pairs(&d.result), clean_pairs, "{name}");
        assert_eq!(d.result.na_total(), clean.na_total(), "{name}");
        assert!(d.faults.injected() > 0, "{name}: the plan must bite");
        assert_eq!(d.faults.quarantined, 0, "{name}");
        assert_eq!(d.faults.recovery_rate(), Some(1.0), "{name}");
    }
    // The injector's totals are thread-order independent: all three
    // strategies probe the same multiset of page reads.
    assert_eq!(seq.faults, cg.faults);
    assert_eq!(seq.faults, rr.faults);
    // DA under the path buffer is exactly the fault-free sequential DA.
    assert_eq!(seq.result.da_total(), clean.da_total());
}

#[test]
fn permanent_loss_is_contained_and_identical_across_schedulers() {
    let t1 = build_uniform(8000, 0.5, 91);
    let t2 = build_uniform(8000, 0.5, 92);
    let config = JoinConfig::default();
    // Lose ~3% of leaf pages (level 0 only), permanently.
    let plan = FaultPlan::none(777).with_loss_at_level(0.03, 0);

    let clean = join(&t1, &t2, config, Scheduler::Sequential);
    let clean_pairs = sorted_pairs(&clean);
    let [seq, cg, rr] = run_all(&t1, &t2, config, plan);

    assert!(!seq.is_exact(), "the plan must lose at least one page");
    // Containment determinism: the forfeited inventory and the degraded
    // answer are identical for every strategy.
    assert_eq!(seq.skips, cg.skips);
    assert_eq!(seq.skips, rr.skips);
    assert_eq!(seq.result.pairs, cg.result.pairs, "same order too");
    assert_eq!(seq.result.pairs, rr.result.pairs, "same order too");
    assert_eq!(seq.result.na_total(), cg.result.na_total());
    assert_eq!(seq.result.na_total(), rr.result.na_total());
    assert_eq!(seq.faults.injected_loss, cg.faults.injected_loss);
    assert_eq!(seq.faults.quarantined, cg.faults.quarantined);
    assert_eq!(seq.faults.quarantine_hits, rr.faults.quarantine_hits);

    // The degraded answer is a subset of the exact one, and every skip
    // is priced.
    let degraded = sorted_pairs(&seq.result);
    assert!(degraded.len() < clean_pairs.len());
    let mut i = 0;
    for p in &degraded {
        while i < clean_pairs.len() && clean_pairs[i] < *p {
            i += 1;
        }
        assert!(
            i < clean_pairs.len() && clean_pairs[i] == *p,
            "degraded result may not invent pairs: {p:?}"
        );
    }
    for s in &seq.skips {
        assert!(s.tree == 1 || s.tree == 2);
        assert_eq!(s.level, 0, "loss was restricted to the leaf level");
        assert!(s.est_na > 0.0, "a forfeited pair always forfeits accesses");
        assert!(s.est_pairs >= 0.0);
    }

    // Forfeit-estimate quality at this modest scale: the Eq-3-style
    // estimate of lost pairs should land in the right ballpark of the
    // true delta (the tight 15% gate runs at paper scale in the chaos
    // experiment).
    let true_delta = (clean.pair_count - seq.result.pair_count) as f64;
    let est = seq.forfeited_pairs();
    eprintln!(
        "lost pairs: true {true_delta}, estimated {est:.1}, \
         skips {}, forfeited NA {:.1}",
        seq.skips.len(),
        seq.forfeited_na()
    );
    assert!(true_delta > 0.0);
    let rel = (est - true_delta).abs() / true_delta;
    assert!(
        rel < 0.5,
        "estimate {est:.1} vs true {true_delta} (rel err {rel:.3})"
    );
    // And the decision-support helper is coherent with the numbers.
    let frac = seq.forfeited_fraction();
    assert!(frac > 0.0 && frac < 1.0);
    assert!(seq.within_envelope(frac + 1e-9));
    assert!(!seq.within_envelope(frac - 1e-9));
}

#[test]
fn exhausted_transient_budget_quarantines_and_degrades() {
    let t1 = build_uniform(3000, 0.5, 101);
    let t2 = build_uniform(3000, 0.5, 102);
    let config = JoinConfig::default();
    // Budget 9 > 3 retries: an affected page fails its first probe
    // (4 attempts), is quarantined, and every later probe fails fast.
    let plan = FaultPlan::none(31).with_transient(0.02, 9);
    let [seq, cg, rr] = run_all(&t1, &t2, config, plan);

    assert!(!seq.is_exact());
    assert!(seq.faults.quarantined > 0);
    assert!(seq.faults.recovery_rate().unwrap_or(1.0) < 1.0);
    assert_eq!(seq.skips, cg.skips);
    assert_eq!(seq.skips, rr.skips);
    assert_eq!(seq.result.pair_count, cg.result.pair_count);
    assert_eq!(seq.result.pair_count, rr.result.pair_count);
}

/// Faults and a gate together: a unit the governor admits and the
/// fault probe then loses must still be retired from the governor's
/// ledger, so every root unit ends up executed or forfeited — under
/// every scheduler, with the same forfeited inventory.
#[test]
fn units_lost_after_admission_are_retired_from_the_ledger() {
    let t1 = build_uniform(3000, 0.5, 111);
    let t2 = build_uniform(3000, 0.5, 112);
    let config = JoinConfig::default();
    let mut lost_after_admission = 0;
    for seed in [1u64, 2, 3, 4] {
        let plan = FaultPlan::none(seed).with_loss(0.2);
        let runs = [
            Scheduler::Sequential,
            Scheduler::RoundRobin { threads: 2 },
            Scheduler::CostGuided { threads: 2 },
        ]
        .map(|sched| {
            // Gates every unit, refuses none: whatever is forfeited was
            // lost to the probe after its checkpoint.
            let gov = Governor::new(GovernorConfig::default().with_cancel_after_units(u64::MAX));
            let faults = FaultInjector::enabled(plan);
            let d = try_join(&t1, &t2, config, sched, &faults, &gov);
            sjcm_join::assert_well_formed(&d);
            let summary = gov.summary().expect("armed");
            assert_eq!(
                summary.units_executed + summary.units_forfeited,
                summary.units_total,
                "seed {seed} {sched:?}: {summary:?}"
            );
            lost_after_admission += summary.units_forfeited;
            d
        });
        assert_eq!(runs[0].skips, runs[1].skips, "seed {seed}: round-robin");
        assert_eq!(runs[0].skips, runs[2].skips, "seed {seed}: cost-guided");
    }
    assert!(lost_after_admission > 0, "the plans must lose a root unit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Satellite: a trace recorded under injected transient faults (all
    // within the retry budget) still satisfies the replay exactness
    // gate — retries are invisible to the access stream, so offline
    // re-simulation reproduces the live DA verdicts bit-for-bit.
    #[test]
    fn recorded_trace_under_transient_faults_replays_exactly(
        seed in 0u64..500,
        rate in 0.05f64..0.9,
        budget in 1u32..3,
        threads in 1usize..4,
    ) {
        let t1 = build_uniform(1200, 0.5, seed.wrapping_mul(2).wrapping_add(1));
        let t2 = build_uniform(1200, 0.5, seed.wrapping_mul(2).wrapping_add(2));
        let config = JoinConfig::default();
        let recorder = sjcm_storage::FlightRecorder::enabled();
        let obs = sjcm_join::JoinObs {
            recorder: recorder.clone(),
            ..sjcm_join::JoinObs::default()
        };
        let faults = FaultInjector::enabled(
            FaultPlan::none(seed).with_transient(rate, budget));
        let live = JoinSession::new(&t1, &t2)
            .config(config)
            .scheduler(Scheduler::CostGuided { threads })
            .observe(&obs)
            .faults(&faults)
            .run()
            .expect("no worker may die");
        prop_assert!(live.is_exact());
        prop_assert_eq!(live.faults.recovery_rate().unwrap_or(1.0), 1.0);

        let trace = recorder.into_trace(sjcm_storage::BufferPolicy::Path, 0.0, 0.0);
        prop_assert_eq!(trace.dropped, 0);
        prop_assert_eq!(trace.events.len() as u64, live.result.na_total());
        let out = sjcm_storage::replay(&trace.events, sjcm_storage::BufferPolicy::Path);
        prop_assert_eq!(out.kind_mismatches, 0);
        prop_assert_eq!(out.da_total(), live.result.da_total());
    }

    // Governor satellite: cancellation determinism. A run cancelled at
    // unit k forfeits the same subtree inventory — and retains the same
    // pair set — on the sequential executor and on both parallel
    // schedulers at any thread count, because governed runs gate by
    // global unit ordinal, not by whichever thread got there first.
    #[test]
    fn cancellation_at_unit_k_is_scheduler_and_thread_invariant(
        seed in 0u64..200,
        k in 0u64..12,
        threads in 2usize..5,
    ) {
        let t1 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(11));
        let t2 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(12));
        let config = JoinConfig::default();
        let cancel_at = |k| GovernorConfig::default().with_cancel_after_units(k);
        let baseline = try_join(
            &t1, &t2, config, Scheduler::Sequential,
            &FaultInjector::disabled(),
            &Governor::new(cancel_at(k)),
        );
        for sched in [
            Scheduler::RoundRobin { threads },
            Scheduler::CostGuided { threads },
        ] {
            let gov = Governor::new(cancel_at(k));
            let d = try_join(
                &t1, &t2, config, sched, &FaultInjector::disabled(), &gov,
            );
            prop_assert_eq!(
                &d.skips, &baseline.skips,
                "inventory diverged: {} threads {:?}", threads, sched
            );
            prop_assert_eq!(sorted_pairs(&d.result), sorted_pairs(&baseline.result));
            prop_assert_eq!(d.result.pair_count, baseline.result.pair_count);
        }
    }
}
