//! Cancellation at a unit boundary: a governed run cut short at a fixed
//! unit ordinal (`GovernorConfig::with_cancel_after_units`) forfeits the
//! same subtree pairs on the sequential executor and on both parallel
//! schedulers at any thread count, retires every root unit from the
//! run's unit ledger as executed or forfeited, and prices what it
//! forfeited: on the fixed-seed 60K pair the oracle's acceptance gate
//! builds, the estimate of the lost pairs lands within the paper's §4.1
//! envelope of the true loss. A `Degrade` admission's value-ranked cap
//! is decided the same way, before any page is read: the same inventory
//! on every scheduler, more pairs than the ordinal prefix of as many
//! units on clustered data, and a forfeit estimate inside the envelope
//! on the insertion-built uniform pair.
//!
//! That pair is the only one whose `Degrade` estimate is held to
//! `PAPER_ENVELOPE`. On the STR-packed pair a cap at a third of the
//! prediction keeps a single root unit, and the estimate misses the true
//! loss by 21 % (92 843 pairs estimated, 76 484 lost); on the clustered
//! pair it misses by 42–69 %. Neither miss is gated.

use proptest::prelude::*;
use sjcm_join::{
    AdmissionPolicy, DegradedJoinResult, Governor, GovernorConfig, JoinConfig, JoinObs,
    JoinSession, Scheduler,
};
use sjcm_obs::{ProgressTracker, PAPER_ENVELOPE};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};

/// Session-API shorthand: a governed join (completes degraded rather
/// than failing).
fn governed(
    t1: &RTree<2>,
    t2: &RTree<2>,
    config: JoinConfig,
    sched: Scheduler,
    gov: &Governor,
) -> DegradedJoinResult {
    JoinSession::new(t1, t2)
        .config(config)
        .scheduler(sched)
        .govern(gov)
        .run()
        .expect("governed runs complete degraded, they do not fail")
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

fn cancel_at(k: u64) -> Governor {
    Governor::new(GovernorConfig::default().with_cancel_after_units(k))
}

/// A `Degrade` admission at `fraction` of the pair's Eq-6 predicted NA.
fn degrade_at(t1: &RTree<2>, t2: &RTree<2>, fraction: f64) -> Governor {
    // A default governor gates nothing; its admission prices the join.
    let counter = Governor::new(GovernorConfig::default());
    JoinSession::new(t1, t2)
        .config(JoinConfig {
            collect_pairs: false,
            ..JoinConfig::default()
        })
        .govern(&counter)
        .run()
        .expect("an ungated governor cannot fail the join");
    let predicted = counter.summary().expect("admitted").predicted_na;
    Governor::new(
        GovernorConfig::default()
            .with_na_budget(predicted * fraction)
            .with_admission(AdmissionPolicy::Degrade),
    )
}

/// Every root unit of a gated run ends up executed or forfeited in the
/// run's unit ledger — the first `k` run, the rest are forfeited, one
/// priced skip each — under every scheduler, with the same forfeited
/// inventory.
#[test]
fn gated_units_are_all_retired_from_the_ledger() {
    let t1 = build_uniform(3000, 0.5, 111);
    let t2 = build_uniform(3000, 0.5, 112);
    let config = JoinConfig::default();
    for k in [0u64, 1, 5, u64::MAX] {
        let runs = [
            Scheduler::Sequential,
            Scheduler::RoundRobin { threads: 2 },
            Scheduler::CostGuided { threads: 2 },
        ]
        .map(|sched| {
            let (gov, tracker) = (cancel_at(k), ProgressTracker::enabled());
            let d = JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(sched)
                .observe(&JoinObs {
                    progress: tracker.clone(),
                    ..JoinObs::default()
                })
                .govern(&gov)
                .run()
                .expect("governed runs complete degraded, they do not fail");
            sjcm_join::assert_well_formed(&d);
            let units = gov.summary().expect("armed").units_total;
            let t = tracker.ledger().totals().expect("progress is on");
            assert_eq!(t.units_scheduled, units, "k {k} {sched:?}: {t:?}");
            assert_eq!(
                t.units_done + t.units_forfeited,
                units,
                "k {k} {sched:?}: {t:?}"
            );
            assert_eq!(t.units_done, k.min(units), "k {k} {sched:?}");
            assert_eq!(d.skips.len() as u64, t.units_forfeited, "k {k} {sched:?}");
            d
        });
        assert_eq!(runs[0].skips, runs[1].skips, "k {k}: round-robin");
        assert_eq!(runs[0].skips, runs[2].skips, "k {k}: cost-guided");
    }
}

/// The forfeit estimate against the truth, with no clock involved: on
/// the fixed-seed packed 60K × 60K pair, cancelling after half the root
/// units forfeits the other half, and the localized Eq-3 estimate of
/// the pairs lost lands within [`PAPER_ENVELOPE`] of the true loss
/// against the ungoverned run — on every scheduler, which all forfeit
/// the same inventory.
#[test]
fn forfeit_estimate_at_half_the_root_units_is_within_the_paper_envelope() {
    let t1 = build_uniform(60_000, 0.5, 4242);
    let t2 = build_uniform(60_000, 0.5, 2424);
    let config = JoinConfig {
        collect_pairs: false,
        ..JoinConfig::default()
    };
    let exact = JoinSession::new(&t1, &t2)
        .config(config)
        .run()
        .expect("ungoverned join cannot fail")
        .result
        .pair_count;
    // A gate that refuses nothing counts the root units.
    let counter = cancel_at(u64::MAX);
    governed(&t1, &t2, config, Scheduler::Sequential, &counter);
    let k = counter.summary().expect("armed").units_total / 2;
    assert!(k > 0, "the 60K pair has root units to forfeit");

    let mut first: Option<DegradedJoinResult> = None;
    for sched in [
        Scheduler::Sequential,
        Scheduler::RoundRobin { threads: 4 },
        Scheduler::CostGuided { threads: 4 },
    ] {
        let d = governed(&t1, &t2, config, sched, &cancel_at(k));
        assert!(!d.is_exact(), "{sched:?}");
        let true_lost = (exact - d.result.pair_count) as f64;
        let est_lost = d.forfeited_pairs();
        let rel = (est_lost - true_lost).abs() / true_lost;
        eprintln!(
            "{sched:?}: cancel after {k} units: estimate {est_lost:.1} vs true \
             {true_lost:.0} lost (rel err {rel:.4})"
        );
        assert!(
            rel <= PAPER_ENVELOPE,
            "{sched:?}: forfeit estimate {est_lost:.1} vs true {true_lost:.0} \
             (rel err {rel:.4} > {PAPER_ENVELOPE})"
        );
        match &first {
            None => first = Some(d),
            Some(f) => {
                assert_eq!(d.skips, f.skips, "{sched:?}: inventory diverged");
                assert_eq!(d.result.pair_count, f.result.pair_count, "{sched:?}");
            }
        }
    }
}

/// Co-located Gaussian clusters (shared center layout, disjoint
/// objects), R*-inserted: hot-spot units carry many more pairs per NA
/// than the sparse ones, so the value ranking has something to rank.
fn build_clustered(n: usize, seed: u64) -> RTree<2> {
    insert_all(sjcm_datagen::skewed::gaussian_clusters::<2>(
        sjcm_datagen::skewed::ClusterConfig::new(n, 0.5, seed)
            .with_center_seed(9700)
            .with_clusters(5)
            .with_sigma(0.025),
    ))
}

/// An R*-tree built by inserting `rects` in order, as the `governor`
/// walkthrough builds its pairs.
fn insert_all(rects: Vec<sjcm_geom::Rect<2>>) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::paper(2));
    for (i, r) in rects.into_iter().enumerate() {
        tree.insert(r, ObjectId(i as u32));
    }
    tree
}

/// The value-ranked `Degrade` cap against the ordinal prefix of as
/// many units, with no clock involved: at a third of the predicted NA
/// on the clustered 60K pair, the cap keeps strictly more pairs, and
/// more pairs per measured NA, and it forfeits the same inventory and
/// returns the same pair vector on every scheduler.
#[test]
fn value_ranked_degrade_keeps_more_pairs_than_the_same_count_prefix() {
    let t1 = build_clustered(60_000, 9700);
    let t2 = build_clustered(60_000, 9701);
    let config = JoinConfig::default();
    let mut first: Option<(DegradedJoinResult, u64)> = None;
    for sched in [
        Scheduler::Sequential,
        Scheduler::RoundRobin { threads: 2 },
        Scheduler::RoundRobin { threads: 4 },
        Scheduler::CostGuided { threads: 4 },
    ] {
        let gov = degrade_at(&t1, &t2, 1.0 / 3.0);
        let d = governed(&t1, &t2, config, sched, &gov);
        sjcm_join::assert_well_formed(&d);
        assert!(!d.is_exact(), "{sched:?}: a third of the NA capped nothing");
        let executed = gov.summary().expect("armed").units_total - d.skips.len() as u64;
        match &first {
            None => first = Some((d, executed)),
            Some((f, k)) => {
                assert_eq!(d.skips, f.skips, "{sched:?}: inventory diverged");
                assert_eq!(d.result.pairs, f.result.pairs, "{sched:?}: pairs diverged");
                assert_eq!(executed, *k, "{sched:?}: executed units diverged");
            }
        }
    }
    let (value, k) = first.expect("four schedulers ran");
    let prefix = governed(&t1, &t2, config, Scheduler::Sequential, &cancel_at(k));
    let (pv, nv) = (value.result.pair_count, value.result.na_total());
    let (pp, np) = (prefix.result.pair_count, prefix.result.na_total());
    eprintln!("value-ranked: {pv} pairs at NA {nv}; first {k} units: {pp} pairs at NA {np}");
    assert!(pv > pp, "value-ranked kept {pv} pairs, the prefix {pp}");
    assert!(
        u128::from(pv) * u128::from(np) > u128::from(pp) * u128::from(nv),
        "value-ranked {pv}/{nv} pairs per NA is not above the prefix's {pp}/{np}"
    );
}

/// The value-ranked cap's forfeit estimate against the truth on the
/// `governor` walkthrough's uniform 60K pair (R*-inserted, seeds
/// 9600/9601): at a third of the predicted NA the localized Eq-3
/// estimate of the pairs lost lands within [`PAPER_ENVELOPE`]. (On
/// clustered data the uniform-in-MBR estimate misses by far more, on
/// the ranked and the prefix arm alike, so it is not held there.)
#[test]
fn value_ranked_degrade_forfeit_estimate_is_within_the_paper_envelope() {
    let uniform = |seed| {
        insert_all(sjcm_datagen::uniform::generate::<2>(
            sjcm_datagen::uniform::UniformConfig::new(60_000, 0.5, seed),
        ))
    };
    let (t1, t2) = (uniform(9600), uniform(9601));
    let config = JoinConfig {
        collect_pairs: false,
        ..JoinConfig::default()
    };
    let exact = JoinSession::new(&t1, &t2)
        .config(config)
        .run()
        .expect("ungoverned join cannot fail")
        .result
        .pair_count;
    let d = governed(
        &t1,
        &t2,
        config,
        Scheduler::Sequential,
        &degrade_at(&t1, &t2, 1.0 / 3.0),
    );
    assert!(!d.is_exact());
    let true_lost = (exact - d.result.pair_count) as f64;
    let est_lost = d.forfeited_pairs();
    let rel = (est_lost - true_lost).abs() / true_lost;
    eprintln!(
        "degrade at a third: estimate {est_lost:.1} vs true {true_lost:.0} lost (rel err {rel:.4})"
    );
    assert!(
        rel <= PAPER_ENVELOPE,
        "forfeit estimate {est_lost:.1} vs true {true_lost:.0} (rel err {rel:.4} > {PAPER_ENVELOPE})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A run cancelled at unit k forfeits the same subtree inventory —
    // and retains the same pair set — on the sequential executor and on
    // both parallel schedulers at any thread count, because governed
    // runs gate by global unit ordinal, not by whichever thread got
    // there first.
    #[test]
    fn cancellation_at_unit_k_is_scheduler_and_thread_invariant(
        seed in 0u64..200,
        k in 0u64..12,
        threads in 2usize..5,
    ) {
        let t1 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(11));
        let t2 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(12));
        let config = JoinConfig::default();
        let baseline = governed(&t1, &t2, config, Scheduler::Sequential, &cancel_at(k));
        for sched in [
            Scheduler::RoundRobin { threads },
            Scheduler::CostGuided { threads },
        ] {
            let d = governed(&t1, &t2, config, sched, &cancel_at(k));
            prop_assert_eq!(
                &d.skips, &baseline.skips,
                "inventory diverged: {} threads {:?}", threads, sched
            );
            prop_assert_eq!(sorted_pairs(&d.result), sorted_pairs(&baseline.result));
            prop_assert_eq!(d.result.pair_count, baseline.result.pair_count);
        }
    }
}
