//! Progress-engine invariants across the whole executor surface: the
//! reported fraction is monotone non-decreasing, lands at exactly 1.0
//! when the join finishes (including under permanent leaf loss, where
//! the forfeited Eq-6 work is retired from the denominator instead of
//! stranding the bar below 1), and enabling progress never changes the
//! join's answer — pairs, NA and DA are byte-identical with the
//! tracker on or off. The fixed-seed paper-scale run additionally
//! checks the ETA acceptance gate: at a quarter of the run, the
//! engine's blended total-work estimate sits within 20% of the true
//! final work for both the sequential and the cost-guided executor.

use proptest::prelude::*;
use sjcm_core::{join, LevelParams, TreeParams};
use sjcm_join::{JoinConfig, JoinObs, JoinSession, Scheduler};
use sjcm_obs::{LevelPrior, ProgressEngine, ProgressSnapshot, ProgressTracker};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
use sjcm_storage::{FaultInjector, FaultPlan, RetryPolicy};

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

/// Measured tree parameters, the same way the experiment harness feeds
/// the drift monitor — the progress prior should see what the model
/// sees, not what the generator intended.
fn measured(tree: &RTree<2>) -> TreeParams<2> {
    let stats = tree.stats();
    let levels = stats
        .levels
        .iter()
        .map(|l| {
            let mut extents = [0.0; 2];
            extents.copy_from_slice(&l.avg_extents);
            LevelParams {
                nodes: l.node_count as f64,
                extents,
                density: l.density,
            }
        })
        .collect();
    TreeParams::from_levels(levels)
}

fn priors(t1: &RTree<2>, t2: &RTree<2>) -> Vec<LevelPrior> {
    join::join_na_priors(&measured(t1), &measured(t2))
        .into_iter()
        .map(|(tree, level, na)| LevelPrior { tree, level, na })
        .collect()
}

/// Runs `run` against an enabled tracker while this thread samples the
/// engine as fast as it can; returns the run's result plus the sampled
/// stream, whose last snapshot is taken after the join returned (so
/// `finish()` has been observed).
fn watch<R: Send>(
    priors: &[LevelPrior],
    run: impl FnOnce(&ProgressTracker) -> R + Send,
) -> (R, Vec<ProgressSnapshot>) {
    let tracker = ProgressTracker::enabled();
    let mut engine = ProgressEngine::new(&tracker, priors);
    let mut snaps = Vec::new();
    let result = std::thread::scope(|s| {
        let t = &tracker;
        let worker = s.spawn(move || run(t));
        while !worker.is_finished() {
            snaps.push(engine.sample());
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        worker.join().expect("join worker panicked")
    });
    snaps.push(engine.sample());
    (result, snaps)
}

/// The stream contract `validate_progress_jsonl` enforces on disk,
/// asserted in-process: monotone time and fraction, bounded fractions,
/// and a final snapshot that is finished at exactly 1.0.
fn assert_stream(snaps: &[ProgressSnapshot], tag: &str) {
    for w in snaps.windows(2) {
        assert!(w[1].t_us >= w[0].t_us, "{tag}: time went backwards");
        assert!(
            w[1].fraction >= w[0].fraction,
            "{tag}: fraction regressed {} -> {}",
            w[0].fraction,
            w[1].fraction
        );
    }
    for s in snaps {
        assert!(
            (0.0..=1.0).contains(&s.fraction),
            "{tag}: fraction {} out of bounds",
            s.fraction
        );
    }
    let last = snaps.last().expect("at least the post-join sample");
    assert!(last.finished, "{tag}: stream must end finished");
    assert_eq!(
        last.fraction, 1.0,
        "{tag}: final fraction must be exactly 1"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Every scheduler × thread count: the stream
    // contract holds and the answer is byte-identical to the
    // progress-off run.
    #[test]
    fn progress_is_monotone_terminal_and_invisible(
        seed in 0u64..200,
        threads in 1usize..5,
        cost_guided in any::<bool>(),
    ) {
        let t1 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(11));
        let t2 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(12));
        let config = JoinConfig::default();
        let sched = if cost_guided {
            Scheduler::CostGuided { threads }
        } else {
            Scheduler::RoundRobin { threads }
        };

        let off = JoinSession::new(&t1, &t2)
            .config(config)
            .scheduler(sched)
            .run()
            .expect("ungoverned join cannot fail")
            .result;
        let pr = priors(&t1, &t2);
        let (on, snaps) = watch(&pr, |tracker| {
            JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(sched)
                .observe(&JoinObs {
                    progress: tracker.clone(),
                    ..JoinObs::default()
                })
                .run()
                .expect("ungoverned join cannot fail")
                .result
        });

        assert_stream(&snaps, &format!("{sched:?}"));
        prop_assert_eq!(&on.pairs, &off.pairs, "progress changed the pairs");
        prop_assert_eq!(on.pair_count, off.pair_count);
        prop_assert_eq!(on.stats1, off.stats1, "progress changed tree-1 NA/DA");
        prop_assert_eq!(on.stats2, off.stats2, "progress changed tree-2 NA/DA");
        // The counters the stream saw are the executor's own.
        let last = snaps.last().unwrap();
        prop_assert_eq!(last.na_done, off.na_total());
        prop_assert_eq!(last.pairs, off.pair_count);
    }

    // Permanent leaf loss: the forfeit path retires the skipped
    // subtrees' Eq-6 work from the denominator, so the bar still ends
    // at exactly 1.0 instead of stalling at the surviving fraction.
    #[test]
    fn progress_finishes_at_one_under_leaf_loss(
        seed in 0u64..200,
        threads in 1usize..4,
        loss in 0.01f64..0.08,
    ) {
        let t1 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(21));
        let t2 = build_uniform(1500, 0.5, seed.wrapping_mul(2).wrapping_add(22));
        let config = JoinConfig::default();
        let pr = priors(&t1, &t2);
        let (degraded, snaps) = watch(&pr, |tracker| {
            JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(Scheduler::CostGuided { threads })
                .observe(&JoinObs { progress: tracker.clone(), ..JoinObs::default() })
                .faults(&FaultInjector::enabled(
                    FaultPlan::none(seed).with_loss_at_level(loss, 0),
                    RetryPolicy::default(),
                ))
                .run()
                .expect("no worker may die")
        });
        assert_stream(&snaps, "leaf-loss");
        let last = snaps.last().unwrap();
        if !degraded.skips.is_empty() {
            prop_assert!(last.forfeited_work > 0.0, "skips must retire work");
        }
    }
}

/// The paper-scale acceptance gate (fixed seeds, 60K × 60K, D = 0.5):
/// the stream contract holds for the sequential and the cost-guided
/// executor, and at the first sample past a quarter of the run the
/// blended total-work estimate — still prior-leaning there — is within
/// 20% of the true final work.
#[test]
fn paper_scale_eta_lands_within_twenty_percent_at_a_quarter() {
    let t1 = build_uniform(60_000, 0.5, 9600);
    let t2 = build_uniform(60_000, 0.5, 9601);
    let config = JoinConfig {
        collect_pairs: false,
        ..JoinConfig::default()
    };
    let pr = priors(&t1, &t2);
    for (tag, threads) in [("sequential", 1usize), ("cost-guided", 4)] {
        let (result, snaps) = watch(&pr, |tracker| {
            JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(Scheduler::CostGuided { threads })
                .observe(&JoinObs {
                    progress: tracker.clone(),
                    ..JoinObs::default()
                })
                .run()
                .expect("ungoverned join cannot fail")
                .result
        });
        assert_stream(&snaps, tag);
        let true_work = snaps.last().unwrap().done_work;
        assert_eq!(true_work as u64, result.na_total(), "{tag}");
        let quarter = snaps
            .iter()
            .find(|s| s.fraction >= 0.25)
            .unwrap_or_else(|| panic!("{tag}: no sample at a quarter ({} samples)", snaps.len()));
        let rel = (quarter.est_total_work - true_work).abs() / true_work;
        eprintln!(
            "{tag}: {} samples, est at fraction {:.3} = {:.0} vs true {:.0} (rel err {:.3})",
            snaps.len(),
            quarter.fraction,
            quarter.est_total_work,
            true_work,
            rel
        );
        assert!(
            rel < 0.20,
            "{tag}: quarter-run estimate {:.0} vs true {:.0} (rel err {rel:.3})",
            quarter.est_total_work,
            true_work
        );
    }
}
