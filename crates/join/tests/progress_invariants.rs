//! Progress-engine invariants across the whole executor surface: the
//! reported fraction is monotone non-decreasing, lands at exactly 1.0
//! when the join finishes (including a run cancelled part-way, where
//! the forfeited Eq-6 work is retired from the denominator instead of
//! stranding the bar below 1), and enabling progress never changes the
//! join's answer — pairs, NA and DA are byte-identical with the
//! tracker on or off. A run the governor cuts short leaves the one unit
//! ledger balanced, whatever executor reported to it. The fixed-seed
//! paper-scale run additionally
//! checks the ETA acceptance gate: at a quarter of the run, the
//! engine's blended total-work estimate sits within 20% of the true
//! final work for both the sequential and the cost-guided executor —
//! on a replay of each run, so no sampler thread's timing decides it.

use proptest::prelude::*;
use sjcm_core::join;
use sjcm_join::{
    measured_params, Governor, GovernorConfig, JoinConfig, JoinObs, JoinSession, Scheduler,
};
use sjcm_obs::{
    FieldValue, LevelPrior, ProgressEngine, ProgressSnapshot, ProgressTracker, SpanRecord, Tracer,
};
use sjcm_rtree::{BulkLoad, ObjectId, RTree, RTreeConfig};
use sjcm_storage::FlightRecorder;

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

/// Priors from the trees' measured parameters, the same way the
/// experiment harness feeds the drift monitor — the progress prior
/// should see what the model sees, not what the generator intended.
fn priors(t1: &RTree<2>, t2: &RTree<2>) -> Vec<LevelPrior> {
    join::join_na_priors::<2>(&measured_params(&t1.stats()), &measured_params(&t2.stats()))
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

    // A run cancelled at unit k: the forfeit path retires the skipped
    // subtrees' Eq-6 work from the denominator, so the bar still ends
    // at exactly 1.0 instead of stalling at the surviving fraction.
    #[test]
    fn progress_finishes_at_one_under_cancellation(
        seed in 0u64..200,
        threads in 1usize..4,
        k in 0u64..12,
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
                .govern(&Governor::new(GovernorConfig::default().with_cancel_after_units(k)))
                .run()
                .expect("a cancelled run completes degraded")
        });
        assert_stream(&snaps, "cancelled");
        let last = snaps.last().unwrap();
        if !degraded.skips.is_empty() {
            prop_assert!(last.forfeited_work > 0.0, "skips must retire work");
        }
    }
}

/// A run cut short by the governor retires every unit it did not run
/// from the one unit ledger — on the single shard a one-thread gated
/// run takes inline and on dealt shards at two threads alike — so the
/// ledger balances in units and in price, nothing is left in flight,
/// and the governor counts the same forfeits.
#[test]
fn a_cancelled_run_leaves_the_ledger_balanced() {
    let t1 = build_uniform(8000, 0.5, 33);
    let t2 = build_uniform(8000, 0.5, 34);
    for scheduler in [Scheduler::Sequential, Scheduler::RoundRobin { threads: 2 }] {
        let tag = format!("{scheduler:?}");
        let tracker = ProgressTracker::enabled();
        let gov = Governor::new(GovernorConfig::default().with_cancel_after_units(3));
        let d = JoinSession::new(&t1, &t2)
            .scheduler(scheduler)
            .observe(&JoinObs {
                progress: tracker.clone(),
                ..JoinObs::default()
            })
            .govern(&gov)
            .run()
            .expect("a cancelled run completes degraded");
        assert!(!d.is_exact(), "{tag}");
        let t = tracker.ledger().totals().expect("progress is on");
        assert_eq!(t.units_done, 3, "{tag}: {t:?}");
        assert!(t.units_forfeited > 0, "{tag}: {t:?}");
        assert_eq!(
            t.units_scheduled,
            t.units_done + t.units_forfeited,
            "{tag}: units"
        );
        assert_eq!(t.scheduled, t.done + t.forfeited, "{tag}: price");
        assert_eq!(t.in_flight, 0, "{tag}: {t:?}");
        let summary = gov.summary().expect("governed");
        assert_eq!(summary.units_forfeited, t.units_forfeited, "{tag}");
    }
}

/// Feeds a fresh tracker from this thread — `feed` publishes work in a
/// fixed order and calls `sample` at every point a sampler could look —
/// and returns the first snapshot at or past a quarter of the run. No
/// clock decides which state the engine sees.
fn quarter_of_replay(
    priors: &[LevelPrior],
    feed: impl FnOnce(&ProgressTracker, &mut dyn FnMut()),
) -> ProgressSnapshot {
    let tracker = ProgressTracker::enabled();
    let mut engine = ProgressEngine::new(&tracker, priors);
    let mut quarter = None;
    feed(&tracker, &mut || {
        let snap = engine.sample();
        if quarter.is_none() && snap.fraction >= 0.25 {
            quarter = Some(snap);
        }
    });
    quarter.expect("the replay passes a quarter")
}

fn u64_field(record: &SpanRecord, key: &str) -> u64 {
    match record.fields.iter().find(|(k, _)| k == key) {
        Some((_, FieldValue::U64(v))) => *v,
        other => panic!("span {} field {key}: {other:?}", record.name),
    }
}

/// The paper-scale acceptance gate (fixed seeds, 60K × 60K, D = 0.5)
/// for the sequential and the cost-guided executor. Each join runs once
/// under a wall-clock sampler, which checks the stream contract — that
/// holds under any interleaving. The 20% bar is then taken on a replay
/// of the same run on this thread, where the sample points are fixed:
/// at the first one past a quarter of the run the blended total-work
/// estimate — still prior-leaning there — is within 20% of the true
/// final work.
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
        let recorder = FlightRecorder::enabled();
        let tracer = Tracer::enabled();
        let (result, snaps) = watch(&pr, |tracker| {
            JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(Scheduler::CostGuided { threads })
                .observe(&JoinObs {
                    tracer: tracer.clone(),
                    recorder: recorder.clone(),
                    progress: tracker.clone(),
                    ..JoinObs::default()
                })
                .run()
                .expect("ungoverned join cannot fail")
                .result
        });
        assert_stream(&snaps, tag);
        let true_work = result.na_total();
        assert_eq!(snaps.last().unwrap().done_work as u64, true_work, "{tag}");

        let quarter = if threads == 1 {
            // What the sequential executor does: count every access
            // per (tree, level), publish the tallies every 512th — with
            // a sampler that looks after every flush.
            let events = recorder.drain();
            assert_eq!(events.len() as u64, true_work, "{tag}");
            quarter_of_replay(&pr, |tracker, sample| {
                let mut sink = tracker.sink();
                let mut na = [vec![0u64; t1.height()], vec![0u64; t2.height()]];
                let tallies = |tree: &[u64]| -> Vec<(u8, u64, u64)> {
                    (0u8..).zip(tree).map(|(level, &n)| (level, n, 0)).collect()
                };
                for e in &events {
                    na[usize::from(e.tree) - 1][usize::from(e.level)] += 1;
                    if sink.tick() {
                        sink.flush(tallies(&na[0]), tallies(&na[1]), 0);
                        sample();
                    }
                }
            })
        } else {
            // The unit-scheduled estimator reads the retired share of
            // the scheduled cost and the NA so far: replay the run's
            // own units — their prices and accesses do not depend on
            // which worker ran them when — retiring in unit order.
            let mut units: Vec<(u64, u64, u64)> = tracer
                .records()
                .iter()
                .filter(|r| r.name == "unit")
                .map(|u| {
                    (
                        u64_field(u, "unit"),
                        u64_field(u, "cost"),
                        u64_field(u, "na"),
                    )
                })
                .collect();
            units.sort_unstable();
            let cost: u64 = units.iter().map(|u| u.1).sum();
            let unit_na: u64 = units.iter().map(|u| u.2).sum();
            quarter_of_replay(&pr, |tracker, sample| {
                let mut sink = tracker.sink();
                let ledger = tracker.ledger();
                ledger.arm(units.len() as u64, cost);
                // The frontier descent above the units comes first.
                let mut na = true_work - unit_na;
                for &(_, cost, unit_na) in &units {
                    na += unit_na;
                    sink.flush([(0, na, 0)], [], 0);
                    ledger.admit(cost);
                    ledger.done(cost);
                    sample();
                }
            })
        };
        let true_work = true_work as f64;
        let rel = (quarter.est_total_work - true_work).abs() / true_work;
        eprintln!(
            "{tag}: est at fraction {:.3} = {:.0} vs true {true_work:.0} (rel err {rel:.3})",
            quarter.fraction, quarter.est_total_work,
        );
        assert!(
            rel < 0.20,
            "{tag}: quarter-run estimate {:.0} vs true {true_work:.0} (rel err {rel:.3})",
            quarter.est_total_work,
        );
    }
}
