//! The `governor` command: the deadline/budget walkthrough over the
//! governed join pipeline.
//!
//! Against one pair of fixed-seed uniform indexes the walkthrough runs
//! four acts:
//!
//! 1. **nominal** — every strategy (sequential SJ, cost-guided
//!    parallel, round-robin parallel) runs ungoverned to measure its
//!    full runtime `T` and exact answer; the governed acts are judged
//!    against these.
//! 2. **admission** — a 1-NA budget is priced with the Eq-6 prior and
//!    rejected *before any page is touched* ([`JoinError::Rejected`]
//!    carries the prediction); the same budget at half the predicted
//!    cost under [`AdmissionPolicy::Degrade`] admits a capped
//!    ordinal-prefix of the root units instead.
//! 3. **deadline** — each strategy reruns under `deadline = T/2`
//!    (override with `--deadline-ms`): the run must come back as a
//!    well-formed [`DegradedJoinResult`], and at paper scale
//!    (`--scale ≥ 1`) the localized Eq-3 forfeit estimate of the pairs the
//!    deadline cost must land inside the paper's ~15% envelope of the
//!    true delta against the nominal answer.
//! 4. **shed vs truncate** — on a *clustered* pair of indexes (shared
//!    Gaussian cluster layout, disjoint objects — co-located hot spots)
//!    the round-robin strategy reruns twice at the same half-runtime
//!    deadline, once truncating blindly at expiry and once with the ETA
//!    overrun predictor shedding lowest-value units early; at paper
//!    scale shedding must retain strictly more result pairs. Clustered
//!    data is the demonstration workload on purpose: with uniform data
//!    every root unit carries about the same pairs-per-NA value, so
//!    *which* units a deadline forfeits barely matters — hot spots are
//!    what give the Eq-3 value model something to rank.
//!
//! Results go to `governor_shed.csv`; with `--obs-dir` the shed run's
//! decision log is persisted as `governor_events.jsonl`, which
//! `validate-obs` checks against the `sjcm.governor.v1` contract.

use crate::common::{
    build_tree, rel_err, scheduler_name, write_artifact, RunOpts, DEFAULT_DENSITY,
};
use crate::report::{int, pct, Report};
use sjcm_datagen::skewed::{gaussian_clusters, ClusterConfig};
use sjcm_datagen::uniform::{generate as uniform, UniformConfig};
use sjcm_join::{
    assert_well_formed, AdmissionPolicy, BufferPolicy, DegradedJoinResult, Governor,
    GovernorConfig, JoinConfig, JoinError, JoinSession, Scheduler,
};
use sjcm_obs::PAPER_ENVELOPE;
use sjcm_rtree::RTree;
use std::time::{Duration, Instant};

/// Builds the `join` command's governor configuration from the CLI
/// flags; `None` when no flag was given (the ungoverned fast path).
pub fn config_from_flags(
    deadline_ms: Option<u64>,
    na_budget: Option<f64>,
) -> Option<GovernorConfig> {
    if deadline_ms.is_none() && na_budget.is_none() {
        return None;
    }
    Some(GovernorConfig {
        deadline: deadline_ms.map(Duration::from_millis),
        na_budget,
        ..GovernorConfig::default()
    })
}

/// One walkthrough run under `sched` and `gov`.
fn run(
    sched: Scheduler,
    t1: &RTree<2>,
    t2: &RTree<2>,
    config: JoinConfig,
    gov: &Governor,
) -> Result<DegradedJoinResult<2>, JoinError> {
    JoinSession::new(t1, t2)
        .config(config)
        .scheduler(sched)
        .govern(gov)
        .run()
}

/// The `governor` command. Returns `true` only when every gate holds.
pub fn governor(opts: &RunOpts, deadline_override_ms: Option<u64>) -> bool {
    // An uncreatable --obs-dir already failed in RunOpts::new — before
    // ~10s of joins, not as a warning after them.
    let (out, scale, threads) = (opts.out.as_path(), opts.scale, opts.threads);
    let obs_dir = opts.obs_dir();
    let n = (60_000.0 * scale).round().max(600.0) as usize;
    let paper_scale = scale >= 1.0;
    println!("governor: 2 x {n} objects (seeds 9600/9601), {threads} threads");

    let t1 = build_tree(&uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9600)));
    let t2 = build_tree(&uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9601)));
    let config = JoinConfig {
        buffer: BufferPolicy::Path,
        collect_pairs: false,
        ..JoinConfig::default()
    };
    let strategies = [
        Scheduler::Sequential,
        Scheduler::CostGuided { threads },
        Scheduler::RoundRobin { threads },
    ];

    let ok = std::cell::Cell::new(true);
    let gate = |cond: bool, msg: String| {
        if !cond {
            eprintln!("governor GATE: {msg}");
            ok.set(false);
        }
    };

    // Act 1 — nominal: full runtime and exact answer per strategy.
    let mut nominal = Vec::new();
    for s in &strategies {
        let started = Instant::now();
        match run(*s, &t1, &t2, config, &Governor::unlimited()) {
            Ok(d) => nominal.push((d, started.elapsed())),
            Err(e) => {
                eprintln!(
                    "governor GATE: nominal/{}: join failed: {e}",
                    scheduler_name(*s)
                );
                return false;
            }
        }
    }
    for (s, (d, t)) in strategies.iter().zip(&nominal) {
        gate(
            d.is_exact(),
            format!(
                "nominal/{}: an unlimited governor forfeited work",
                scheduler_name(*s)
            ),
        );
        println!(
            "nominal/{}: {} pairs, NA {}, {:.0} ms",
            scheduler_name(*s),
            d.result.pair_count,
            d.result.na_total(),
            t.as_secs_f64() * 1e3
        );
    }

    // Act 2 — admission. A 1-NA budget cannot admit a 2x60K join; the
    // typed rejection carries the Eq-6 price the decision was made at.
    let reject_cfg = GovernorConfig::default().with_na_budget(1.0);
    let predicted_na = match run(strategies[1], &t1, &t2, config, &Governor::new(reject_cfg)) {
        Err(JoinError::Rejected {
            predicted_na,
            budget,
        }) => {
            println!(
                "admission: rejected up front — Eq-6 predicted {predicted_na:.0} NA \
                 against a budget of {budget:.0}"
            );
            predicted_na
        }
        Err(e) => {
            gate(false, format!("admission: wrong error kind: {e}"));
            return false;
        }
        Ok(_) => {
            gate(false, "admission: a 1-NA budget was admitted".to_string());
            return false;
        }
    };
    // The same over-budget query under the Degrade policy: admitted,
    // but capped to the ordinal prefix half the predicted cost affords.
    let degrade_cfg = GovernorConfig::default()
        .with_na_budget(predicted_na * 0.5)
        .with_admission(AdmissionPolicy::Degrade);
    match run(strategies[1], &t1, &t2, config, &Governor::new(degrade_cfg)) {
        Ok(d) => {
            assert_well_formed(&d);
            gate(
                !d.is_exact(),
                "admission/degrade: a half-cost budget capped nothing".to_string(),
            );
            gate(
                d.result.pair_count <= nominal[1].0.result.pair_count,
                "admission/degrade: degraded run found extra pairs".to_string(),
            );
            println!(
                "admission: degrade policy kept {} of {} pairs under half the predicted cost \
                 ({} root units forfeited, estimate {:.0} pairs lost)",
                d.result.pair_count,
                nominal[1].0.result.pair_count,
                d.skips.len(),
                d.forfeited_pairs()
            );
        }
        Err(e) => gate(false, format!("admission/degrade: join failed: {e}")),
    }

    // Act 3 — deadline at half the measured runtime, per strategy (its
    // own nominal runtime: the sequential run is slower than the
    // parallel ones, and a fair deadline halves each one's own clock).
    let mut table = Report::new(
        out,
        "governor_shed",
        &[
            "act",
            "strategy",
            "deadline_ms",
            "wall_ms",
            "pairs",
            "retained",
            "skips",
            "shed_units",
            "est_lost",
            "true_lost",
            "rel_err",
        ],
    );
    table.comment(&format!(
        "2 x {n} uniform objects, D = {DEFAULT_DENSITY}, data seeds 9600/9601, \
         {threads} threads; deadline = half the strategy's nominal runtime{}",
        deadline_override_ms
            .map(|ms| format!(" (overridden: {ms} ms)"))
            .unwrap_or_default()
    ));
    table.comment(&format!(
        "forfeit envelope {:.0}% ({})",
        PAPER_ENVELOPE * 100.0,
        if paper_scale {
            "paper scale, enforced"
        } else {
            "reduced scale, report-only"
        }
    ));
    let deadline_for = |nominal_runtime: Duration| -> Duration {
        deadline_override_ms
            .map(Duration::from_millis)
            .unwrap_or_else(|| (nominal_runtime / 2).max(Duration::from_millis(1)))
    };
    let mut run_governed = |act: &str,
                            s: &Scheduler,
                            baseline: &DegradedJoinResult<2>,
                            cfg: GovernorConfig,
                            deadline: Duration|
     -> Option<(DegradedJoinResult<2>, Governor)> {
        let gov = Governor::new(cfg.with_deadline(deadline));
        let started = Instant::now();
        let d = match run(*s, &t1, &t2, config, &gov) {
            Ok(d) => d,
            Err(e) => {
                eprintln!(
                    "governor GATE: {act}/{}: join failed: {e}",
                    scheduler_name(*s)
                );
                ok.set(false);
                return None;
            }
        };
        let wall = started.elapsed();
        assert_well_formed(&d);
        let true_lost = (baseline.result.pair_count - d.result.pair_count) as f64;
        let est_lost = d.forfeited_pairs();
        let shed_units = gov.summary().map(|s| s.units_shed).unwrap_or(0);
        let retained = if baseline.result.pair_count == 0 {
            1.0
        } else {
            d.result.pair_count as f64 / baseline.result.pair_count as f64
        };
        table.row(&[
            &act,
            &scheduler_name(*s),
            &deadline.as_millis(),
            &format!("{:.0}", wall.as_secs_f64() * 1e3),
            &d.result.pair_count,
            &pct(retained.min(1.0)).replace('%', ""),
            &d.skips.len(),
            &shed_units,
            &int(est_lost),
            &int(true_lost),
            &if d.is_exact() {
                "-".to_string()
            } else {
                pct(rel_err(est_lost, true_lost))
            },
        ]);
        Some((d, gov))
    };

    for (s, (b, t)) in strategies.iter().zip(&nominal) {
        let deadline = deadline_for(*t);
        let Some((d, _gov)) = run_governed("deadline", s, b, GovernorConfig::default(), deadline)
        else {
            continue;
        };
        gate(
            d.result.pair_count <= b.result.pair_count,
            format!(
                "deadline/{}: degraded run found extra pairs",
                scheduler_name(*s)
            ),
        );
        let true_lost = (b.result.pair_count - d.result.pair_count) as f64;
        let est_lost = d.forfeited_pairs();
        println!(
            "deadline/{}: {:.0} ms deadline kept {} of {} pairs ({} units forfeited, \
             estimate {:.0} vs true {:.0} lost)",
            scheduler_name(*s),
            deadline.as_secs_f64() * 1e3,
            d.result.pair_count,
            b.result.pair_count,
            d.skips.len(),
            est_lost,
            true_lost
        );
        if paper_scale {
            gate(
                !d.is_exact(),
                format!(
                    "deadline/{}: a half-runtime deadline forfeited nothing",
                    scheduler_name(*s)
                ),
            );
            if true_lost > 0.0 {
                gate(
                    rel_err(est_lost, true_lost) <= PAPER_ENVELOPE,
                    format!(
                        "deadline/{}: forfeit estimate {est_lost:.0} vs true {true_lost:.0} \
                         ({} > {:.0}% envelope)",
                        scheduler_name(*s),
                        pct(rel_err(est_lost, true_lost)),
                        PAPER_ENVELOPE * 100.0
                    ),
                );
            }
        }
    }

    // Act 4 — shed vs truncate at the same deadline. The workload
    // switches to co-located Gaussian clusters (shared center layout,
    // disjoint objects): hot-spot units carry orders of magnitude more
    // pairs per NA than the sparse ones, which is the heterogeneity the
    // Eq-3 value ranking needs — on uniform data every unit is worth
    // about the same and forfeit choice is a coin flip. Round-robin is
    // the naive baseline on purpose: its ordinal truncation order is
    // spatial, not value-aware.
    let c1 = build_tree(&gaussian_clusters::<2>(
        ClusterConfig::new(n, DEFAULT_DENSITY, 9700)
            .with_center_seed(9700)
            .with_clusters(5)
            .with_sigma(0.025),
    ));
    let c2 = build_tree(&gaussian_clusters::<2>(
        ClusterConfig::new(n, DEFAULT_DENSITY, 9701)
            .with_center_seed(9700)
            .with_clusters(5)
            .with_sigma(0.025),
    ));
    let s = &Scheduler::RoundRobin { threads };
    let started = Instant::now();
    let (cb, ct) = match run(*s, &c1, &c2, config, &Governor::unlimited()) {
        Ok(d) => (d, started.elapsed()),
        Err(e) => {
            eprintln!("governor GATE: clustered nominal: join failed: {e}");
            return false;
        }
    };
    println!(
        "clustered nominal/{}: {} pairs, NA {}, {:.0} ms",
        scheduler_name(*s),
        cb.result.pair_count,
        cb.result.na_total(),
        ct.as_secs_f64() * 1e3
    );
    // A third of the runtime, not half: the tighter the deficit, the
    // more it matters *which* units are forfeited, which is the choice
    // this act exists to compare. (With a lenient deadline both arms
    // finish most of the work and the comparison collapses into
    // scheduler noise.) --deadline-ms still overrides.
    let deadline = deadline_override_ms
        .map(Duration::from_millis)
        .unwrap_or_else(|| (ct / 3).max(Duration::from_millis(1)));
    // Wall-clock deadlines make single runs jittery (how far a shard
    // gets before expiry moves with scheduler noise), so each arm runs
    // five reps and is judged by its median-retention rep — the same
    // rep the CSV row and the persisted decision log come from.
    let run_act4 = |act: &str, cfg: &GovernorConfig| {
        let mut reps = Vec::new();
        for _ in 0..5 {
            let gov = Governor::new(cfg.clone().with_deadline(deadline));
            let started = Instant::now();
            let d = match run(*s, &c1, &c2, config, &gov) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!(
                        "governor GATE: {act}/{}: join failed: {e}",
                        scheduler_name(*s)
                    );
                    ok.set(false);
                    return None;
                }
            };
            let wall = started.elapsed();
            assert_well_formed(&d);
            reps.push((d, gov, wall));
        }
        reps.sort_by_key(|(d, _, _)| d.result.pair_count);
        reps.into_iter().nth(2)
    };
    let truncate = run_act4("truncate", &GovernorConfig::default());
    let shed = run_act4("shed", &GovernorConfig::default().with_shedding(true));
    if let (Some((dt, gov_trunc, wall_t)), Some((ds, gov_shed, wall_s))) = (truncate, shed) {
        for (act, d, gov, wall) in [
            ("truncate", &dt, &gov_trunc, wall_t),
            ("shed", &ds, &gov_shed, wall_s),
        ] {
            let true_lost = (cb.result.pair_count - d.result.pair_count) as f64;
            let est_lost = d.forfeited_pairs();
            let retained = if cb.result.pair_count == 0 {
                1.0
            } else {
                d.result.pair_count as f64 / cb.result.pair_count as f64
            };
            table.row(&[
                &act,
                &"round-robin/clustered",
                &deadline.as_millis(),
                &format!("{:.0}", wall.as_secs_f64() * 1e3),
                &d.result.pair_count,
                &pct(retained.min(1.0)).replace('%', ""),
                &d.skips.len(),
                &gov.summary().map(|s| s.units_shed).unwrap_or(0),
                &int(est_lost),
                &int(true_lost),
                &if d.is_exact() {
                    "-".to_string()
                } else {
                    pct(rel_err(est_lost, true_lost))
                },
            ]);
        }
        println!(
            "shed vs truncate (clustered) at {:.0} ms: shed kept {} pairs \
             ({} units shed early), truncate kept {}",
            deadline.as_secs_f64() * 1e3,
            ds.result.pair_count,
            gov_shed.summary().map(|s| s.units_shed).unwrap_or(0),
            dt.result.pair_count
        );
        if paper_scale {
            gate(
                ds.result.pair_count > dt.result.pair_count,
                format!(
                    "shed kept {} pairs, not strictly more than truncation's {}",
                    ds.result.pair_count, dt.result.pair_count
                ),
            );
        }
        if let (Some(dir), Some(jsonl)) = (obs_dir, gov_shed.events_jsonl()) {
            write_artifact(dir, sjcm_obs::GOVERNOR_EVENTS_FILE, "governor", |p| {
                std::fs::write(p, &jsonl)
            });
        }
    }
    table.finish();

    if ok.get() {
        println!("governor: all gates passed");
    }
    ok.get()
}
