//! The `governor` command: the deadline/budget walkthrough over the
//! governed join pipeline.
//!
//! Against one pair of fixed-seed uniform indexes the walkthrough runs
//! four acts:
//!
//! 1. **nominal** — every strategy (sequential SJ, cost-guided
//!    parallel, round-robin parallel) runs ungoverned three times to
//!    measure its full runtime `T` (the fastest of the three, so a cold
//!    first run does not inflate it) and exact answer; the governed
//!    acts are judged against these.
//! 2. **admission** — a 1-NA budget is priced with the Eq-6 prior and
//!    rejected *before any page is touched* ([`JoinError::Rejected`]
//!    carries the prediction); the same budget at half the predicted
//!    cost under [`AdmissionPolicy::Degrade`] admits the value-ranked
//!    cap of the root units instead, and at paper scale its localized
//!    Eq-3 forfeit estimate must land inside the paper's ~15% envelope
//!    of the true loss.
//! 3. **deadline** — each strategy reruns under `deadline = T/2`
//!    (override with `--deadline-ms`): the run must come back as a
//!    well-formed [`DegradedJoinResult`], and at paper scale
//!    (`--scale ≥ 1`) the localized Eq-3 forfeit estimate of the pairs the
//!    deadline cost must land inside the paper's ~15% envelope of the
//!    true delta against the nominal answer.
//! 4. **value-ranked vs prefix** — on a *clustered* pair of indexes
//!    (shared Gaussian cluster layout, disjoint objects — co-located
//!    hot spots) the round-robin strategy runs under a `Degrade`
//!    admission at a third of the Eq-6 predicted NA, which keeps the
//!    units with the most expected pairs per price, and then under
//!    `cancel_after_units(k)` with `k` the number of units the
//!    `Degrade` run executed — the same unit count, taken in ordinal
//!    order. No clock is involved: at paper scale the value-ranked run
//!    must keep strictly more pairs, and more pairs per measured NA.
//!    Clustered data is the demonstration workload on purpose: with
//!    uniform data every root unit carries about the same pairs-per-NA
//!    value, so *which* units are kept barely matters — hot spots are
//!    what give the Eq-3 value model something to rank.
//!
//! Results go to `governor.csv`; with `--obs-dir` the value-ranked
//! run's decision log is persisted as `governor_events.jsonl`, which
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
) -> Result<DegradedJoinResult, JoinError> {
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

    // Act 1 — nominal: exact answer per strategy, and its full runtime
    // as the fastest of three runs (a cold first run would inflate the
    // act-3 deadline until it forfeits nothing).
    let mut nominal = Vec::new();
    for s in &strategies {
        let mut fastest: Option<(DegradedJoinResult, Duration)> = None;
        for _ in 0..3 {
            let started = Instant::now();
            match run(*s, &t1, &t2, config, &Governor::unlimited()) {
                Ok(d) => {
                    let t = started.elapsed();
                    match &mut fastest {
                        Some((_, best)) => *best = (*best).min(t),
                        None => fastest = Some((d, t)),
                    }
                }
                Err(e) => {
                    eprintln!(
                        "governor GATE: nominal/{}: join failed: {e}",
                        scheduler_name(*s)
                    );
                    return false;
                }
            }
        }
        nominal.extend(fastest);
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
    // but capped to the highest-value units half the predicted cost
    // affords.
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
            let true_lost = nominal[1]
                .0
                .result
                .pair_count
                .saturating_sub(d.result.pair_count) as f64;
            let est_lost = d.forfeited_pairs();
            println!(
                "admission: degrade policy kept {} of {} pairs under half the predicted cost \
                 ({} root units forfeited, estimate {est_lost:.0} vs true {true_lost:.0} lost)",
                d.result.pair_count,
                nominal[1].0.result.pair_count,
                d.skips.len(),
            );
            if paper_scale && true_lost > 0.0 {
                gate(
                    rel_err(est_lost, true_lost) <= PAPER_ENVELOPE,
                    format!(
                        "admission/degrade: forfeit estimate {est_lost:.0} vs true \
                         {true_lost:.0} ({} > {:.0}% envelope)",
                        pct(rel_err(est_lost, true_lost)),
                        PAPER_ENVELOPE * 100.0
                    ),
                );
            }
        }
        Err(e) => gate(false, format!("admission/degrade: join failed: {e}")),
    }

    // Act 3 — deadline at half the measured runtime, per strategy (its
    // own nominal runtime: the sequential run is slower than the
    // parallel ones, and a fair deadline halves each one's own clock).
    let mut table = Report::new(
        out,
        "governor",
        &[
            "act",
            "strategy",
            "deadline_ms",
            "wall_ms",
            "pairs",
            "na",
            "retained",
            "skips",
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
    // One CSV row: a governed run against its ungoverned baseline.
    let mut row = |act: &str,
                   strategy: &str,
                   deadline: Option<Duration>,
                   wall: Duration,
                   d: &DegradedJoinResult,
                   baseline: &DegradedJoinResult| {
        let true_lost = baseline
            .result
            .pair_count
            .saturating_sub(d.result.pair_count) as f64;
        let est_lost = d.forfeited_pairs();
        let retained = if baseline.result.pair_count == 0 {
            1.0
        } else {
            d.result.pair_count as f64 / baseline.result.pair_count as f64
        };
        table.row(&[
            &act,
            &strategy,
            &deadline.map_or("-".to_string(), |d| d.as_millis().to_string()),
            &format!("{:.0}", wall.as_secs_f64() * 1e3),
            &d.result.pair_count,
            &d.result.na_total(),
            &pct(retained.min(1.0)).replace('%', ""),
            &d.skips.len(),
            &int(est_lost),
            &int(true_lost),
            &if d.is_exact() {
                "-".to_string()
            } else {
                pct(rel_err(est_lost, true_lost))
            },
        ]);
    };

    for (s, (b, t)) in strategies.iter().zip(&nominal) {
        let deadline = deadline_override_ms
            .map(Duration::from_millis)
            .unwrap_or_else(|| (*t / 2).max(Duration::from_millis(1)));
        let gov = Governor::new(GovernorConfig::default().with_deadline(deadline));
        let started = Instant::now();
        let d = match run(*s, &t1, &t2, config, &gov) {
            Ok(d) => d,
            Err(e) => {
                gate(
                    false,
                    format!("deadline/{}: join failed: {e}", scheduler_name(*s)),
                );
                continue;
            }
        };
        row(
            "deadline",
            scheduler_name(*s),
            Some(deadline),
            started.elapsed(),
            &d,
            b,
        );
        assert_well_formed(&d);
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

    // Act 4 — value-ranked cap vs ordinal prefix of the same unit count.
    // The workload switches to co-located Gaussian clusters (shared
    // center layout, disjoint objects): hot-spot units carry orders of
    // magnitude more pairs per NA than the sparse ones, which is the
    // heterogeneity the Eq-3 value ranking needs — on uniform data every
    // unit is worth about the same and the choice of units is a coin
    // flip. Round-robin's deal is spatial, not value-aware, and both
    // arms are decided before any page is read, so neither depends on
    // the clock.
    let cluster = |seed| {
        build_tree(&gaussian_clusters::<2>(
            ClusterConfig::new(n, DEFAULT_DENSITY, seed)
                .with_center_seed(9700)
                .with_clusters(5)
                .with_sigma(0.025),
        ))
    };
    let (c1, c2) = (cluster(9700), cluster(9701));
    let s = Scheduler::RoundRobin { threads };
    let strategy = format!("{}/clustered", scheduler_name(s));
    // A default governor gates nothing, so this is the ungoverned run,
    // with the Eq-6 prediction the admission priced it at.
    let counter = Governor::new(GovernorConfig::default());
    let started = Instant::now();
    let cb = match run(s, &c1, &c2, config, &counter) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("governor GATE: clustered nominal: join failed: {e}");
            return false;
        }
    };
    let predicted_na = counter.summary().map_or(0.0, |g| g.predicted_na);
    println!(
        "clustered nominal/{}: {} pairs, NA {} (Eq 6 predicted {predicted_na:.0}), {:.0} ms",
        scheduler_name(s),
        cb.result.pair_count,
        cb.result.na_total(),
        started.elapsed().as_secs_f64() * 1e3
    );
    // A third of the predicted NA: the tighter the cap, the more it
    // matters *which* units are kept, which is the choice this act
    // exists to compare.
    let mut governed_arm = |act: &str, cfg: GovernorConfig| {
        let gov = Governor::new(cfg);
        let started = Instant::now();
        match run(s, &c1, &c2, config, &gov) {
            Ok(d) => {
                row(act, &strategy, None, started.elapsed(), &d, &cb);
                assert_well_formed(&d);
                Some((d, gov))
            }
            Err(e) => {
                gate(false, format!("{act}/{strategy}: join failed: {e}"));
                None
            }
        }
    };
    let Some((dv, gov_value)) = governed_arm(
        "degrade-value",
        GovernorConfig::default()
            .with_na_budget(predicted_na / 3.0)
            .with_admission(AdmissionPolicy::Degrade),
    ) else {
        table.finish();
        return false;
    };
    let units_total = gov_value.summary().map_or(0, |g| g.units_total);
    let k = units_total - dv.skips.len() as u64;
    let Some((dp, _)) = governed_arm(
        "cancel-prefix",
        GovernorConfig::default().with_cancel_after_units(k),
    ) else {
        table.finish();
        return false;
    };
    table.finish();
    let per_na = |d: &DegradedJoinResult| d.result.pair_count as f64 / d.result.na_total() as f64;
    println!(
        "value-ranked vs prefix (clustered) at a third of the predicted NA: \
         value-ranked kept {} pairs at NA {} ({:.1} pairs/NA) over {k} of {} units, \
         the first {k} units kept {} pairs at NA {} ({:.1} pairs/NA)",
        dv.result.pair_count,
        dv.result.na_total(),
        per_na(&dv),
        units_total,
        dp.result.pair_count,
        dp.result.na_total(),
        per_na(&dp),
    );
    if paper_scale {
        gate(
            dv.result.pair_count > dp.result.pair_count,
            format!(
                "value-ranked kept {} pairs, not strictly more than the prefix's {}",
                dv.result.pair_count, dp.result.pair_count
            ),
        );
        gate(
            per_na(&dv) > per_na(&dp),
            format!(
                "value-ranked kept {:.2} pairs per NA, not more than the prefix's {:.2}",
                per_na(&dv),
                per_na(&dp)
            ),
        );
    }
    if let (Some(dir), Some(jsonl)) = (obs_dir, gov_value.events_jsonl()) {
        write_artifact(dir, sjcm_obs::GOVERNOR_EVENTS_FILE, "governor", |p| {
            std::fs::write(p, &jsonl)
        });
    }

    if ok.get() {
        println!("governor: all gates passed");
    }
    ok.get()
}
