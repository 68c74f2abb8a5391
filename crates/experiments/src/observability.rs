//! The observability-driven experiments: the traced `join` command and
//! the `validate-obs` artifact checker the CI runs against its output.
//!
//! `join` runs the fixed-seed 60K·scale uniform workload through the
//! cost-guided parallel executor with every hook armed: spans for tree
//! construction, frontier descent, scheduling and each work unit; a
//! metrics registry fed from the access statistics, the buffer
//! counters and the scheduler's steal tallies; a drift monitor
//! whose Eq 6/8–12 predictions are registered *before* the join runs,
//! checked in-flight (overruns of the ~15% envelope flag while the
//! join is still executing) and published as `drift.*` gauges at the
//! end; and, when `--obs-dir` is given, the page-access flight
//! recorder, whose binary trace feeds the offline `trace replay` /
//! `trace report` toolchain ([`crate::trace`]). A watcher thread samples the
//! Eq-6-prior-seeded progress engine throughout the run — `--watch`
//! draws it live, `--obs-dir` persists the snapshot JSONL, and the
//! report prints the prior-vs-refined ETA error curve either way.

use crate::chaos::CHAOS_METRICS_FILE;
use crate::common::{build_tree, write_artifact, RunOpts, DEFAULT_DENSITY};
use crate::explain::{CATALOG_FILE, PLAN_ANALYZE_FILE};
use crate::report::{int, pct, Report};
use crate::trace::ACCESS_TRACE_FILE;
use sjcm::explain::validate_plan_analyze_jsonl;
use sjcm::optimizer::Catalog;
use sjcm_core::join;
use sjcm_datagen::uniform::{generate as uniform, UniformConfig};
use sjcm_join::{
    measured_params, BufferPolicy, Governor, GovernorConfig, JoinConfig, JoinObs, JoinSession,
    Scheduler,
};
use sjcm_obs::{
    json, validate_governor_jsonl, validate_metrics_jsonl, validate_progress_jsonl,
    validate_trace_jsonl, DriftMonitor, LevelPrior, MetricsRegistry, ProgressEngine,
    ProgressSnapshot, ProgressTracker, Tracer, GOVERNOR_EVENTS_FILE, MASS_FLOOR, PAPER_ENVELOPE,
};
use sjcm_storage::{AccessTrace, FlightRecorder};
use std::io::Write as _;
use std::path::Path;

/// Span-JSONL artifact name inside `--obs-dir`.
pub const TRACE_FILE: &str = "join_trace.jsonl";
/// Metrics-JSONL artifact name inside `--obs-dir`.
pub const METRICS_FILE: &str = "join_metrics.jsonl";
/// Progress-snapshot JSONL artifact name inside `--obs-dir`.
pub const PROGRESS_FILE: &str = "join_progress.jsonl";

/// Sampling cadence of the progress watcher thread. The paper-scale
/// cost-guided join finishes in ~100 ms, so a 5 ms cadence lands a few
/// dozen snapshots across the run (enough to draw the prior-vs-refined
/// error curve) while a sample itself costs ~1 µs of atomic reads.
const SAMPLE_EVERY_MS: u64 = 5;

/// The `join` command: one fully observed join run. `obs_dir` names a
/// directory receiving every artifact — span JSONL, metrics JSONL, the
/// flight recorder's binary page-access trace and the progress-snapshot
/// JSONL (omitted ⇒ nothing is written and the recorder stays disabled;
/// the in-terminal report still prints). `watch` redraws a live one-line progress bar
/// (fraction, ETA ± the §4.1 envelope, pair count) while the join
/// runs. Progress is always *tracked* — the watcher thread samples the
/// Eq-6-seeded [`ProgressEngine`] every [`SAMPLE_EVERY_MS`] and the
/// final report prints the prior-vs-refined ETA error curve — `watch`
/// only controls the terminal redraw.
///
/// With a [`GovernorConfig`] the join runs through the fallible twin
/// under a fresh [`Governor`]: an admission rejection comes back as
/// `Err` (the CLI exits non-zero), a deadline expiry degrades the run
/// instead of aborting it, and the governor's decisions are published
/// as `governor.*` gauges and (under `--obs-dir`) as
/// `governor_events.jsonl`. A degraded run legitimately under-shoots
/// the Eq 6/8–12 predictions, so the drift envelope is only gated when
/// the governed run stayed exact, and the metrics artifact is withheld
/// rather than written in a state `validate-obs` would rightly reject
/// (the progress stream stays valid — forfeited work is retired from
/// the denominator, so it still ends at 1.0). The access trace is
/// withheld the same way when the recorder captured no access: a run
/// whose deadline refused every unit reads no page.
///
/// Returns `Ok(true)` when every *gated* drift target landed inside the
/// paper's envelope.
pub fn join_observed(
    opts: &RunOpts,
    watch: bool,
    gov_cfg: Option<GovernorConfig>,
) -> Result<bool, String> {
    // RunOpts::new already created --obs-dir fail-fast: a run whose
    // whole point is its artifacts aborts before any work otherwise.
    let (out, scale, threads) = (opts.out.as_path(), opts.scale, opts.threads);
    let obs_dir = opts.obs_dir();
    let gov = match gov_cfg.clone() {
        Some(cfg) => Governor::new(cfg),
        None => Governor::unlimited(),
    };
    let n = (60_000.0 * scale).round().max(600.0) as usize;
    let tracer = Tracer::enabled();
    let metrics = MetricsRegistry::new();
    let drift = DriftMonitor::new(PAPER_ENVELOPE);
    let recorder = if obs_dir.is_some() {
        FlightRecorder::enabled()
    } else {
        FlightRecorder::disabled()
    };

    // Build the two indexes under their own spans.
    let build = |seed: u64, name: &str| {
        let mut span = tracer.span(name);
        let rects = uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, seed));
        let tree = build_tree(&rects);
        span.set("n", n);
        span.set("height", tree.height() as u64);
        (rects, tree)
    };
    let (_r1, t1) = build(9600, "build-r1");
    let (_r2, t2) = build(9601, "build-r2");

    // Register the Eq 6/8–12 predictions before the join runs, from
    // *measured* tree parameters: the monitor isolates formula drift
    // from parameter-estimation error (the latter is what the
    // `param-source` command studies — near the root the analytic node
    // counts are off by whole nodes, which would swamp the per-level
    // gauges with discretization noise). Levels predicted to carry
    // less than MASS_FLOOR of their total are tracked as raw counters
    // but get no envelope target.
    let p1 = measured_params::<2>(&t1.stats());
    let p2 = measured_params::<2>(&t2.stats());
    let targets = join::join_prediction_targets(&p1, &p2);
    let total_of = |prefix: &str| {
        targets
            .iter()
            .find(|(n, _)| n == &format!("{prefix}.total"))
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let (na_pred, da_pred) = (total_of("na"), total_of("da"));
    let mut skipped = Vec::new();
    for (name, predicted) in &targets {
        let total = if name.starts_with("na.") {
            na_pred
        } else {
            da_pred
        };
        if name.ends_with(".total") || *predicted >= MASS_FLOOR * total {
            drift.predict(name, *predicted);
        } else {
            skipped.push(name.clone());
        }
    }

    // Seed the progress engine from the same Eq-6 machinery: per-level
    // NA priors on measured parameters become the engine's initial
    // denominator, then live counters refine it as the join descends.
    let progress = ProgressTracker::enabled();
    let priors: Vec<LevelPrior> = join::join_na_priors(&p1, &p2)
        .into_iter()
        .map(|(tree, level, na)| LevelPrior { tree, level, na })
        .collect();
    let mut engine = ProgressEngine::new(&progress, &priors);
    let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
    let obs = JoinObs {
        tracer: tracer.clone(),
        drift: Some(&drift),
        recorder: recorder.clone(),
        progress: progress.clone(),
    };
    let config = JoinConfig {
        buffer: BufferPolicy::Path,
        collect_pairs: false,
        ..JoinConfig::default()
    };
    let degraded = std::thread::scope(|s| {
        let gov = &gov;
        let worker = s.spawn(|| {
            JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(Scheduler::CostGuided { threads })
                .observe(&obs)
                .govern(gov)
                .run()
        });
        while !worker.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(SAMPLE_EVERY_MS));
            let snap = engine.sample();
            if watch {
                print!("\r{}", snap.terminal_line());
                let _ = std::io::stdout().flush();
            }
            snapshots.push(snap);
        }
        worker.join().expect("join worker panicked")
    });
    // Persist the decision log before the error path: a rejected
    // admission is exactly when the events file is most interesting.
    let write_governor_events = |dir: &Path| {
        if let Some(jsonl) = gov.events_jsonl() {
            write_artifact(dir, GOVERNOR_EVENTS_FILE, "governor", |p| {
                std::fs::write(p, &jsonl)
            });
        }
    };
    let degraded = match degraded {
        Ok(d) => d,
        Err(e) => {
            if let Some(dir) = obs_dir {
                write_governor_events(dir);
            }
            return Err(e.to_string());
        }
    };
    let exact = degraded.is_exact();
    if !exact {
        println!(
            "governor: degraded run — {} of {} root units forfeited, \
             forfeited-pairs estimate {:.0}",
            degraded.skips.len(),
            gov.summary().map(|s| s.units_total).unwrap_or(0),
            degraded.forfeited_pairs()
        );
    }
    let result = degraded.result;
    // One last sample after `finish()`: fraction is exactly 1.0 and the
    // validator requires the stream to end that way.
    let final_snap = engine.sample();
    if watch {
        println!("\r{}", final_snap.terminal_line());
    }
    snapshots.push(final_snap);

    // Final observations: the measured per-level and total NA/DA under
    // the same names the predictions were registered with.
    for (name, actual) in result.drift_observations() {
        drift.observe(&name, actual);
    }

    // Feed the registry: access stats, buffer hits and misses (NA − DA
    // and DA of the same tallies), steal tallies.
    for (name, value) in result.drift_observations() {
        metrics.counter_add(&format!("join.{name}"), value as u64);
    }
    for (tree, s) in [(1, &result.stats1), (2, &result.stats2)] {
        metrics.counter_add(&format!("buffer.r{tree}.hits"), s.na_total() - s.da_total());
        metrics.counter_add(&format!("buffer.r{tree}.misses"), s.da_total());
        if let Some(h) = s.hit_ratio() {
            metrics.gauge_set(&format!("buffer.r{tree}.hit_ratio"), h);
        }
    }
    for s in &result.steals {
        metrics.counter_add("parallel.units_executed", s.units_executed);
        metrics.counter_add("parallel.units_stolen", s.units_stolen);
        metrics.counter_add("parallel.steal.attempts", s.steal_attempts);
        for &d in &s.steal_queue_depths {
            metrics.histogram_record("parallel.steal.queue_depth", d as f64);
        }
    }
    metrics.gauge_set("parallel.na_imbalance", result.na_imbalance());
    drift.publish(&metrics);

    // Governor decisions as gauges, under the shared `governor.*`
    // names — absent entirely on an ungoverned run.
    if let (Some(summary), Some(cfg)) = (gov.summary(), gov_cfg.as_ref()) {
        use sjcm_obs::governor as govm;
        metrics.gauge_set(govm::GOV_ADMITTED, 1.0);
        metrics.gauge_set(govm::GOV_PREDICTED_NA, summary.predicted_na);
        if let Some(b) = cfg.na_budget {
            metrics.gauge_set(govm::GOV_NA_BUDGET, b);
        }
        if let Some(d) = cfg.deadline {
            metrics.gauge_set(govm::GOV_DEADLINE_MS, d.as_secs_f64() * 1e3);
        }
        metrics.gauge_set(govm::GOV_UNITS_TOTAL, summary.units_total as f64);
        metrics.gauge_set(govm::GOV_UNITS_EXECUTED, summary.units_executed as f64);
        metrics.gauge_set(govm::GOV_UNITS_FORFEITED, summary.units_forfeited as f64);
        metrics.gauge_set(govm::GOV_UNITS_SHED, summary.units_shed as f64);
    }

    // The report section: drift table + span summary.
    let mut table = Report::new(
        out,
        "join_drift",
        &[
            "target",
            "predicted",
            "actual",
            "rel_err",
            "within",
            "overrun",
        ],
    );
    table.comment(&format!(
        "model-vs-actual drift, envelope = {:.0}% (paper section 4.1); \
         predictions are Eq 6/8-12 on measured tree parameters",
        PAPER_ENVELOPE * 100.0
    ));
    if !skipped.is_empty() {
        table.comment(&format!(
            "levels under {:.0}% of predicted total mass monitored as raw \
             counters only (small-denominator cells): {}",
            MASS_FLOOR * 100.0,
            skipped.join(" ")
        ));
    }
    for s in drift.samples() {
        table.row(&[
            &s.name,
            &int(s.predicted),
            &int(s.actual),
            &pct(s.rel_err),
            &s.within,
            &s.overrun,
        ]);
    }
    table.finish();

    // The prior-vs-refined accuracy curve: at each sampled fraction,
    // how far the engine's live total-work estimate sat from the true
    // final work (the last snapshot's done_work — by then every counter
    // is settled). Early rows are pure Eq-6 prior; late rows are
    // observation-dominated. EXPERIMENTS.md quotes this table.
    let true_work = snapshots.last().map(|s| s.done_work).unwrap_or(0.0);
    let mut eta_table = Report::new(
        out,
        "join_eta",
        &[
            "t_us",
            "fraction",
            "est_total_work",
            "eta_us",
            "err_vs_final",
        ],
    );
    eta_table.comment(&format!(
        "live total-work estimate vs the settled final work ({true_work:.0} NA); \
         the first rows are Eq-6-prior-dominated, the last observation-dominated"
    ));
    for s in &snapshots {
        let err = if true_work > 0.0 {
            (s.est_total_work - true_work).abs() / true_work
        } else {
            0.0
        };
        eta_table.row(&[
            &s.t_us.to_string(),
            &format!("{:.4}", s.fraction),
            &int(s.est_total_work),
            &s.eta_us.map(|e| e.to_string()).unwrap_or_default(),
            &pct(err),
        ]);
    }
    eta_table.finish();

    println!("\n== span tree ==");
    print!("{}", tracer.tree_summary());

    if let Some(dir) = obs_dir {
        write_artifact(dir, TRACE_FILE, "trace", |p| tracer.write_jsonl(p));
        // A deadline-degraded run legitimately undershoots the Eq
        // 6/8–12 predictions, so its drift gauges would (rightly) fail
        // `validate-obs`'s envelope contract: withhold the metrics file
        // instead of writing a known-bad artifact.
        if exact {
            write_artifact(dir, METRICS_FILE, "metrics", |p| metrics.write_jsonl(p));
        } else {
            println!("[metrics] withheld: degraded run breaches the drift contract");
        }
        write_governor_events(dir);
        // The binary page-access trace: the join ran under the
        // path-buffer policy, and the header carries the Eq 7/11 and
        // 10/12 totals so `trace replay` can draw its what-if curve
        // against the model. A trace with no events has nothing to
        // replay, and `validate-obs` rejects it.
        let access = recorder.into_trace(config.buffer, na_pred, da_pred);
        if access.events.is_empty() {
            println!("[access-trace] withheld: the recorder captured no access");
        } else {
            write_artifact(dir, ACCESS_TRACE_FILE, "access-trace", |p| access.write(p));
        }
        write_artifact(dir, PROGRESS_FILE, "progress", |p| {
            json::write_jsonl(p, snapshots.iter().map(ProgressSnapshot::to_json))
        });
    }

    let ok = drift.all_within();
    if ok {
        println!(
            "drift: all {} targets within the {:.0}% envelope",
            drift.target_count(),
            PAPER_ENVELOPE * 100.0
        );
    } else if !exact {
        println!(
            "drift: {} breach(es) not gated — the governor forfeited work, \
             so undershooting the full-run predictions is expected",
            drift.breaches().len()
        );
    } else {
        for b in drift.breaches() {
            eprintln!(
                "drift BREACH: {} predicted {:.0} actual {:.0} ({}{})",
                b.name,
                b.predicted,
                b.actual,
                pct(b.rel_err),
                if b.overrun { ", flagged in-flight" } else { "" }
            );
        }
    }
    Ok(ok || !exact)
}

/// A validator: the artifact's bytes in, the number of records it
/// holds out.
type Check = fn(&[u8]) -> Result<usize, String>;

fn text(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))
}

/// Every artifact `validate-obs` knows: file name, validator, and the
/// noun its record count is reported in. Each validator sits beside
/// the artifact's writer, except the two below whose formats are
/// checked by their parsers.
const ARTIFACTS: [(&str, Check, &str); 8] = [
    (TRACE_FILE, |b| validate_trace_jsonl(text(b)?), "spans"),
    (
        METRICS_FILE,
        |b| validate_metrics_jsonl(text(b)?),
        "metric lines",
    ),
    (
        CHAOS_METRICS_FILE,
        |b| validate_metrics_jsonl(text(b)?),
        "metric lines",
    ),
    (ACCESS_TRACE_FILE, check_access_trace, "access events"),
    (
        PROGRESS_FILE,
        |b| validate_progress_jsonl(text(b)?),
        "progress snapshots",
    ),
    (
        PLAN_ANALYZE_FILE,
        |b| validate_plan_analyze_jsonl(text(b)?),
        "plan operators",
    ),
    (CATALOG_FILE, check_catalog, "catalog entries"),
    (
        GOVERNOR_EVENTS_FILE,
        |b| validate_governor_jsonl(text(b)?),
        "governor events",
    ),
];

/// The binary page-access trace: [`AccessTrace::from_bytes`] rejects
/// bad magic/version/padding, truncated or oversized byte counts,
/// invalid event encodings and non-monotonic ticks; on top of that a
/// trace must be replayable (at least one event).
fn check_access_trace(bytes: &[u8]) -> Result<usize, String> {
    AccessTrace::from_bytes(bytes)
        .and_then(crate::trace::replayable)
        .map(|t| t.events.len())
}

/// The calibrated catalog round-trips through the optimizer's own
/// parser, which enforces dimensionality and entry shape, and holds at
/// least one data set.
fn check_catalog(bytes: &[u8]) -> Result<usize, String> {
    let catalog = Catalog::<2>::from_json(text(bytes)?.trim()).map_err(|e| e.to_string())?;
    match catalog.len() {
        0 => Err("catalog holds no datasets".to_string()),
        n => Ok(n),
    }
}

/// The `validate-obs` command: runs the validator of every artifact in
/// [`ARTIFACTS`] present in `dir` — spans, metrics (the join's and the
/// chaos campaigns', both under the drift contract), the access trace,
/// progress snapshots, the plan analysis, the calibrated catalog and
/// the governor's decision log. Returns `false` (with diagnostics on
/// stderr) on any violation, including an obs dir with nothing to
/// validate.
pub fn validate_obs(dir: &Path) -> bool {
    let mut found = 0;
    let mut ok = true;
    for (name, check, noun) in ARTIFACTS {
        let path = dir.join(name);
        if !path.is_file() {
            continue;
        }
        found += 1;
        match std::fs::read(&path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|b| check(&b))
        {
            Ok(n) => println!("validate-obs: {n} {noun} ok in {}", path.display()),
            Err(e) => {
                eprintln!("validate-obs: {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if found == 0 {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _, _)| *name).collect();
        eprintln!(
            "validate-obs: no artifacts found in {}; expected any of {}",
            dir.display(),
            names.join(", ")
        );
    }
    ok && found > 0
}
