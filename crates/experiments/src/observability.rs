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

use crate::common::{build_tree, RunOpts, DEFAULT_DENSITY};
use crate::report::{int, pct, Report};
use sjcm_core::join;
use sjcm_datagen::uniform::{generate as uniform, UniformConfig};
use sjcm_join::{
    measured_params, BufferPolicy, Governor, GovernorConfig, JoinConfig, JoinObs, JoinSession,
    Scheduler,
};
use sjcm_obs::{
    json, validate_progress_jsonl, DriftMonitor, LevelPrior, MetricsRegistry, ProgressEngine,
    ProgressSnapshot, ProgressTracker, Tracer, PAPER_ENVELOPE,
};
use sjcm_storage::{AccessTrace, FlightRecorder, RecordedPolicy};
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
    // but get no envelope target: a root-adjacent level of a few hundred accesses is a
    // small-denominator cell where ±a few node pairs reads as tens of
    // percent, and the paper's ~15% claim is about levels with mass.
    const MASS_FLOOR: f64 = 0.03;
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
            let path = dir.join(sjcm_obs::GOVERNOR_EVENTS_FILE);
            match std::fs::write(&path, &jsonl) {
                Ok(()) => println!("[governor] {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    };
    let degraded = match degraded {
        Ok(d) => d,
        Err(e) => {
            if let Some(dir) = obs_dir {
                if std::fs::create_dir_all(dir).is_ok() {
                    write_governor_events(dir);
                }
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

    // Feed the registry: access stats, buffer counters, steal tallies.
    for (name, value) in result.drift_observations() {
        metrics.counter_add(&format!("join.{name}"), value as u64);
    }
    for (tree, b, s) in [
        (1, &result.buffers1, &result.stats1),
        (2, &result.buffers2, &result.stats2),
    ] {
        metrics.counter_add(&format!("buffer.r{tree}.hits"), b.hits);
        metrics.counter_add(&format!("buffer.r{tree}.misses"), b.misses);
        metrics.counter_add(&format!("buffer.r{tree}.evictions"), b.evictions);
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
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        } else {
            let trace_path = dir.join(TRACE_FILE);
            match tracer.write_jsonl(&trace_path) {
                Ok(()) => println!("[trace] {}", trace_path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", trace_path.display()),
            }
            // A deadline-degraded run legitimately undershoots the Eq
            // 6/8–12 predictions, so its drift gauges would (rightly)
            // fail `validate-obs`'s envelope contract: withhold the
            // metrics file instead of writing a known-bad artifact.
            if exact {
                let metrics_path = dir.join(METRICS_FILE);
                match metrics.write_jsonl(&metrics_path) {
                    Ok(()) => println!("[metrics] {}", metrics_path.display()),
                    Err(e) => eprintln!("warning: cannot write {}: {e}", metrics_path.display()),
                }
            } else {
                println!("[metrics] withheld: degraded run breaches the drift contract");
            }
            write_governor_events(dir);
            // The binary page-access trace: the join ran under the
            // path-buffer policy, and the header carries the Eq 7/11
            // and 10/12 totals so `trace replay` can draw its what-if
            // curve against the model. A trace with no events has
            // nothing to replay, and `validate-obs` rejects it.
            let access = recorder.into_trace(RecordedPolicy::Path, na_pred, da_pred);
            let access_path = dir.join(crate::trace::ACCESS_TRACE_FILE);
            if access.events.is_empty() {
                println!("[access-trace] withheld: the recorder captured no access");
            } else {
                match access.write(&access_path) {
                    Ok(()) => println!(
                        "[access-trace] {} ({} events, {} dropped)",
                        access_path.display(),
                        access.events.len(),
                        access.dropped
                    ),
                    Err(e) => eprintln!("warning: cannot write {}: {e}", access_path.display()),
                }
            }
            let progress_path = dir.join(PROGRESS_FILE);
            let jsonl: String = snapshots.iter().map(|s| s.to_json() + "\n").collect();
            match std::fs::write(&progress_path, &jsonl) {
                Ok(()) => println!(
                    "[progress] {} ({} snapshots)",
                    progress_path.display(),
                    snapshots.len()
                ),
                Err(e) => eprintln!("warning: cannot write {}: {e}", progress_path.display()),
            }
        }
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

/// The `validate-obs` command: checks every artifact present in
/// `--obs-dir` — the span and metrics JSONL files (every line parses,
/// the required keys are present, the recorded drift stayed inside the
/// envelope: `drift.*` gauges ≤ `drift.envelope` and the
/// `drift.breaches` counter is 0), the chaos campaigns' metrics file
/// under the same contract, the binary page-access trace
/// (magic/version/size/tick-monotonicity via [`AccessTrace::read`],
/// plus a truncation check on the ring-drop counter), the progress
/// snapshot stream (monotone time and fraction, finishing at exactly
/// 1.0, via [`validate_progress_jsonl`]), the `explain` command's
/// per-operator plan analysis (`plan_analyze.jsonl`: schema'd lines,
/// DA ≤ NA, no gated operator breaching the envelope), the
/// calibrated `catalog.json` (round-trips through the optimizer's
/// parser with at least one dataset), and the governor's decision log
/// (`governor_events.jsonl`: schema'd lines, known kinds, monotone
/// time, ending on a terminal decision, via
/// [`sjcm_obs::validate_governor_jsonl`]). Returns `false` (with
/// diagnostics on stderr) on any violation, including an obs dir with
/// nothing to validate.
pub fn validate_obs(dir: &Path) -> bool {
    let ok = std::cell::Cell::new(true);
    let fail = |msg: String| {
        eprintln!("validate-obs: {msg}");
        ok.set(false);
    };
    let present = |name: &str| {
        let p = dir.join(name);
        p.is_file().then_some(p)
    };
    let trace = present(TRACE_FILE);
    let metrics = present(METRICS_FILE);
    let chaos_metrics = present(crate::chaos::CHAOS_METRICS_FILE);
    let access = present(crate::trace::ACCESS_TRACE_FILE);
    let progress = present(PROGRESS_FILE);
    let plan_analyze = present(crate::explain::PLAN_ANALYZE_FILE);
    let catalog = present(crate::explain::CATALOG_FILE);
    let governor_events = present(sjcm_obs::GOVERNOR_EVENTS_FILE);
    if [
        &trace,
        &metrics,
        &chaos_metrics,
        &access,
        &progress,
        &plan_analyze,
        &catalog,
        &governor_events,
    ]
    .iter()
    .all(|a| a.is_none())
    {
        fail(format!(
            "no artifacts found in {}; expected any of {TRACE_FILE}, \
             {METRICS_FILE}, {}, {}, {PROGRESS_FILE}, {}, {}, {}",
            dir.display(),
            crate::chaos::CHAOS_METRICS_FILE,
            crate::trace::ACCESS_TRACE_FILE,
            crate::explain::PLAN_ANALYZE_FILE,
            crate::explain::CATALOG_FILE,
            sjcm_obs::GOVERNOR_EVENTS_FILE
        ));
        return false;
    }

    if let Some(path) = &trace {
        match std::fs::read_to_string(path) {
            Err(e) => fail(format!("cannot read {}: {e}", path.display())),
            Ok(text) => {
                let mut spans = 0usize;
                for (lineno, line) in text.lines().enumerate() {
                    let v = match json::parse(line) {
                        Ok(v) => v,
                        Err(e) => {
                            fail(format!("{}:{}: {e}", path.display(), lineno + 1));
                            continue;
                        }
                    };
                    for key in [
                        "type", "id", "parent", "name", "start_us", "dur_us", "fields",
                    ] {
                        if v.get(key).is_none() {
                            fail(format!(
                                "{}:{}: span line missing key {key}",
                                path.display(),
                                lineno + 1
                            ));
                        }
                    }
                    spans += 1;
                }
                if spans == 0 {
                    fail(format!("{}: no spans recorded", path.display()));
                } else {
                    println!("validate-obs: {} spans ok in {}", spans, path.display());
                }
            }
        }
    }

    if let Some(path) = &metrics {
        check_metrics_file(path, &fail);
    }
    if let Some(path) = &chaos_metrics {
        check_metrics_file(path, &fail);
    }

    if let Some(path) = &access {
        // AccessTrace::read already rejects bad magic/version/padding,
        // truncated or oversized byte counts, invalid event encodings
        // and non-monotonic ticks; on top of that an artifact whose
        // rings overwrote events is not replayable and fails here.
        match AccessTrace::read(path) {
            Err(e) => fail(format!("{}: {e}", path.display())),
            Ok(t) if t.dropped > 0 => fail(format!(
                "{}: truncated trace ({} events overwritten by the ring)",
                path.display(),
                t.dropped
            )),
            Ok(t) if t.events.is_empty() => {
                fail(format!("{}: trace holds no events", path.display()))
            }
            Ok(t) => println!(
                "validate-obs: {} access events ok in {}",
                t.events.len(),
                path.display()
            ),
        }
    }

    // The plan-analysis stream: every line parses with the
    // sjcm.plan_analyze.v1 schema, counters are internally consistent
    // (DA never exceeds NA), and no gated operator's residual model
    // error breached the envelope (`within` is true or null — staleness
    // demos legitimately record catalog-attributed misses, but a
    // *model* breach fails the artifact).
    if let Some(path) = &plan_analyze {
        check_plan_analyze_file(path, &fail);
    }

    // The calibrated catalog round-trips through the optimizer's own
    // parser, which enforces dimensionality and entry shape.
    if let Some(path) = &catalog {
        match sjcm::optimizer::Catalog::<2>::load(path) {
            Err(e) => fail(format!("{}: {e}", path.display())),
            Ok(c) => {
                let n = c.iter().count();
                if n == 0 {
                    fail(format!("{}: catalog holds no datasets", path.display()));
                } else {
                    println!(
                        "validate-obs: {} catalog entries ok in {}",
                        n,
                        path.display()
                    );
                }
            }
        }
    }

    // The governor's decision log: every line parses with the
    // sjcm.governor.v1 schema, kinds are known, time is monotone, and
    // the log ends on a terminal decision (finish/reject) — a
    // log that just stops mid-run is a crashed governor, not a record.
    if let Some(path) = &governor_events {
        match std::fs::read_to_string(path) {
            Err(e) => fail(format!("cannot read {}: {e}", path.display())),
            Ok(text) => match sjcm_obs::validate_governor_jsonl(&text) {
                Err(e) => fail(format!("{}: {e}", path.display())),
                Ok(lines) => println!(
                    "validate-obs: {} governor events ok in {}",
                    lines,
                    path.display()
                ),
            },
        }
    }

    // The progress stream's contract lives in the obs crate: every line
    // parses with the snapshot keys, time and fraction are monotone,
    // and the stream ends finished with fraction exactly 1.0.
    if let Some(path) = &progress {
        match std::fs::read_to_string(path) {
            Err(e) => fail(format!("cannot read {}: {e}", path.display())),
            Ok(text) => match validate_progress_jsonl(&text) {
                Err(e) => fail(format!("{}: {e}", path.display())),
                Ok(lines) => println!(
                    "validate-obs: {} progress snapshots ok in {}",
                    lines,
                    path.display()
                ),
            },
        }
    }
    ok.get()
}

/// Validates one metrics-JSONL artifact — shared by the join command's
/// metrics file and the chaos campaigns' (both follow the same
/// contract): every line parses with the type/name/value shape, each
/// `drift.*` gauge stays inside the published `drift.envelope`, and the
/// `drift.breaches` counter is zero.
/// Validates the `explain` command's `plan_analyze.jsonl`: every line
/// parses with the `sjcm.plan_analyze.v1` schema and its required keys,
/// per-operator DA never exceeds NA, sequence numbers are contiguous
/// from zero, and `"within"` is never `false` — a gated operator whose
/// residual model error breached the envelope fails the artifact
/// (catalog-attributed misses are legal: they are what `--calibrate`
/// exists to demonstrate).
fn check_plan_analyze_file(path: &Path, fail: &dyn Fn(String)) {
    let text = match std::fs::read_to_string(path) {
        Err(e) => return fail(format!("cannot read {}: {e}", path.display())),
        Ok(t) => t,
    };
    let mut lines = 0usize;
    let mut ok = true;
    for (lineno, line) in text.lines().enumerate() {
        let mut line_fail = |msg: String| {
            fail(format!("{}:{}: {msg}", path.display(), lineno + 1));
            ok = false;
        };
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                line_fail(e.to_string());
                continue;
            }
        };
        match v.get("schema").and_then(|s| s.as_str()) {
            Some("sjcm.plan_analyze.v1") => {}
            other => line_fail(format!(
                "unexpected schema {:?} (want sjcm.plan_analyze.v1)",
                other.unwrap_or("<missing>")
            )),
        }
        for key in [
            "seq",
            "op",
            "path",
            "est_cost",
            "reest_cost",
            "est_rows",
            "na",
            "da",
            "cost_io",
            "rows",
            "wall_us",
            "err",
            "catalog_err",
            "model_err",
            "attribution",
            "gated",
            "within",
            "envelope",
        ] {
            if v.get(key).is_none() {
                line_fail(format!("plan line missing key {key}"));
            }
        }
        let num = |key: &str| v.get(key).and_then(|x| x.as_f64());
        if let (Some(na), Some(da)) = (num("na"), num("da")) {
            if da > na {
                line_fail(format!("da {da} exceeds na {na}"));
            }
        }
        if num("seq") != Some(lines as f64) {
            line_fail(format!("non-contiguous seq (expected {lines})"));
        }
        if v.get("within").and_then(|w| w.as_bool()) == Some(false) {
            line_fail(format!(
                "operator {} breached the envelope (within = false)",
                v.get("op").and_then(|o| o.as_str()).unwrap_or("?")
            ));
        }
        lines += 1;
    }
    if lines == 0 {
        fail(format!("{}: no plan operators recorded", path.display()));
        ok = false;
    }
    if ok {
        println!(
            "validate-obs: {} plan operators ok in {}",
            lines,
            path.display()
        );
    }
}

fn check_metrics_file(path: &Path, fail: &dyn Fn(String)) {
    let text = match std::fs::read_to_string(path) {
        Err(e) => return fail(format!("cannot read {}: {e}", path.display())),
        Ok(t) => t,
    };
    let file_ok = std::cell::Cell::new(true);
    let fail = |msg: String| {
        file_ok.set(false);
        fail(msg);
    };
    let mut lines = 0usize;
    let mut envelope = None;
    let mut drift_gauges: Vec<(String, Option<f64>)> = Vec::new();
    let mut breaches = None;
    for (lineno, line) in text.lines().enumerate() {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                fail(format!("{}:{}: {e}", path.display(), lineno + 1));
                continue;
            }
        };
        lines += 1;
        let kind = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
        let name = v.get("name").and_then(|n| n.as_str()).unwrap_or("");
        if name.is_empty() || kind.is_empty() {
            fail(format!(
                "{}:{}: metric line missing type/name",
                path.display(),
                lineno + 1
            ));
            continue;
        }
        match kind {
            "counter" | "gauge" => {
                if v.get("value").is_none() {
                    fail(format!(
                        "{}:{}: {kind} missing value",
                        path.display(),
                        lineno + 1
                    ));
                }
            }
            "histogram" => {
                let bounds = v.get("bounds").and_then(|b| b.as_arr());
                let counts = v.get("counts").and_then(|c| c.as_arr());
                match (bounds, counts) {
                    (Some(b), Some(c)) if c.len() == b.len() + 1 => {}
                    _ => fail(format!(
                        "{}:{}: malformed histogram",
                        path.display(),
                        lineno + 1
                    )),
                }
            }
            other => fail(format!(
                "{}:{}: unknown metric type {other}",
                path.display(),
                lineno + 1
            )),
        }
        let value = v.get("value").and_then(|x| x.as_f64());
        if kind == "gauge" && name == "drift.envelope" {
            envelope = value;
        } else if kind == "gauge" && name.starts_with("drift.") {
            drift_gauges.push((name.to_string(), value));
        } else if kind == "counter" && name == "drift.breaches" {
            breaches = value;
        }
    }
    if lines == 0 {
        fail(format!("{}: no metrics recorded", path.display()));
    }
    let env = envelope.unwrap_or(PAPER_ENVELOPE);
    if envelope.is_none() {
        fail(format!("{}: drift.envelope gauge missing", path.display()));
    }
    if drift_gauges.is_empty() {
        fail(format!("{}: no drift.* gauges recorded", path.display()));
    }
    for (name, err) in &drift_gauges {
        match err {
            Some(e) if *e <= env => {}
            Some(e) => fail(format!(
                "{name} = {:.1}% exceeds the {:.1}% envelope",
                e * 100.0,
                env * 100.0
            )),
            None => fail(format!("{name} is null (non-finite relative error)")),
        }
    }
    match breaches {
        Some(0.0) => {}
        Some(b) => fail(format!("drift.breaches = {b}, expected 0")),
        None => fail(format!(
            "{}: drift.breaches counter missing",
            path.display()
        )),
    }
    if file_ok.get() {
        println!(
            "validate-obs: {} metric lines ok in {} ({} drift gauges within {:.0}%)",
            lines,
            path.display(),
            drift_gauges.len(),
            env * 100.0
        );
    }
}
