//! The two kinds of run. The untraced run repeats the set-up, then times
//! a build loop and a query loop, and yields the end-to-end metrics. The
//! traced run does the same passes under an enabled tracer, alternating
//! with untraced ones, runs the per-layer probes, and reduces the span
//! tree to the per-layer metrics.

use crate::calibrate::Calibrator;
use crate::layers::{self, Probes};
use crate::metrics::Metrics;
use crate::mix::Mix;
use crate::pipeline::{Pipeline, CLUSTER, TIGER, UNIFORM};
use crate::spans::Trace;
use crate::stats::{median, median_noise_pct, tail};
use crate::workload::{mean_fit_pct, Params, Scope, Workload, NAMES};
use sjcm::obs::{SpanRecord, Tracer};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of a traced run's seconds spent on passes; probes get the rest.
const TRACED_PASS_SHARE: f64 = 0.3;
/// Probes that repeat under a time box (see `layers`): the box is the
/// probes' seconds divided by this.
const TIMED_PROBES: f64 = 45.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Seconds to measure for; ignored under `smoke`.
    pub seconds: f64,
    pub trace: bool,
    /// 1/20 scale, two build and ten query passes, every verification.
    pub smoke: bool,
    pub threads: usize,
    pub cores: usize,
    /// `benchmark/out`: scratch files and the trace land here.
    pub out: PathBuf,
}

/// A run's result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// What failed, for the log.
    pub errors: Vec<String>,
    /// What an untraced run knows about its own numbers (pass counts, the
    /// percentile the tail was read at, how far each median can be
    /// trusted, the machine's slow-down): printed as `# note` lines and
    /// kept in result files, where `compare` reads the noise.
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    fn fail(&mut self, what: &str, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// This process's scratch directory for `cfg`'s workload.
fn scratch_dir(cfg: &Config) -> PathBuf {
    cfg.out
        .join(format!("{}-{}", cfg.workload, std::process::id()))
}

fn make(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    let dir = scratch_dir(cfg);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let params = Params {
        seed: cfg.seed,
        scale: if cfg.smoke { 0.05 } else { 1.0 },
        threads: cfg.threads,
        dir,
    };
    Ok(match NAMES.iter().position(|n| *n == cfg.workload) {
        Some(0) => Box::new(Pipeline::new(UNIFORM, params)),
        Some(1) => Box::new(Pipeline::new(CLUSTER, params)),
        Some(2) => Box::new(Pipeline::new(TIGER, params)),
        Some(3) => Box::new(Mix::new(params)),
        _ => return Err(format!("unknown workload {}", cfg.workload)),
    })
}

fn remove_scratch(cfg: &Config, mut w: Box<dyn Workload>) {
    w.clean_up();
    let _ = std::fs::remove_dir(scratch_dir(cfg));
}

/// How long a loop runs.
#[derive(Clone, Copy)]
enum Budget {
    /// At least `min` passes and until this many seconds have passed.
    Seconds(f64, usize),
    Passes(usize),
}

/// Runs `pass` under `budget`; returns each pass's calibrated wall time
/// in ms (see `calibrate`).
fn timed_loop(
    budget: Budget,
    out: &mut Outcome,
    calibrator: &mut Calibrator,
    what: &str,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let done = match budget {
            Budget::Seconds(s, min) => samples.len() >= min && start.elapsed().as_secs_f64() >= s,
            Budget::Passes(n) => samples.len() >= n,
        };
        if done {
            return samples;
        }
        let (result, ms) = calibrator.time(&mut pass);
        samples.push(ms);
        out.attempted += 1;
        if let Err(e) = result {
            out.fail(what, e);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics only.
pub fn end_to_end(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::disabled();
    let root = tracer.span("run");
    let scope = Scope {
        tracer: &tracer,
        span: &root,
    };

    let mut calibrator = Calibrator::new();
    // Set-up, several times over; the last one's state is kept.
    let repeats = if cfg.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        let mut w = make(cfg)?;
        let (result, ms) = calibrator.time(|| w.set_up(&scope));
        setups.push(ms / 1e3);
        out.attempted += 1;
        if let Err(e) = result {
            // Nothing to verify the timed passes against.
            out.fail("set-up", e);
            remove_scratch(cfg, w);
            return Ok(out);
        }
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");

    let (build_budget, query_budget) = if cfg.smoke {
        (Budget::Passes(2), Budget::Passes(10))
    } else {
        (
            Budget::Seconds(cfg.seconds * w.build_share(), 3),
            Budget::Seconds(cfg.seconds * (1.0 - w.build_share()), 20),
        )
    };
    let build = timed_loop(
        build_budget,
        &mut out,
        &mut calibrator,
        "build pass",
        || w.build_pass(&scope),
    );
    let query = timed_loop(
        query_budget,
        &mut out,
        &mut calibrator,
        "query pass",
        || w.query_pass(&scope, false),
    );

    let (p95, percentile) = tail(&query);
    for (name, value) in [
        ("passes_build", build.len() as f64),
        ("passes_query", query.len() as f64),
        ("tail_percentile", percentile),
        ("noise_pct.build_ms", median_noise_pct(&build)),
        ("noise_pct.query_ms_p50", median_noise_pct(&query)),
        ("machine_slowdown", calibrator.median_slowdown()),
    ] {
        out.notes.push((name.to_string(), value));
    }
    let facts = w.facts().clone();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("build_ms", median(&build));
    m.set("query_ms_p50", median(&query));
    m.set("query_ms_p95", p95);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set(
        "disk_bytes_per_object",
        facts.disk_bytes as f64 / facts.objects as f64,
    );
    m.set("na_model_fit_pct", mean_fit_pct(&facts.na));
    m.set("da_model_fit_pct", mean_fit_pct(&facts.da));
    remove_scratch(cfg, w);
    Ok(out)
}

/// Runs passes in pairs until `budget` is spent: the same pass once
/// untraced and once traced, the traced one first in every other pair so
/// that neither side always runs warm. Each pass sits under a span on the
/// enabled tracer; an untraced pass hands the workload a disabled one, so
/// it opens no spans of its own. `pass` is told when to repeat its
/// previous query instead of drawing the next.
fn alternating_passes(
    budget: Budget,
    out: &mut Outcome,
    calibrator: &mut Calibrator,
    traced: &Scope,
    kind: &str,
    mut pass: impl FnMut(&Scope, bool) -> Result<(), String>,
) {
    let quiet = Tracer::disabled();
    let mut n = 0;
    timed_loop(budget, out, calibrator, kind, || {
        let (pair, second) = (n / 2, n % 2 == 1);
        n += 1;
        if second == (pair % 2 == 0) {
            traced.nested(kind, |scope| pass(scope, second))
        } else {
            let _outer = traced.span.child(&format!("untraced-{kind}"));
            let dead = quiet.span(kind);
            pass(
                &Scope {
                    tracer: &quiet,
                    span: &dead,
                },
                second,
            )
        }
    });
}

/// The layer of a stage span: its name up to the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Where the traced passes' wall time went, layer by layer, as shares
/// of each loop's total; the harness's own share is the passes' self
/// time (verification and dropping a pass's data). Also the generator's
/// time per build pass, the tracing overhead and the noise of the
/// untraced passes run in between.
fn reduce_passes(t: &Trace, m: &mut Metrics) {
    let (mut staged_us, mut passes_us) = (0u64, 0u64);
    for (kind, layers) in [
        (
            "build",
            &["datagen", "geom", "core", "rtree", "optimizer"][..],
        ),
        ("query", &["rtree", "core", "optimizer", "join", "exec"][..]),
    ] {
        let passes = t.named(&format!("{kind}-pass"));
        let total_us: u64 = passes.iter().map(|p| p.dur_us).sum();
        let share = |us: u64| 100.0 * us as f64 / total_us.max(1) as f64;
        let stages: Vec<&SpanRecord> = passes.iter().flat_map(|p| t.children_of(p.id)).collect();
        for layer in layers {
            let us = stages
                .iter()
                .filter(|c| layer_of(&c.name) == *layer)
                .map(|c| c.dur_us)
                .sum();
            m.set(&format!("pass.{kind}.{layer}_pct"), share(us));
        }
        let own_us: u64 = passes.iter().map(|p| t.self_us(p)).sum();
        m.set(&format!("pass.{kind}.harness_pct"), share(own_us));
        passes_us += total_us;
        staged_us += total_us - own_us;

        let untraced = t.durations_ms(&format!("untraced-{kind}-pass"));
        if kind == "query" {
            let (on, off) = (median(&t.durations_ms("query-pass")), median(&untraced));
            m.set("bench.trace_overhead_pct", 100.0 * (on - off) / off);
            m.set("bench.tail_percentile", tail(&untraced).1);
        }
        let noise_of = if kind == "build" {
            "build_ms"
        } else {
            "query_ms_p50"
        };
        m.set(
            &format!("bench.noise_pct.{noise_of}"),
            median_noise_pct(&untraced),
        );
        m.set(&format!("bench.passes_{kind}"), passes.len() as f64);
    }
    let generate: Vec<f64> = t
        .named("build-pass")
        .iter()
        .flat_map(|p| t.children_of(p.id))
        .filter(|c| c.name == "datagen.generate")
        .map(|c| c.dur_us as f64 / 1e3)
        .collect();
    m.set("datagen.generate_ms", median(&generate));
    m.set(
        "bench.stage_coverage_pct",
        100.0 * staged_us as f64 / passes_us.max(1) as f64,
    );
}

/// The traced run: per-layer metrics only.
pub fn traced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::enabled();
    let root = tracer.span("run");
    let root_id = root.id().expect("enabled tracer");
    let scope = Scope {
        tracer: &tracer,
        span: &root,
    };
    {
        let mut facts = root.child("probe.bench.facts");
        facts.set("threads", cfg.threads);
        facts.set("cores", cfg.cores);
    }

    let mut w = make(cfg)?;
    out.attempted += 1;
    if let Err(e) = scope.nested("setup", |scope| w.set_up(scope)) {
        out.fail("set-up", e);
        remove_scratch(cfg, w);
        return Ok(out);
    }

    let mut calibrator = Calibrator::new();
    let pass_s = cfg.seconds * TRACED_PASS_SHARE;
    let (build_budget, query_budget, box_s) = if cfg.smoke {
        (Budget::Passes(4), Budget::Passes(10), 0.0)
    } else {
        (
            Budget::Seconds(pass_s * w.build_share(), 2),
            Budget::Seconds(pass_s * (1.0 - w.build_share()), 20),
            (cfg.seconds - pass_s) / TIMED_PROBES,
        )
    };
    alternating_passes(
        build_budget,
        &mut out,
        &mut calibrator,
        &scope,
        "build-pass",
        |s, _| w.build_pass(s),
    );
    alternating_passes(
        query_budget,
        &mut out,
        &mut calibrator,
        &scope,
        "query-pass",
        |s, again| w.query_pass(s, again),
    );

    let probes_span = root.child("probes");
    w.with_layer_inputs(&mut |x| {
        layers::probe(
            &Probes {
                tracer: &tracer,
                parent: &probes_span,
                box_s,
            },
            x,
        )
    })?;
    drop(probes_span);
    drop(root);

    let trace_path = cfg.out.join(format!("{}.trace.jsonl", cfg.workload));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let t = Trace::new(tracer.records(), root_id);
    let m = &mut out.metrics;
    reduce_passes(&t, m);
    layers::reduce(&t, w.facts(), m);
    m.set("bench.cores", cfg.cores as f64);
    m.set("bench.machine_slowdown", calibrator.median_slowdown());

    let coverage = m.get("bench.stage_coverage_pct").unwrap_or(0.0);
    let (value, spread) = (
        m.get("obs.join_enabled_overhead_pct").unwrap_or(0.0),
        m.get("obs.join_enabled_overhead_spread_pct").unwrap_or(0.0),
    );
    if coverage < 95.0 {
        out.fail(
            "trace",
            format!("stage spans cover {coverage:.1} % of the traced passes, less than 95 %"),
        );
    }
    eprintln!(
        "{}: trace in {}; join.match_share_pct base: match ns x NA/2 node pairs over join.seq_nopairs_ms; \
         join.speedup_at_2 base: join.seq_ms over join.par2_cost_guided_ms at {} threads on {} cores; \
         obs.join_enabled_overhead_pct {value:.2} with spread {spread:.2}: {}",
        cfg.workload,
        trace_path.display(),
        cfg.threads,
        cfg.cores,
        if spread > value.abs() { "unresolved" } else { "resolved" },
    );
    remove_scratch(cfg, w);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Reference;

    #[test]
    fn a_wrong_reference_checksum_counts_as_failed_operations() {
        // What the passes "return" every time, and a reference that
        // disagrees with it in the checksum alone.
        let (pairs, checksum, na) = (120_087, 0xFEED_F00D, 46_004);
        let good = Reference {
            pairs,
            checksum,
            na,
        };
        let wrong = Reference {
            checksum: checksum ^ 1,
            ..good
        };
        let mut calibrator = Calibrator::new();

        let mut out = Outcome::default();
        let samples = timed_loop(
            Budget::Passes(5),
            &mut out,
            &mut calibrator,
            "query pass",
            || good.check(pairs, checksum, na),
        );
        assert_eq!((samples.len(), out.attempted, out.failed), (5, 5, 0));

        let mut out = Outcome::default();
        timed_loop(
            Budget::Passes(5),
            &mut out,
            &mut calibrator,
            "query pass",
            || wrong.check(pairs, checksum, na),
        );
        assert_eq!((out.attempted, out.failed), (5, 5));
        assert!(out.errors[0].contains("differs from the reference"));
    }

    #[test]
    fn a_time_box_still_runs_the_minimum_number_of_passes() {
        let mut out = Outcome::default();
        let samples = timed_loop(
            Budget::Seconds(0.0, 3),
            &mut out,
            &mut Calibrator::new(),
            "pass",
            || Ok(()),
        );
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|ms| *ms >= 0.0));
    }

    #[test]
    fn layers_are_read_off_stage_names() {
        assert_eq!(layer_of("rtree.bulk_load"), "rtree");
        assert_eq!(layer_of("join.run"), "join");
        assert_eq!(layer_of("worker"), "worker");
    }
}
