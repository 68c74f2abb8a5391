//! The `explain` command: EXPLAIN ANALYZE over the optimizer's chosen
//! plan for a fixed-seed two-dataset join query, and the `--calibrate`
//! mode that writes measured statistics back into a persisted catalog.
//!
//! `explain` builds the 60K·scale `rivers` × 20K·scale `countries`
//! workload (the cardinality ratio of the paper's unequal-size
//! experiments), registers both sets in a catalog with their measured
//! `(N, D)`, lets the [`Planner`] pick the cheapest plan for a
//! selection-join query, executes it through the instrumented
//! [`Explainer`], and prints the annotated plan tree — per operator the
//! prior estimate, the post-hoc re-estimate on measured tree
//! parameters, the measured NA/DA/rows/wall-time, and the
//! catalog-vs-model error attribution. With `--obs-dir` the same
//! analysis is persisted as the `plan_analyze.jsonl` artifact that
//! `validate-obs` checks.
//!
//! `--calibrate` starts instead from a deliberately mis-registered
//! catalog (`countries` registered at a sixteenth of its cardinality —
//! the classic stale-statistics failure: the table grew since it was
//! analyzed), shows that the planner now picks an index-nested-loop
//! plan whose per-operator analysis flags the miss as
//! *catalog*-attributed, then writes the measured `(N, D)` back through
//! [`Explainer::calibrated`], persists the corrected catalog as
//! `catalog.json`, reloads it from disk, and re-plans: the choice flips
//! to the windowed synchronized traversal that also measures cheapest.
//!
//! Where the INL/SJ hinge sits: a selection pushed below SJ restricts
//! the join's one traversal, priced per level at Eq 10/12 × Eq 1's
//! intersection probability, so SJ's cost shrinks with the window just
//! as the INL plan's does and INL only wins while the selected set is a
//! few dozen objects — windows under ~0.03 per side at 60K × 20K.
//! Overstating a cardinality no longer moves the choice across that
//! hinge (it flips SJ's role assignment at most); understating the
//! selected set's does, by making one probe per selected object look
//! cheap.

use crate::common::{rel_err, write_artifact, RunOpts};
use crate::report::{pct, Report};
use sjcm::explain::{AnalyzedPlan, Explainer};
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, PhysicalPlan, Planner};
use sjcm_datagen::uniform::{generate as uniform, UniformConfig};
use sjcm_geom::{density, Rect};
use sjcm_rtree::{ObjectId, RTree, RTreeConfig};
use std::path::Path;

/// Plan-analysis JSONL artifact name inside `--obs-dir`.
pub const PLAN_ANALYZE_FILE: &str = "plan_analyze.jsonl";
/// Calibrated-catalog artifact name inside `--obs-dir`.
pub const CATALOG_FILE: &str = "catalog.json";

/// Factor by which `--calibrate` understates the `countries`
/// cardinality before the calibration pass corrects it.
pub const MISREGISTRATION: f64 = 16.0;

/// A selection window as its `(lo, hi)` corners.
type Selection = ([f64; 2], [f64; 2]);

/// Selection window of the plain `explain` mode: a fifth of the
/// workspace, pushed into the synchronized traversal, so the plan's I/O
/// mass sits on the windowed-SJ operator whose composed Eq 10/12 × Eq 1
/// residual must stay inside the paper's ±15% envelope at full scale.
/// It sits in the corner of the workspace on purpose: that is where
/// Eq 1 as printed overcounts (half a node extent of its `s + q` falls
/// outside the workspace on each clipped side) and the position-aware
/// factor the estimator uses does not.
const EXPLAIN_SELECTION: Selection = ([0.0, 0.0], [0.4, 0.5]);

/// Selection window of the `--calibrate` mode, 0.1 × 0.1 in the
/// interior: past the INL/SJ hinge (see the module docs), so the true
/// catalog prices the windowed synchronized traversal below one probe
/// per selected country, while a 16×-understated `countries`
/// cardinality makes those probes look cheaper than the traversal —
/// and they measure several times dearer.
const CALIBRATE_SELECTION: Selection = ([0.3, 0.3], [0.4, 0.4]);

struct Workload {
    rivers: Vec<Rect<2>>,
    countries: Vec<Rect<2>>,
    t_rivers: RTree<2>,
    t_countries: RTree<2>,
}

impl Workload {
    /// Fixed-seed workload: uniform `rivers` (60K·scale, D 0.3) and
    /// aspect-jittered `countries` (20K·scale, D 0.4) — seeds shared
    /// with the facade's plan-execution tests.
    fn build(scale: f64) -> Self {
        let n_rivers = (60_000.0 * scale).round().max(600.0) as usize;
        let n_countries = (20_000.0 * scale).round().max(200.0) as usize;
        let rivers = uniform::<2>(UniformConfig::new(n_rivers, 0.3, 171));
        let countries =
            uniform::<2>(UniformConfig::new(n_countries, 0.4, 172).with_aspect_jitter(0.5));
        let build = |rects: &[Rect<2>]| {
            let mut t = RTree::new(RTreeConfig::paper(2));
            for (i, r) in rects.iter().enumerate() {
                t.insert(*r, ObjectId(i as u32));
            }
            t
        };
        let t_rivers = build(&rivers);
        let t_countries = build(&countries);
        Self {
            rivers,
            countries,
            t_rivers,
            t_countries,
        }
    }

    /// A catalog carrying the measured primitive properties.
    fn true_catalog(&self) -> Catalog<2> {
        let mut cat = Catalog::new();
        cat.register(
            "rivers",
            DatasetStats::new(self.rivers.len() as u64, density(self.rivers.iter())),
        );
        cat.register(
            "countries",
            DatasetStats::new(self.countries.len() as u64, density(self.countries.iter())),
        );
        cat
    }

    /// The stale catalog of the calibration demo: `countries`
    /// cardinality understated by [`MISREGISTRATION`].
    fn stale_catalog(&self) -> Catalog<2> {
        let mut cat = self.true_catalog();
        let n_bad = (self.countries.len() as f64 / MISREGISTRATION) as u64;
        cat.register(
            "countries",
            DatasetStats::new(n_bad, density(self.countries.iter())),
        );
        cat
    }

    fn explainer<'a>(&'a self, catalog: &'a Catalog<2>, threads: usize) -> Explainer<'a, 2> {
        Explainer::new(catalog)
            .bind("rivers", &self.t_rivers, &self.rivers)
            .bind("countries", &self.t_countries, &self.countries)
            .with_threads(threads)
    }

    fn query(&self, (lo, hi): Selection) -> JoinQuery<2> {
        let window = Rect::new(lo, hi).expect("valid selection window");
        JoinQuery::new(["rivers", "countries"]).with_selection("countries", window)
    }
}

/// Writes the per-operator analysis as a CSV report.
fn csv_report(out: &Path, name: &str, analysis: &AnalyzedPlan) {
    let mut table = Report::new(
        out,
        name,
        &[
            "seq",
            "op",
            "path",
            "est_io",
            "reest_io",
            "meas_io",
            "na",
            "da",
            "err",
            "catalog_err",
            "model_err",
            "est_rows",
            "rows",
            "attribution",
            "gated",
            "within",
        ],
    );
    table.comment(&format!(
        "per-operator predicted-vs-measured analysis; envelope = {:.0}% \
         on the residual model error of gated operators",
        analysis.envelope * 100.0
    ));
    for (seq, n) in analysis.nodes().iter().enumerate() {
        let path = n
            .path
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(".");
        table.row(&[
            &seq,
            &n.label,
            &path,
            &format!("{:.1}", n.estimate.own_cost),
            &format!("{:.1}", n.reestimate.own_cost),
            &n.measured.cost_io,
            &n.measured.na,
            &n.measured.da,
            &pct(n.err),
            &pct(n.catalog_err),
            &pct(n.model_err),
            &format!("{:.0}", n.estimate.cardinality),
            &n.measured.rows,
            &n.attribution.to_string(),
            &n.gated,
            &n.within.map(|b| b.to_string()).unwrap_or_default(),
        ]);
    }
    table.finish();
}

/// The plain `explain` command: analyze the optimizer's chosen plan
/// under the measured catalog. Returns `true` when every gated
/// operator's residual model error stayed inside the paper's envelope.
pub fn explain(opts: &RunOpts) -> bool {
    let (out, scale, threads) = (opts.out.as_path(), opts.scale, opts.threads);
    let obs_dir = opts.obs_dir();
    let w = Workload::build(scale);
    let catalog = w.true_catalog();
    let query = w.query(EXPLAIN_SELECTION);
    let plan = match Planner::new(&catalog).best_plan(&query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("explain: planning failed: {e}");
            return false;
        }
    };
    println!(
        "query: rivers({}) ⋈ countries({}) | window {:?}-{:?}",
        w.rivers.len(),
        w.countries.len(),
        EXPLAIN_SELECTION.0,
        EXPLAIN_SELECTION.1
    );
    println!("\n{plan}");
    let analysis = match w.explainer(&catalog, threads).analyze(&plan) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explain: execution failed: {e}");
            return false;
        }
    };
    println!("{analysis}");
    csv_report(out, "explain_plan", &analysis);
    if let Some(dir) = obs_dir {
        write_artifact(dir, PLAN_ANALYZE_FILE, "plan-analyze", |p| {
            std::fs::write(p, analysis.to_jsonl())
        });
    }
    let ok = analysis.all_within();
    if ok {
        println!(
            "explain: every gated operator within the {:.0}% envelope \
             (plan err {})",
            analysis.envelope * 100.0,
            pct(analysis.total_err())
        );
    } else {
        for n in analysis.nodes() {
            if n.within == Some(false) {
                eprintln!(
                    "explain BREACH: {} residual model error {} exceeds {:.0}%",
                    n.label,
                    pct(n.model_err),
                    analysis.envelope * 100.0
                );
            }
        }
    }
    ok
}

/// The `--calibrate` mode: stale catalog → catalog-attributed analysis
/// → measured stats written back and persisted → re-planning flips to
/// the plan that also measures cheapest. Returns `true` when the flip
/// happened and the calibrated plan measured no worse.
pub fn calibrate(opts: &RunOpts) -> bool {
    let (out, scale, threads) = (opts.out.as_path(), opts.scale, opts.threads);
    let obs_dir = opts.obs_dir();
    let w = Workload::build(scale);
    let stale = w.stale_catalog();
    let query = w.query(CALIBRATE_SELECTION);
    let n_true = w.countries.len() as u64;
    let n_stale = stale
        .get("countries")
        .map(|s| s.profile.cardinality)
        .unwrap_or(0);
    println!(
        "stale catalog: countries registered at N = {n_stale} \
         (measured {n_true}, {MISREGISTRATION}× understated)"
    );
    let stale_plan = match Planner::new(&stale).best_plan(&query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("explain --calibrate: planning failed: {e}");
            return false;
        }
    };
    println!("\n== plan under the stale catalog ==\n{stale_plan}");
    let explainer = w.explainer(&stale, threads);
    let stale_analysis = match explainer.analyze(&stale_plan) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explain --calibrate: execution failed: {e}");
            return false;
        }
    };
    println!("{stale_analysis}");
    csv_report(out, "explain_calibrate_stale", &stale_analysis);

    // Write the measured statistics back and persist the correction.
    let calibrated = explainer.calibrated();
    // Without --obs-dir the catalog lands next to the CSVs, in the
    // --out directory the stale-plan report above has just created.
    let dir = obs_dir.unwrap_or(out);
    if !write_artifact(dir, CATALOG_FILE, "catalog", |p| calibrated.save(p)) {
        return false;
    }
    let reloaded = match Catalog::load(&dir.join(CATALOG_FILE)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("explain --calibrate: catalog reload failed: {e}");
            return false;
        }
    };
    for (name, stats) in [("rivers", &w.rivers), ("countries", &w.countries)] {
        let s = reloaded.get(name).expect("calibrated catalog entry");
        println!(
            "[catalog] {name}: N {} → {} | D → {:.4}",
            if name == "countries" {
                n_stale
            } else {
                s.profile.cardinality
            },
            s.profile.cardinality,
            s.profile.density
        );
        debug_assert_eq!(s.profile.cardinality, stats.len() as u64);
    }

    let calibrated_plan = match Planner::new(&reloaded).best_plan(&query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("explain --calibrate: re-planning failed: {e}");
            return false;
        }
    };
    println!("\n== plan after calibration ==\n{calibrated_plan}");
    let calibrated_analysis = match w.explainer(&reloaded, threads).analyze(&calibrated_plan) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explain --calibrate: execution failed: {e}");
            return false;
        }
    };
    println!("{calibrated_analysis}");
    csv_report(out, "explain_calibrate_after", &calibrated_analysis);

    // Structurally: the rendered plans differ in their cost header alone.
    let flipped = stale_plan.root != calibrated_plan.root;
    let stale_io = stale_analysis.measured_cost_io;
    let calibrated_io = calibrated_analysis.measured_cost_io;
    println!(
        "\ncalibration: stale plan measured {stale_io} io | calibrated plan \
         measured {calibrated_io} io | plan {}",
        if flipped { "FLIPPED" } else { "unchanged" }
    );
    summarize_flip(&stale_plan, &calibrated_plan);
    let ok = flipped && calibrated_io <= stale_io;
    if !ok {
        eprintln!(
            "explain --calibrate: expected the calibrated catalog to flip \
             re-planning onto the measured-cheapest plan \
             (flipped = {flipped}, stale {stale_io} io vs calibrated {calibrated_io} io)"
        );
    }
    ok
}

/// One-line before/after digest: estimated vs measured rank agreement.
fn summarize_flip(stale: &PhysicalPlan<2>, calibrated: &PhysicalPlan<2>) {
    let algo = |p: &PhysicalPlan<2>| {
        let text = format!("{p}");
        ["SJ", "INL", "NL"]
            .iter()
            .find(|a| text.contains(&format!("Join[{a}]")))
            .copied()
            .unwrap_or("?")
    };
    println!(
        "calibration: join algorithm {} (est {:.0}) → {} (est {:.0}), \
         estimate shift {}",
        algo(stale),
        stale.total_cost,
        algo(calibrated),
        calibrated.total_cost,
        pct(rel_err(stale.total_cost, calibrated.total_cost)),
    );
}
