//! EXPLAIN ANALYZE integration tests: error attribution, the
//! stale-catalog calibration flip, and the `plan_analyze` JSONL
//! contract. The workload is the reduced-scale rivers × countries pair
//! shared with `tests/plan_execution.rs` (6K × 2K, fixed seeds).

use sjcm::exec::PlanExecutor;
use sjcm::explain::{validate_plan_analyze_jsonl, Attribution, Explainer};
use sjcm::geom::{density, Rect};
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, Planner};
use sjcm::prelude::*;

const RIVERS_N: usize = 6_000;
const COUNTRIES_N: usize = 2_000;

/// The selection window, 0.2 × 0.3 in the interior of the workspace:
/// past the INL/SJ hinge, so the true catalog pushes it into the SJ
/// traversal, while a catalog that understates `countries` 16× prices
/// one probe per selected country below that traversal. Interior,
/// because at 6K × 2K a leaf is 0.15 wide: a window in the corner of the
/// workspace selects exactly the border nodes whose Eq 6 neighbour count
/// is furthest from the average the model predicts.
const WINDOW: ([f64; 2], [f64; 2]) = ([0.3, 0.3], [0.5, 0.6]);

struct World {
    rivers: Vec<Rect<2>>,
    countries: Vec<Rect<2>>,
    t_rivers: RTree<2>,
    t_countries: RTree<2>,
}

fn build_tree(rects: &[Rect<2>]) -> RTree<2> {
    let mut tree = RTree::new(RTreeConfig::paper(2));
    for (i, r) in rects.iter().enumerate() {
        tree.insert(*r, ObjectId(i as u32));
    }
    tree
}

impl World {
    fn build() -> Self {
        let rivers = sjcm::datagen::uniform::generate::<2>(
            sjcm::datagen::uniform::UniformConfig::new(RIVERS_N, 0.3, 171),
        );
        let countries = sjcm::datagen::uniform::generate::<2>(
            sjcm::datagen::uniform::UniformConfig::new(COUNTRIES_N, 0.4, 172)
                .with_aspect_jitter(0.5),
        );
        let t_rivers = build_tree(&rivers);
        let t_countries = build_tree(&countries);
        Self {
            rivers,
            countries,
            t_rivers,
            t_countries,
        }
    }

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

    /// Countries cardinality understated 16× (statistics taken before
    /// the table grew) — the calibration target.
    fn stale_catalog(&self) -> Catalog<2> {
        let mut cat = self.true_catalog();
        cat.register(
            "countries",
            DatasetStats::new(
                self.countries.len() as u64 / 16,
                density(self.countries.iter()),
            ),
        );
        cat
    }

    fn explainer<'a>(&'a self, catalog: &'a Catalog<2>) -> Explainer<'a, 2> {
        Explainer::new(catalog)
            .bind("rivers", &self.t_rivers, &self.rivers)
            .bind("countries", &self.t_countries, &self.countries)
    }

    fn query(&self) -> JoinQuery<2> {
        JoinQuery::new(["rivers", "countries"])
            .with_selection("countries", Rect::new(WINDOW.0, WINDOW.1).unwrap())
    }
}

/// With an accurate catalog the chosen plan's gated operators carry no
/// catalog-dominated misattribution: the prior lands near the measured
/// cost and the per-node verdicts pass.
#[test]
fn accurate_catalog_attributes_cleanly() {
    let w = World::build();
    let catalog = w.true_catalog();
    let plan = Planner::new(&catalog).best_plan(&w.query()).unwrap();
    // Reduced scale: the same 0.40 envelope tests/plan_execution.rs
    // documents (the paper's ±15% claim is about full-size trees; CI
    // enforces it at scale 1.0 through `experiments explain`).
    let analysis = w
        .explainer(&catalog)
        .with_envelope(0.40)
        .analyze(&plan)
        .unwrap();
    assert!(analysis.all_within(), "verdicts:\n{analysis}");
    let gated: Vec<_> = analysis.nodes().into_iter().filter(|n| n.gated).collect();
    assert!(!gated.is_empty(), "no gated operators:\n{analysis}");
    for n in gated {
        assert!(
            n.attribution != Attribution::Catalog,
            "accurate catalog blamed for {}: cat {} vs model {}\n{analysis}",
            n.label,
            n.catalog_err,
            n.model_err
        );
        assert!(
            n.err < 0.40,
            "prior error {} out of envelope for {}",
            n.err,
            n.label
        );
    }
}

/// A 16×-understated cardinality shows up as a *catalog*-attributed miss
/// on the join operator (index nested loop: one probe per selected
/// country, of which there are 16× more than the catalog says): the prior is far from the measurement, but the
/// post-hoc re-estimate (measured parameters + measured N/D) recovers
/// most of the gap.
#[test]
fn stale_catalog_attributes_to_catalog() {
    let w = World::build();
    let stale = w.stale_catalog();
    let plan = Planner::new(&stale).best_plan(&w.query()).unwrap();
    let analysis = w.explainer(&stale).analyze(&plan).unwrap();
    let join = analysis
        .nodes()
        .into_iter()
        .find(|n| n.label.starts_with("Join"))
        .expect("join operator");
    assert!(join.gated, "join carries the plan's I/O mass");
    assert_eq!(
        join.attribution,
        Attribution::Catalog,
        "expected a catalog-attributed miss:\n{analysis}"
    );
    assert!(
        join.catalog_err > join.model_err,
        "catalog share {} should dominate the residual {}:\n{analysis}",
        join.catalog_err,
        join.model_err
    );
    // The stale prior is way off; the re-estimate is not.
    assert!(join.err > 0.4, "stale prior error {} too small", join.err);
}

/// The acceptance scenario: calibrating a 16×-mis-registered catalog
/// from measured statistics flips re-planning onto the plan that also
/// measures cheapest, and the corrected catalog round-trips through
/// disk persistence.
#[test]
fn calibration_flips_to_measured_cheapest_plan() {
    let w = World::build();
    let stale = w.stale_catalog();
    let query = w.query();
    let stale_plan = Planner::new(&stale).best_plan(&query).unwrap();
    let explainer = w.explainer(&stale);
    let stale_analysis = explainer.analyze(&stale_plan).unwrap();

    // Calibrate: measured (N, D) written back, persisted, reloaded.
    let calibrated = explainer.calibrated();
    let dir = std::env::temp_dir().join(format!("sjcm_explain_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.json");
    calibrated.save(&path).unwrap();
    let reloaded = Catalog::<2>::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stats = reloaded.get("countries").unwrap();
    assert_eq!(stats.profile.cardinality, COUNTRIES_N as u64);
    assert!((stats.profile.density - density(w.countries.iter())).abs() < 1e-9);

    let calibrated_plan = Planner::new(&reloaded).best_plan(&query).unwrap();
    assert_ne!(
        stale_plan.root, calibrated_plan.root,
        "the corrected statistics should change the chosen plan"
    );
    let calibrated_analysis = w.explainer(&reloaded).analyze(&calibrated_plan).unwrap();
    assert!(
        calibrated_analysis.measured_cost_io < stale_analysis.measured_cost_io,
        "calibrated plan measured {} io, stale plan {} io",
        calibrated_analysis.measured_cost_io,
        stale_analysis.measured_cost_io
    );
    // Same answer either way.
    assert_eq!(calibrated_analysis.rows, stale_analysis.rows);
}

/// `plan_analyze` JSONL: every line parses, the schema and key set are
/// stable, sequence numbers are contiguous, and the counters are
/// internally consistent.
#[test]
fn jsonl_artifact_shape() {
    let w = World::build();
    let catalog = w.true_catalog();
    let plan = Planner::new(&catalog).best_plan(&w.query()).unwrap();
    let analysis = w
        .explainer(&catalog)
        .with_envelope(0.40)
        .analyze(&plan)
        .unwrap();
    let jsonl = analysis.to_jsonl();
    assert_eq!(
        validate_plan_analyze_jsonl(&jsonl),
        Ok(analysis.nodes().len())
    );
}

/// `Explainer::analyze` must not change what the plan computes: the
/// instrumented run returns the same row count and cost as the plain
/// executor.
#[test]
fn analysis_matches_plain_execution() {
    let w = World::build();
    let catalog = w.true_catalog();
    let plan = Planner::new(&catalog).best_plan(&w.query()).unwrap();
    let analysis = w.explainer(&catalog).analyze(&plan).unwrap();
    let out = PlanExecutor::new()
        .bind("rivers", &w.t_rivers, &w.rivers)
        .bind("countries", &w.t_countries, &w.countries)
        .run(&plan)
        .unwrap();
    assert_eq!(analysis.rows, out.rows.len() as u64);
    assert_eq!(analysis.na, out.na);
    assert_eq!(analysis.da, out.da);
    assert_eq!(analysis.measured_cost_io, out.cost_io);
}
