//! End-to-end optimizer → executor loop: the planner's chosen strategy
//! is executed for real, its result checked against brute force, and
//! its estimated cost checked against the measured page accesses —
//! dimensionally split into NA (logical node accesses) and DA (buffer
//! misses) per operator.

use sjcm::exec::{ExecError, PlanExecutor};
use sjcm::explain::Explainer;
use sjcm::geom::{density, Rect};
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, PhysicalPlan, PlanNode, Planner};
use sjcm::prelude::*;
use std::collections::BTreeSet;

struct World {
    rivers: Vec<Rect<2>>,
    countries: Vec<Rect<2>>,
    t_rivers: RTree<2>,
    t_countries: RTree<2>,
    catalog: Catalog<2>,
}

fn world() -> World {
    let rivers = sjcm::datagen::uniform::generate::<2>(sjcm::datagen::uniform::UniformConfig::new(
        6_000, 0.3, 171,
    ));
    let countries = sjcm::datagen::uniform::generate::<2>(
        sjcm::datagen::uniform::UniformConfig::new(2_000, 0.4, 172).with_aspect_jitter(0.5),
    );
    let build = |rects: &[Rect<2>]| {
        let mut t = RTree::new(RTreeConfig::paper(2));
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, ObjectId(i as u32));
        }
        t
    };
    let mut catalog = Catalog::new();
    catalog.register(
        "rivers",
        DatasetStats::new(rivers.len() as u64, density(rivers.iter())),
    );
    catalog.register(
        "countries",
        DatasetStats::new(countries.len() as u64, density(countries.iter())),
    );
    World {
        t_rivers: build(&rivers),
        t_countries: build(&countries),
        rivers,
        countries,
        catalog,
    }
}

fn executor(w: &World) -> PlanExecutor<'_, 2> {
    PlanExecutor::new()
        .bind("rivers", &w.t_rivers, &w.rivers)
        .bind("countries", &w.t_countries, &w.countries)
}

fn explainer(w: &World) -> Explainer<'_, 2> {
    Explainer::new(&w.catalog)
        .bind("rivers", &w.t_rivers, &w.rivers)
        .bind("countries", &w.t_countries, &w.countries)
}

/// Brute-force join count with optional windows on either side.
fn brute_pairs(w: &World, rivers_win: Option<&Rect<2>>, countries_win: Option<&Rect<2>>) -> usize {
    let mut count = 0;
    for r in &w.rivers {
        if let Some(win) = rivers_win {
            if !r.intersects(win) {
                continue;
            }
        }
        for c in &w.countries {
            if let Some(win) = countries_win {
                if !c.intersects(win) {
                    continue;
                }
            }
            if r.intersects(c) {
                count += 1;
            }
        }
    }
    count
}

#[test]
fn executed_best_plan_matches_brute_force() {
    let w = world();
    let plan = Planner::new(&w.catalog)
        .best_plan(&JoinQuery::new(["rivers", "countries"]))
        .unwrap();
    let out = executor(&w).run(&plan).unwrap();
    assert_eq!(out.rows.len(), brute_pairs(&w, None, None));
    assert_eq!(out.columns.len(), 2);
    assert!(out.columns.contains(&"rivers".to_string()));
    // Dimensionally honest counters: logical accesses bound misses.
    assert!(out.na > 0);
    assert!(out.da > 0);
    assert!(
        out.da <= out.na,
        "DA {} cannot exceed NA {}",
        out.da,
        out.na
    );
    // The SJ operator runs under the path buffer, so the model-
    // comparable I/O is its DA.
    assert_eq!(out.cost_io, out.da);
}

#[test]
fn executed_plan_with_selection_matches_brute_force() {
    let w = world();
    let west = Rect::new([0.0, 0.0], [0.4, 1.0]).unwrap();
    let q = JoinQuery::new(["rivers", "countries"]).with_selection("rivers", west);
    for plan in Planner::new(&w.catalog).enumerate(&q).unwrap() {
        let out = executor(&w).run(&plan).unwrap();
        assert_eq!(
            out.rows.len(),
            brute_pairs(&w, Some(&west), None),
            "plan disagreed with brute force:\n{plan}"
        );
    }
}

#[test]
fn every_enumerated_plan_returns_the_same_result() {
    let w = world();
    let q = JoinQuery::new(["rivers", "countries"]);
    let plans = Planner::new(&w.catalog).enumerate(&q).unwrap();
    assert!(plans.len() >= 2);
    let expected = brute_pairs(&w, None, None);
    for plan in &plans {
        let out = executor(&w).run(plan).unwrap();
        assert_eq!(out.rows.len(), expected, "{plan}");
    }
}

/// Satellite coverage: every plan shape the planner enumerates for one-
/// and two-dataset queries — both SJ role assignments, all three join
/// algorithms, every selection placement (pushed below SJ/INL, filtered
/// above, both sides) — executes, agrees with brute force, and its
/// per-operator measured NA/DA stays within the envelope of the
/// estimate for every operator carrying real I/O mass.
#[test]
fn every_plan_shape_executes_and_stays_in_envelope() {
    let w = world();
    let sel_r = Rect::new([0.0, 0.0], [0.45, 1.0]).unwrap();
    let sel_c = Rect::new([0.1, 0.1], [0.7, 0.8]).unwrap();
    let cases: Vec<(&str, JoinQuery<2>, Option<Rect<2>>, Option<Rect<2>>)> = vec![
        (
            "pure-join",
            JoinQuery::new(["rivers", "countries"]),
            None,
            None,
        ),
        (
            "sel-one-side",
            JoinQuery::new(["rivers", "countries"]).with_selection("countries", sel_c),
            None,
            Some(sel_c),
        ),
        (
            "sel-both-sides",
            JoinQuery::new(["rivers", "countries"])
                .with_selection("rivers", sel_r)
                .with_selection("countries", sel_c),
            Some(sel_r),
            Some(sel_c),
        ),
    ];
    // At this reduced scale (6K/2K vs the paper's 60K) the per-operator
    // envelope is wider than §4.1's ±15% — small trees leave the Eq 2–5
    // parameter derivation a coarser fit (the full-scale envelope is
    // enforced by the CI `experiments explain` run at scale 1.0).
    let envelope = 0.40;
    let mut algorithms = BTreeSet::new();
    let mut role_signatures = BTreeSet::new();
    let mut shapes = 0usize;
    for (tag, q, rw, cw) in &cases {
        let plans = Planner::new(&w.catalog).enumerate(q).unwrap();
        let expected = brute_pairs(&w, rw.as_ref(), cw.as_ref());
        for plan in &plans {
            shapes += 1;
            let text = format!("{plan}");
            for algo in ["SJ", "INL", "NL"] {
                if text.contains(&format!("Join[{algo}]")) {
                    algorithms.insert(algo);
                }
            }
            if let Some(line) = text.lines().find(|l| l.contains("Join[SJ]")) {
                let _ = line;
                // Record which dataset plays R1 for role coverage.
                let after = text.split("data(R1):").nth(1).unwrap_or("");
                let r1 = after
                    .lines()
                    .find(|l| l.contains("rivers") || l.contains("countries"))
                    .unwrap_or("")
                    .trim()
                    .to_string();
                role_signatures.insert(r1);
            }
            let (out, ops) = executor(&w).run_measured(plan).unwrap();
            assert_eq!(out.rows.len(), expected, "[{tag}] {plan}");
            assert!(out.da <= out.na, "[{tag}] DA > NA:\n{plan}");
            // Every operator of the plan tree got its own measurement.
            let op_count = text
                .lines()
                .filter(|l| {
                    let t = l.trim_start();
                    t.starts_with("IndexScan")
                        || t.starts_with("IndexRangeSelect")
                        || t.starts_with("Filter")
                        || t.starts_with("Join[")
                })
                .count();
            assert_eq!(
                ops.len(),
                op_count,
                "[{tag}] measurement per operator:\n{plan}"
            );
            assert!(ops.iter().all(|m| !m.label.is_empty()), "[{tag}]");
            let analysis = explainer(&w).with_envelope(envelope).analyze(plan).unwrap();
            assert!(
                analysis.all_within(),
                "[{tag}] operator outside ±{:.0}% envelope:\n{analysis}",
                envelope * 100.0
            );
        }
    }
    assert!(
        shapes >= 10,
        "expected a rich shape inventory, got {shapes}"
    );
    assert_eq!(
        algorithms.into_iter().collect::<Vec<_>>(),
        vec!["INL", "NL", "SJ"],
        "all three join algorithms must be exercised"
    );
    assert!(
        role_signatures.len() >= 2,
        "both SJ role assignments must be exercised: {role_signatures:?}"
    );
}

/// The SJ-with-pushed-selection shape: the window restricts the join's
/// one traversal. No operator below the join reads anything, the
/// traversal reads strictly less than the unwindowed join's, and its
/// measured NA/DA stay in the envelope of the composed estimate.
#[test]
fn sj_with_pushed_selection_executes_in_envelope() {
    let w = world();
    let sel = Rect::new([0.0, 0.0], [0.6, 0.9]).unwrap();
    let q = JoinQuery::new(["rivers", "countries"]).with_selection("countries", sel);
    let plans = Planner::new(&w.catalog).enumerate(&q).unwrap();
    let pushed_sj: Vec<&PhysicalPlan<2>> = plans
        .iter()
        .filter(|p| {
            let t = format!("{p}");
            t.contains("Join[SJ]") && t.contains("IndexRangeSelect") && !t.contains("Filter")
        })
        .collect();
    assert_eq!(
        pushed_sj.len(),
        2,
        "planner must enumerate SJ with the selection pushed below it, in both roles"
    );
    let expected = brute_pairs(&w, None, Some(&sel));
    for plan in pushed_sj {
        let (out, ops) = executor(&w).run_measured(plan).unwrap();
        assert_eq!(out.rows.len(), expected, "{plan}");
        // The join is the plan's whole cost: the window is not a step.
        let [join, data, query] = &ops[..] else {
            panic!("three operators expected:\n{plan}");
        };
        assert_eq!(join.label, "Join[SJ]");
        assert!(join.na > 0 && join.da > 0 && join.da <= join.na, "{plan}");
        for child in [data, query] {
            assert_eq!((child.na, child.da, child.cost_io), (0, 0, 0), "{plan}");
        }
        assert_eq!((out.na, out.da, out.cost_io), (join.na, join.da, join.da));
        // The same roles without the window read strictly more.
        let unwindowed = unpushed(plan);
        let (full, full_ops) = executor(&w).run_measured(&unwindowed).unwrap();
        assert!(
            join.na < full_ops[0].na && join.da < full_ops[0].da,
            "windowed NA {} / DA {} vs unwindowed NA {} / DA {}:\n{plan}",
            join.na,
            join.da,
            full_ops[0].na,
            full_ops[0].da
        );
        assert!(out.rows.len() < full.rows.len());
        // Measured DA against the estimate (the gate), and NA against
        // Eq 7 composed the same way.
        let analysis = explainer(&w).with_envelope(0.40).analyze(plan).unwrap();
        assert!(analysis.root.gated, "{analysis}");
        assert!(analysis.all_within(), "{analysis}");
        let na_err = (windowed_na_estimate(&w, plan) - join.na as f64).abs() / join.na as f64;
        assert!(na_err <= 0.40, "NA estimate off by {na_err:.2}:\n{plan}");
    }
}

/// `plan` (a join of two base inputs) with every pushed selection
/// removed: the unwindowed join in the same roles.
fn unpushed(plan: &PhysicalPlan<2>) -> PhysicalPlan<2> {
    let scan = |n: &PlanNode<2>| match n {
        PlanNode::IndexScan { dataset } | PlanNode::IndexRangeSelect { dataset, .. } => {
            Box::new(PlanNode::IndexScan {
                dataset: dataset.clone(),
            })
        }
        other => panic!("base input expected, got {other:?}"),
    };
    let PlanNode::Join {
        data,
        query,
        algorithm,
    } = &plan.root
    else {
        panic!("join expected:\n{plan}");
    };
    PhysicalPlan {
        root: PlanNode::Join {
            data: scan(data),
            query: scan(query),
            algorithm: *algorithm,
        },
        ..plan.clone()
    }
}

/// Eq 7/11 per level × Eq 1's intersection probability, on the catalog's
/// Eq 2–5 parameters: the NA the windowed SJ of `plan` should read.
fn windowed_na_estimate(w: &World, plan: &PhysicalPlan<2>) -> f64 {
    use sjcm::model::join::join_cost_na_windowed;
    let side = |n: &PlanNode<2>| match n {
        PlanNode::IndexScan { dataset } => (dataset.clone(), None),
        PlanNode::IndexRangeSelect { dataset, window } => (dataset.clone(), Some(*window)),
        other => panic!("base input expected, got {other:?}"),
    };
    let PlanNode::Join { data, query, .. } = &plan.root else {
        panic!("join expected:\n{plan}");
    };
    let config = ModelConfig::paper(2);
    let params = |name: &str| {
        TreeParams::<2>::from_data(w.catalog.get(name).expect("registered").profile, &config)
    };
    let ((d, wd), (q, wq)) = (side(data), side(query));
    join_cost_na_windowed(&params(&d), &params(&q), &[wd, wq])
}

/// A single-set selection is planned as the Eq 1 probe — by costing: the
/// filter over a full scan is enumerated too, priced at every leaf page
/// — and the probe is also what measures cheapest. (Up to windows of a
/// third of the workspace here; one that covers nearly all of it meets
/// every leaf *and* the internal nodes above them, and the two plans
/// are a page apart either way.)
#[test]
fn single_set_selection_plans_the_probe_and_it_measures_cheapest() {
    let w = world();
    for (name, objects) in [("rivers", &w.rivers), ("countries", &w.countries)] {
        for window in [
            Rect::new([0.1, 0.2], [0.3, 0.5]).unwrap(),
            Rect::new([0.0, 0.0], [0.05, 0.05]).unwrap(),
            Rect::new([0.4, 0.0], [1.0, 0.6]).unwrap(),
        ] {
            let q = JoinQuery::new([name]).with_selection(name, window);
            let planner = Planner::new(&w.catalog);
            let best = planner.best_plan(&q).unwrap();
            assert!(
                matches!(best.root, PlanNode::IndexRangeSelect { .. }),
                "{best}"
            );
            let plans = planner.enumerate(&q).unwrap();
            assert_eq!(plans.len(), 2);
            let expected = objects.iter().filter(|r| r.intersects(&window)).count();
            let exec = executor(&w);
            let measured: Vec<u64> = plans
                .iter()
                .map(|plan| {
                    let out = exec.run(plan).unwrap();
                    assert_eq!(out.rows.len(), expected, "{plan}");
                    out.cost_io
                })
                .collect();
            let best_io = exec.run(&best).unwrap().cost_io;
            assert_eq!(Some(&best_io), measured.iter().min(), "{name} {window:?}");
            // The scan's measured cost is the tree's leaf pages, and the
            // estimate (N_1 of Eq 3) is in the envelope of it.
            let scan = plans
                .iter()
                .find(|p| matches!(p.root, PlanNode::Filter { .. }))
                .expect("filter-over-scan plan");
            let scan_io = exec.run(scan).unwrap().cost_io;
            let tree = if name == "rivers" {
                &w.t_rivers
            } else {
                &w.t_countries
            };
            assert_eq!(scan_io as usize, tree.node_ids_at_level(0).len());
            assert!((scan.total_cost - scan_io as f64).abs() / scan_io as f64 <= 0.40);
        }
    }
}

/// Two windows on one set: every plan keeps both — a pushed plan probes
/// or traverses through the first and filters by the second — so the
/// best plan and every other one return exactly the objects that meet
/// both, alone and in a join.
#[test]
fn two_windows_on_one_set_are_both_applied() {
    let w = world();
    let a = Rect::new([0.1, 0.1], [0.5, 0.6]).unwrap();
    let b = Rect::new([0.3, 0.0], [0.9, 0.4]).unwrap();
    let in_both = |r: &Rect<2>| r.intersects(&a) && r.intersects(&b);
    let alone = w.rivers.iter().filter(|r| in_both(r)).count();
    let joined: usize = w
        .rivers
        .iter()
        .filter(|r| in_both(r))
        .map(|r| w.countries.iter().filter(|c| r.intersects(c)).count())
        .sum();
    let planner = Planner::new(&w.catalog);
    let exec = executor(&w);
    for (datasets, expected) in [
        (vec!["rivers"], alone),
        (vec!["rivers", "countries"], joined),
    ] {
        let q = JoinQuery::new(datasets)
            .with_selection("rivers", a)
            .with_selection("rivers", b);
        let best = planner.best_plan(&q).unwrap();
        assert_eq!(exec.run(&best).unwrap().rows.len(), expected, "{best}");
        for plan in planner.enumerate(&q).unwrap() {
            assert_eq!(exec.run(&plan).unwrap().rows.len(), expected, "{plan}");
        }
    }
}

#[test]
fn estimated_cost_ranks_strategies_like_measured_cost() {
    // The headline promise of a cost model: its ranking of strategies
    // should agree with reality. Compare the cheapest and the most
    // expensive enumerated plan.
    let w = world();
    let tiny = Rect::new([0.0, 0.0], [0.08, 0.08]).unwrap();
    let q = JoinQuery::new(["rivers", "countries"]).with_selection("countries", tiny);
    let plans = Planner::new(&w.catalog).enumerate(&q).unwrap();
    let best = &plans[0];
    let worst = plans.last().unwrap();
    assert!(best.total_cost < worst.total_cost);
    let exec = executor(&w);
    let best_io = exec.run(best).unwrap().cost_io;
    let worst_io = exec.run(worst).unwrap().cost_io;
    assert!(
        best_io <= worst_io,
        "estimates best {} < worst {} but measured {} > {}\nbest:\n{best}\nworst:\n{worst}",
        best.total_cost,
        worst.total_cost,
        best_io,
        worst_io
    );
}

#[test]
fn estimated_io_within_factor_two_of_measured_for_sj_plan() {
    let w = world();
    let plan = Planner::new(&w.catalog)
        .best_plan(&JoinQuery::new(["rivers", "countries"]))
        .unwrap();
    let out = executor(&w).run(&plan).unwrap();
    let ratio = plan.total_cost / out.cost_io as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "estimated {} vs measured {} (ratio {ratio:.2})",
        plan.total_cost,
        out.cost_io
    );
}

#[test]
fn unbound_dataset_is_reported() {
    let w = world();
    let plan = Planner::new(&w.catalog)
        .best_plan(&JoinQuery::new(["rivers", "countries"]))
        .unwrap();
    let exec = PlanExecutor::new().bind("rivers", &w.t_rivers, &w.rivers);
    assert_eq!(
        exec.run(&plan).unwrap_err(),
        ExecError::UnboundDataset("countries".into())
    );
}

#[test]
fn three_way_plans_are_priced_but_not_executed() {
    let mut catalog = Catalog::<2>::new();
    for name in ["a", "b", "c"] {
        catalog.register(name, DatasetStats::new(5_000, 0.3));
    }
    let plan: PhysicalPlan<2> = Planner::new(&catalog)
        .best_plan(&JoinQuery::new(["a", "b", "c"]))
        .unwrap();
    assert!(plan.total_cost > 0.0);
    // Execution of multi-join chains is an explicit non-goal.
    let dummy_rects: Vec<Rect<2>> = vec![];
    let dummy_tree = RTree::<2>::new(RTreeConfig::paper(2));
    let exec = PlanExecutor::new()
        .bind("a", &dummy_tree, &dummy_rects)
        .bind("b", &dummy_tree, &dummy_rects)
        .bind("c", &dummy_tree, &dummy_rects);
    assert!(matches!(
        exec.run(&plan),
        Err(ExecError::UnsupportedShape(_))
    ));
}
