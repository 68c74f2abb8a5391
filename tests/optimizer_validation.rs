//! The optimizer's decisions, validated by execution: when the planner
//! prefers strategy A over B, actually running A and B must agree.

use sjcm::geom::{density, Rect};
use sjcm::join::baselines::index_nested_loop_join;
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, PlanNode, Planner};
use sjcm::prelude::*;

struct World {
    big_rects: Vec<Rect<2>>,
    small_rects: Vec<Rect<2>>,
    big: RTree<2>,
    small: RTree<2>,
    catalog: Catalog<2>,
}

fn build_world() -> World {
    let big_rects = sjcm::datagen::uniform::generate::<2>(
        sjcm::datagen::uniform::UniformConfig::new(9_000, 0.4, 71),
    );
    let small_rects = sjcm::datagen::uniform::generate::<2>(
        sjcm::datagen::uniform::UniformConfig::new(3_000, 0.4, 72),
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
        "big",
        DatasetStats::new(big_rects.len() as u64, density(big_rects.iter())),
    );
    catalog.register(
        "small",
        DatasetStats::new(small_rects.len() as u64, density(small_rects.iter())),
    );
    World {
        big: build(&big_rects),
        small: build(&small_rects),
        big_rects,
        small_rects,
        catalog,
    }
}

fn measured_da(data: &RTree<2>, query: &RTree<2>) -> u64 {
    JoinSession::new(data, query)
        .config(JoinConfig {
            buffer: BufferPolicy::Path,
            collect_pairs: false,
            ..JoinConfig::default()
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result
        .da_total()
}

#[test]
fn planner_role_choice_is_confirmed_by_execution() {
    let w = build_world();
    let plan = Planner::new(&w.catalog)
        .best_plan(&JoinQuery::new(["big", "small"]))
        .unwrap();
    let (data_name, query_name) = match &plan.root {
        PlanNode::Join { data, query, .. } => {
            let name = |n: &PlanNode<2>| match n {
                PlanNode::IndexScan { dataset } => dataset.clone(),
                other => panic!("expected scan, got {other:?}"),
            };
            (name(data), name(query))
        }
        other => panic!("expected join, got {other:?}"),
    };
    let chosen = if data_name == "big" {
        measured_da(&w.big, &w.small)
    } else {
        measured_da(&w.small, &w.big)
    };
    let alternative = if data_name == "big" {
        measured_da(&w.small, &w.big)
    } else {
        measured_da(&w.big, &w.small)
    };
    assert!(
        chosen <= alternative,
        "planner picked data={data_name}/query={query_name} but execution \
         says {chosen} vs {alternative}"
    );
}

/// DA of the SJ traversal restricted to `window` on the `small` tree,
/// the cheaper of the two role assignments.
fn measured_windowed_da(w: &World, window: Rect<2>) -> u64 {
    use sjcm::join::Side;
    let da = |session: JoinSession<'_, 2>| {
        session
            .config(JoinConfig {
                buffer: BufferPolicy::Path,
                collect_pairs: false,
                ..JoinConfig::default()
            })
            .run()
            .expect("ungoverned join cannot fail")
            .result
            .da_total()
    };
    da(JoinSession::new(&w.big, &w.small).window(Side::R2, window))
        .min(da(
            JoinSession::new(&w.small, &w.big).window(Side::R1, window)
        ))
}

#[test]
fn pushdown_decision_matches_measured_costs() {
    let w = build_world();
    let planner = Planner::new(&w.catalog);
    for (window, label) in [
        (Rect::new([0.0, 0.0], [0.06, 0.06]).unwrap(), "tiny"),
        (Rect::new([0.2, 0.3], [0.5, 0.7]).unwrap(), "medium"),
        (Rect::new([0.0, 0.0], [0.97, 0.97]).unwrap(), "huge"),
    ] {
        let q = JoinQuery::new(["big", "small"]).with_selection("small", window);
        let best = planner.best_plan(&q).unwrap();
        let text = format!("{best}");

        // Measure all three strategies for real.
        let selected: Vec<(Rect<2>, ObjectId)> = w
            .small_rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, r)| (*r, ObjectId(i as u32)))
            .collect();
        // Pushed below INL: probe `big` once per selected object, plus
        // the index cost of the selection itself.
        let (_, select_visit_counts) = w.small.query_window_counting(&window);
        let select_visits: u64 = select_visit_counts.iter().sum();
        let inl_cost = select_visits + index_nested_loop_join(&w.big, &selected).node_accesses;
        // Pushed below SJ: one traversal restricted to the window.
        let windowed_cost = measured_windowed_da(&w, window);
        // Not pushed: the whole join, filtered afterwards.
        let filter_cost = measured_da(&w.big, &w.small).min(measured_da(&w.small, &w.big));
        let chosen = if text.contains("Filter") {
            filter_cost
        } else if text.contains("Join[INL]") {
            inl_cost
        } else {
            windowed_cost
        };
        let cheapest = inl_cost.min(windowed_cost).min(filter_cost);
        // Within 2 %: a window over nearly everything prices (and
        // measures) the restricted traversal level with the whole join.
        assert!(
            chosen as f64 <= cheapest as f64 * 1.02,
            "{label} window: the planner's placement measures {chosen}; INL={inl_cost}, \
             windowed SJ={windowed_cost}, SJ + filter={filter_cost}\n{text}"
        );
        if label != "huge" {
            assert!(
                !text.contains("Filter"),
                "{label} window not pushed:\n{text}"
            );
            assert!(windowed_cost < filter_cost, "{label}");
        }
    }
}

#[test]
fn plan_cardinality_estimate_is_in_the_ballpark() {
    let w = build_world();
    let plan = Planner::new(&w.catalog)
        .best_plan(&JoinQuery::new(["big", "small"]))
        .unwrap();
    let actual = JoinSession::new(&w.big, &w.small)
        .run()
        .expect("ungoverned join cannot fail")
        .result
        .pair_count;
    let ratio = plan.cardinality / actual as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "estimated {} vs actual {actual} pairs",
        plan.cardinality
    );
    let _ = (w.big_rects.len(), w.small_rects.len());
}
