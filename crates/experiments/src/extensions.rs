//! Extension studies beyond the paper's published tables: the §5
//! future-work items (selectivity, LRU buffers, high dimensionality) and
//! the role-choice rule of §4.1(iii).

use crate::common::{
    build_tree, cardinality_grid, profile_of, rel_err, run_counting_join, DEFAULT_DENSITY,
};
use crate::report::{int, pct, Report};
use sjcm_core::selectivity::{distance_join_selectivity, join_selectivity};
use sjcm_core::{join, ModelConfig, TreeParams};
use sjcm_datagen::skewed::{gaussian_clusters, ClusterConfig};
use sjcm_datagen::uniform::{generate as uniform, UniformConfig};
use sjcm_geom::Rect;
use sjcm_join::{BufferPolicy, JoinConfig, JoinPredicate, JoinSession};
use std::path::Path;

/// §5 extension: join selectivity — predicted overlapping pairs vs the
/// exact count from the executor, on uniform and skewed data, plus the
/// distance-join variant.
pub fn selectivity(out: &Path, scale: f64) {
    let n = (20_000.0 * scale).round().max(200.0) as usize;
    let mut report = Report::new(
        out,
        "selectivity",
        &[
            "workload",
            "actual_pairs",
            "predicted",
            "err",
            "local_pred",
            "local_err",
        ],
    );
    type SelectivityCase = (String, Vec<Rect<2>>, Vec<Rect<2>>, Option<f64>);
    let cases: Vec<SelectivityCase> = vec![
        (
            "uniform_D0.25".into(),
            uniform::<2>(UniformConfig::new(n, 0.25, 8000)),
            uniform::<2>(UniformConfig::new(n, 0.25, 8001)),
            None,
        ),
        (
            "uniform_D0.8".into(),
            uniform::<2>(UniformConfig::new(n, 0.8, 8002)),
            uniform::<2>(UniformConfig::new(n, 0.8, 8003)),
            None,
        ),
        (
            "uniform_eps0.005".into(),
            uniform::<2>(UniformConfig::new(n, 0.25, 8004)),
            uniform::<2>(UniformConfig::new(n, 0.25, 8005)),
            Some(0.005),
        ),
        (
            "clusters".into(),
            gaussian_clusters::<2>(ClusterConfig::new(n, 0.25, 8006)),
            gaussian_clusters::<2>(ClusterConfig::new(n, 0.25, 8007)),
            None,
        ),
    ];
    for (label, r1, r2, eps) in cases {
        let t1 = build_tree(&r1);
        let t2 = build_tree(&r2);
        let prof1 = profile_of(&r1);
        let prof2 = profile_of(&r2);
        let predicate = match eps {
            None => JoinPredicate::Overlap,
            Some(e) => JoinPredicate::WithinDistance(e),
        };
        let result = JoinSession::new(&t1, &t2)
            .config(JoinConfig {
                predicate,
                collect_pairs: false,
                ..JoinConfig::default()
            })
            .run()
            .expect("ungoverned join cannot fail")
            .result;
        let predicted = match eps {
            None => join_selectivity::<2>(prof1, prof2),
            Some(e) => distance_join_selectivity::<2>(prof1, prof2, e),
        };
        // The §5 extension for non-uniform selectivity: per-cell local
        // evaluation (overlap joins only).
        let (local_pred, local_err) = if eps.is_none() {
            let s1 = sjcm_core::DensitySurface::<2>::from_rects(&r1, 8);
            let s2 = sjcm_core::DensitySurface::<2>::from_rects(&r2, 8);
            let local = sjcm_core::nonuniform::join_selectivity_nonuniform(&s1, &s2);
            (int(local), pct(rel_err(local, result.pair_count as f64)))
        } else {
            ("-".into(), "-".into())
        };
        report.row(&[
            &label,
            &result.pair_count,
            &int(predicted),
            &pct(rel_err(predicted, result.pair_count as f64)),
            &local_pred,
            &local_err,
        ]);
    }
    report.finish();
    println!(
        "note: the clustered row shows why §5 lists non-uniform selectivity \
         as future work — the uniform estimate underestimates clustered \
         joins; the local (density-surface) extension repairs it."
    );
}

/// §4.1(iii): the role-choice rule. For every ordered pair of distinct
/// cardinalities, run both role assignments and compare measured DA with
/// the model's preference.
pub fn role_choice(out: &Path, scale: f64) {
    let grid = cardinality_grid(scale);
    let cfg = ModelConfig::paper(2);
    let datasets: Vec<Vec<Rect<2>>> = grid
        .iter()
        .enumerate()
        .map(|(i, &n)| uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9000 + i as u64)))
        .collect();
    let trees: Vec<_> = datasets.iter().map(|d| build_tree(d)).collect();
    let mut report = Report::new(
        out,
        "role_choice",
        &[
            "big/small",
            "exper_DA(data=big)",
            "exper_DA(data=small)",
            "anal_DA(data=big)",
            "anal_DA(data=small)",
            "rule_holds_exper",
            "rule_holds_anal",
        ],
    );
    for i in 0..grid.len() {
        for j in 0..i {
            // i = bigger set, j = smaller set.
            let (big_t, small_t) = (&trees[i], &trees[j]);
            let (big_p, small_p) = (profile_of(&datasets[i]), profile_of(&datasets[j]));
            let run = |data: &sjcm_rtree::RTree<2>, query: &sjcm_rtree::RTree<2>| {
                run_counting_join(data, query).da_total()
            };
            let exper_rule = run(big_t, small_t);
            let exper_anti = run(small_t, big_t);
            let pb = TreeParams::<2>::from_data(big_p, &cfg);
            let ps = TreeParams::<2>::from_data(small_p, &cfg);
            let anal_rule = join::join_cost_da(&pb, &ps);
            let anal_anti = join::join_cost_da(&ps, &pb);
            report.row(&[
                &format!("{}K/{}K", grid[i] / 1000, grid[j] / 1000),
                &exper_rule,
                &exper_anti,
                &int(anal_rule),
                &int(anal_anti),
                &(exper_rule <= exper_anti),
                &(anal_rule <= anal_anti),
            ]);
        }
    }
    report.finish();
}

/// §5 future work: LRU buffer ablation. DA under no buffer, path buffer
/// and LRU buffers of growing capacity, against the analytic NA/DA
/// bounds.
pub fn lru_ablation(out: &Path, scale: f64) {
    let n = (40_000.0 * scale).round().max(200.0) as usize;
    let r1 = uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9100));
    let r2 = uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9101));
    let t1 = build_tree(&r1);
    let t2 = build_tree(&r2);
    let cfg = ModelConfig::paper(2);
    let p1 = TreeParams::<2>::from_data(profile_of(&r1), &cfg);
    let p2 = TreeParams::<2>::from_data(profile_of(&r2), &cfg);
    println!(
        "analytic bounds: NA = {:.0} (Eq 7), DA_path = {:.0} (Eq 10)",
        join::join_cost_na(&p1, &p2),
        join::join_cost_da(&p1, &p2)
    );
    let mut report = Report::new(out, "lru_ablation", &["buffer", "exper_DA", "exper_NA"]);
    let mut run = |label: &str, policy: BufferPolicy| {
        let r = JoinSession::new(&t1, &t2)
            .config(JoinConfig {
                buffer: policy,
                collect_pairs: false,
                ..JoinConfig::default()
            })
            .run()
            .expect("ungoverned join cannot fail")
            .result;
        report.row(&[&label, &r.da_total(), &r.na_total()]);
    };
    run("none", BufferPolicy::None);
    run("path", BufferPolicy::Path);
    for cap in [8, 32, 128, 512, 2048] {
        run(&format!("lru{cap}"), BufferPolicy::Lru(cap));
    }
    report.finish();
}

/// §5 future work: model accuracy in higher dimensionality (n = 3, 4).
pub fn high_dim(out: &Path, scale: f64) {
    let n = (20_000.0 * scale).round().max(200.0) as usize;
    let mut report = Report::new(
        out,
        "high_dim",
        &[
            "n_dims", "exper_NA", "anal_NA", "err_NA", "exper_DA", "anal_DA", "err_DA",
        ],
    );
    run_high_dim::<3>(&mut report, n);
    run_high_dim::<4>(&mut report, n);
    report.finish();
    println!(
        "note: the paper expects degradation here — plain R*-trees are \
         not efficient in high dimensionality (hence the X-tree citation)."
    );
}

fn run_high_dim<const DIM: usize>(report: &mut Report, n: usize) {
    let r1 = uniform::<DIM>(UniformConfig::new(n, 0.3, 9200 + DIM as u64));
    let r2 = uniform::<DIM>(UniformConfig::new(n, 0.3, 9300 + DIM as u64));
    let t1 = build_tree(&r1);
    let t2 = build_tree(&r2);
    let cfg = ModelConfig::paper(DIM);
    let p1 = TreeParams::<DIM>::from_data(profile_of(&r1), &cfg);
    let p2 = TreeParams::<DIM>::from_data(profile_of(&r2), &cfg);
    let result = run_counting_join(&t1, &t2);
    let anal_na = join::join_cost_na(&p1, &p2);
    let anal_da = join::join_cost_da(&p1, &p2);
    report.row(&[
        &DIM,
        &result.na_total(),
        &int(anal_na),
        &pct(rel_err(anal_na, result.na_total() as f64)),
        &result.da_total(),
        &int(anal_da),
        &pct(rel_err(anal_da, result.da_total() as f64)),
    ]);
}

/// Algorithm comparison across the paper's §2.1 taxonomy: synchronized
/// traversal (indexes on both sides), index nested loop (one index), and
/// PBSM (no indexes — \[PD96\]), measured in simulated page I/O on the
/// same workloads. Not a table in the paper, but the context its related
/// work assumes; regenerates the "who wins and why" picture.
pub fn algo_compare(out: &Path, scale: f64) {
    use sjcm_join::baselines::index_nested_loop_join;
    use sjcm_join::PbsmSession;
    use sjcm_rtree::ObjectId;

    let n = (30_000.0 * scale).round().max(300.0) as usize;
    let mut report = Report::new(
        out,
        "algo_compare",
        &[
            "workload",
            "SJ_DA",
            "INL_NA",
            "PBSM_pages",
            "PBSM_repl",
            "pairs",
        ],
    );
    let workloads: Vec<(&str, Vec<Rect<2>>, Vec<Rect<2>>)> = vec![
        (
            "uniform",
            uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9400)),
            uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9401)),
        ),
        (
            "tiger",
            sjcm_datagen::tiger::generate(sjcm_datagen::tiger::TigerConfig::roads(n, 9402)),
            sjcm_datagen::tiger::generate(sjcm_datagen::tiger::TigerConfig::hydro(n / 2, 9403)),
        ),
        (
            "clustered",
            gaussian_clusters::<2>(ClusterConfig::new(n, 0.3, 9404)),
            gaussian_clusters::<2>(ClusterConfig::new(n, 0.3, 9405)),
        ),
    ];
    for (label, r1, r2) in workloads {
        let t1 = build_tree(&r1);
        let t2 = build_tree(&r2);
        let items1: Vec<(Rect<2>, ObjectId)> = r1
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, ObjectId(i as u32)))
            .collect();
        let items2: Vec<(Rect<2>, ObjectId)> = r2
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, ObjectId(i as u32)))
            .collect();
        let sj = run_counting_join(&t1, &t2);
        let inl = index_nested_loop_join(&t1, &items2);
        // PBSM partition grid sized so a partition of each input fits a
        // few pages, per [PD96]'s guidance.
        let pbsm = PbsmSession::new(&items1, &items2, 16, 50)
            .run()
            .expect("ungoverned PBSM cannot fail")
            .result;
        report.row(&[
            &label,
            &sj.da_total(),
            &inl.node_accesses,
            &pbsm.io_pages,
            &format!("{:.2}", pbsm.replication_factor),
            &sj.pair_count,
        ]);
    }
    report.finish();
    println!(
        "SJ exploits pre-built indexes (cheapest); PBSM's two-pass \
         partitioning beats per-object probing (INL) without any index."
    );
}

/// §5 outlook: the parallel SJ, scheduled by the paper's own cost
/// model. Compares the legacy static round-robin sharding against the
/// cost-guided scheduler (Eq-6-priced work units, LPT seeding, work
/// stealing) on realized per-worker NA balance, and surfaces the
/// per-worker tallies.
pub fn parallel_join(out: &Path, scale: f64, threads: usize) {
    use sjcm_join::Scheduler;
    let mut report = Report::new(
        out,
        "parallel",
        &[
            "N", "threads", "NA", "DA_seq", "DA_rr", "DA_cg", "imb_rr", "imb_cg",
        ],
    );
    let mut workers = Report::new(
        out,
        "parallel_workers",
        &[
            "N",
            "mode",
            "worker",
            "units",
            "na",
            "da",
            "pairs",
            "units_executed",
            "units_stolen",
            "steal_attempts",
        ],
    );
    workers.comment(
        "units/na/da/pairs are attributed to the *planned* worker and are \
         deterministic; units_executed/units_stolen/steal_attempts are \
         per-executing-thread steal tallies and are timing-dependent \
         (they vary run to run, only their totals are invariant)",
    );
    for n in cardinality_grid(scale) {
        let r1 = uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9500));
        let r2 = uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 9501));
        let t1 = build_tree(&r1);
        let t2 = build_tree(&r2);
        let config = JoinConfig {
            buffer: BufferPolicy::Path,
            ..JoinConfig::default()
        };
        let run = |sched: Scheduler| {
            JoinSession::new(&t1, &t2)
                .config(config)
                .scheduler(sched)
                .run()
                .expect("ungoverned join cannot fail")
                .result
        };
        let seq = run(Scheduler::Sequential);
        let rr = run(Scheduler::RoundRobin { threads });
        let cg = run(Scheduler::CostGuided { threads });
        // The schedulers must be invisible in the aggregate measures
        // and in the output: the same pairs in the same order.
        assert_eq!(rr.na_total(), seq.na_total());
        assert_eq!(cg.na_total(), seq.na_total());
        assert_eq!(rr.pair_count, seq.pair_count);
        assert_eq!(cg.pair_count, seq.pair_count);
        assert_eq!(rr.pairs, seq.pairs, "round-robin output");
        assert_eq!(cg.pairs, seq.pairs, "cost-guided output");
        report.row(&[
            &n,
            &threads,
            &seq.na_total(),
            &seq.da_total(),
            &rr.da_total(),
            &cg.da_total(),
            &format!("{:.3}", rr.na_imbalance()),
            &format!("{:.3}", cg.na_imbalance()),
        ]);
        for (mode, result) in [("round_robin", &rr), ("cost_guided", &cg)] {
            for (w, t) in result.workers.iter().enumerate() {
                let steal = result.steals.get(w).cloned().unwrap_or_default();
                workers.row(&[
                    &n,
                    &mode,
                    &w,
                    &t.units,
                    &t.na,
                    &t.da,
                    &t.pair_count,
                    &steal.units_executed,
                    &steal.units_stolen,
                    &steal.steal_attempts,
                ]);
            }
        }
    }
    report.finish();
    workers.finish();
    println!(
        "imb = max_worker_NA / mean_worker_NA (1.0 = perfect balance). \
         The cost-guided scheduler prices each work unit with Eq 6 on \
         measured subtree parameters, seeds workers LPT-first, and lets \
         idle workers steal from the busiest deque."
    );
}
