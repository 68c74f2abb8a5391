//! Accuracy studies: §4.1's uniform-data error claims, the density
//! sweep, the §4.2 non-uniform and real-data studies, and the
//! parameter-source ablation.

use crate::common::{
    build_tree, cardinality_grid, observe_join, observe_join_with_params, profile_of, rel_err,
    run_counting_join, DEFAULT_DENSITY,
};
use crate::report::{int, pct, Report};
use sjcm_core::{join, DensitySurface, ModelConfig, TreeParams};
use sjcm_datagen::skewed::{gaussian_clusters, power_law, ClusterConfig};
use sjcm_datagen::tiger::{generate as tiger, TigerConfig};
use sjcm_datagen::uniform::{generate as uniform, UniformConfig};
use sjcm_geom::Rect;
use sjcm_join::measured_params;
use std::path::Path;

/// §4.1 claims (i)–(iii): relative errors on uniform data, with the DA
/// error split per tree (the query tree R2 should sit near 5%, the data
/// tree R1 in the 10–15% band).
pub fn errors_uniform(out: &Path, scale: f64) {
    errors_uniform_dim::<1>(out, scale, "errors_uniform_1d");
    errors_uniform_dim::<2>(out, scale, "errors_uniform_2d");
}

fn errors_uniform_dim<const DIM: usize>(out: &Path, scale: f64, name: &str) {
    let grid = cardinality_grid(scale);
    let cfg = ModelConfig::paper(DIM);
    // Independent data sets per role (see figures.rs for why).
    let datasets1: Vec<Vec<Rect<DIM>>> = grid
        .iter()
        .enumerate()
        .map(|(i, &n)| uniform::<DIM>(UniformConfig::new(n, DEFAULT_DENSITY, 3000 + i as u64)))
        .collect();
    let datasets2: Vec<Vec<Rect<DIM>>> = grid
        .iter()
        .enumerate()
        .map(|(i, &n)| uniform::<DIM>(UniformConfig::new(n, DEFAULT_DENSITY, 3500 + i as u64)))
        .collect();
    let trees1: Vec<_> = datasets1.iter().map(|d| build_tree(d)).collect();
    let trees2: Vec<_> = datasets2.iter().map(|d| build_tree(d)).collect();
    let mut report = Report::new(
        out,
        name,
        &[
            "combo",
            "err_NA",
            "err_DA",
            "err_DA_R1",
            "err_DA_R2",
            "R1_hits",
        ],
    );
    let mut worst_na = 0.0f64;
    let mut worst_da = 0.0f64;
    for (i, t1) in trees1.iter().enumerate() {
        for (j, t2) in trees2.iter().enumerate() {
            let prof1 = profile_of(&datasets1[i]);
            let prof2 = profile_of(&datasets2[j]);
            let result = run_counting_join(t1, t2);
            let p1 = TreeParams::<DIM>::from_data(prof1, &cfg);
            let p2 = TreeParams::<DIM>::from_data(prof2, &cfg);
            let (anal_da1, anal_da2) = join::join_cost_da_split(&p1, &p2);
            let err_na = rel_err(join::join_cost_na(&p1, &p2), result.na_total() as f64);
            let err_da = rel_err(anal_da1 + anal_da2, result.da_total() as f64);
            let err_da1 = rel_err(anal_da1, result.stats1.da_total() as f64);
            let err_da2 = rel_err(anal_da2, result.stats2.da_total() as f64);
            worst_na = worst_na.max(err_na);
            worst_da = worst_da.max(err_da);
            // Eq 9's unmodeled exception: path-buffer hits on the data
            // tree R1 during lockstep descent.
            let r1_hits = result.stats1.na_total() - result.stats1.da_total();
            report.row(&[
                &format!("{}K/{}K", grid[i] / 1000, grid[j] / 1000),
                &pct(err_na),
                &pct(err_da),
                &pct(err_da1),
                &pct(err_da2),
                &r1_hits,
            ]);
        }
    }
    report.finish();
    println!("worst NA error {} (paper claim: < 10%)", pct(worst_na));
    println!("worst DA error {} (paper claim: ~5–15%)", pct(worst_da));
}

/// Density sweep: fixed cardinality, D ∈ {0.2, 0.4, 0.6, 0.8} (§4's
/// "relevant conclusions also stand for varying density D").
pub fn density_sweep(out: &Path, scale: f64) {
    let n = (40_000.0 * scale).round().max(200.0) as usize;
    let mut report = Report::new(
        out,
        "density_sweep",
        &[
            "D", "exper_NA", "anal_NA", "err_NA", "exper_DA", "anal_DA", "err_DA",
        ],
    );
    for (i, d) in [0.2, 0.4, 0.6, 0.8].into_iter().enumerate() {
        let r1 = uniform::<2>(UniformConfig::new(n, d, 4000 + i as u64));
        let r2 = uniform::<2>(UniformConfig::new(n, d, 4100 + i as u64));
        let t1 = build_tree(&r1);
        let t2 = build_tree(&r2);
        let obs = observe_join(&t1, &t2, profile_of(&r1), profile_of(&r2));
        report.row(&[
            &format!("{d:.1}"),
            &obs.exper_na,
            &int(obs.anal_na),
            &pct(obs.err_na()),
            &obs.exper_da,
            &int(obs.anal_da),
            &pct(obs.err_da()),
        ]);
    }
    report.finish();
}

/// §4.2: non-uniform synthetic data. Compares the plain global-uniform
/// model against the local density-surface transformation; the paper
/// reports 10–20% error for the transformed model.
pub fn nonuniform(out: &Path, scale: f64) {
    let n = (30_000.0 * scale).round().max(200.0) as usize;
    let d = 0.4;
    let workloads: Vec<(&str, Vec<Rect<2>>, Vec<Rect<2>>)> = vec![
        (
            "clusters",
            gaussian_clusters::<2>(ClusterConfig::new(n, d, 5000)),
            gaussian_clusters::<2>(ClusterConfig::new(n, d, 5001)),
        ),
        (
            "clusters_tight",
            gaussian_clusters::<2>(
                ClusterConfig::new(n, d, 5002)
                    .with_clusters(4)
                    .with_sigma(0.03),
            ),
            gaussian_clusters::<2>(
                ClusterConfig::new(n, d, 5003)
                    .with_clusters(4)
                    .with_sigma(0.03),
            ),
        ),
        (
            "powerlaw",
            power_law::<2>(n, d, 2.0, 5004),
            power_law::<2>(n, d, 2.0, 5005),
        ),
        (
            "mixed",
            gaussian_clusters::<2>(ClusterConfig::new(n, d, 5006)),
            uniform::<2>(UniformConfig::new(n, d, 5007)),
        ),
    ];
    run_nonuniform_table(out, "nonuniform", &workloads);
}

/// §4.2's real-data study, on the TIGER-like substitution (see
/// DESIGN.md): road × hydro joins. The paper reports < 15% error.
pub fn real(out: &Path, scale: f64) {
    let n = (40_000.0 * scale).round().max(400.0) as usize;
    let workloads: Vec<(&str, Vec<Rect<2>>, Vec<Rect<2>>)> = vec![
        (
            "roads_x_hydro",
            tiger(TigerConfig::roads(n, 6000)),
            tiger(TigerConfig::hydro(n / 2, 6001)),
        ),
        (
            "roads_x_roads",
            tiger(TigerConfig::roads(n, 6002)),
            tiger(TigerConfig::roads(n, 6003)),
        ),
        (
            "hydro_x_hydro",
            tiger(TigerConfig::hydro(n / 2, 6004)),
            tiger(TigerConfig::hydro(n / 2, 6005)),
        ),
    ];
    run_nonuniform_table(out, "real_tigerlike", &workloads);
}

fn run_nonuniform_table(out: &Path, name: &str, workloads: &[(&str, Vec<Rect<2>>, Vec<Rect<2>>)]) {
    let cfg = ModelConfig::paper(2);
    let grid = 8;
    let mut report = Report::new(
        out,
        name,
        &[
            "workload",
            "exper_NA",
            "uniform_NA_err",
            "local_NA_err",
            "exper_DA",
            "uniform_DA_err",
            "local_DA_err",
        ],
    );
    for (label, r1, r2) in workloads {
        let t1 = build_tree(r1);
        let t2 = build_tree(r2);
        let prof1 = profile_of(r1);
        let prof2 = profile_of(r2);
        let result = run_counting_join(&t1, &t2);
        // Global-uniform estimates.
        let p1 = TreeParams::<2>::from_data(prof1, &cfg);
        let p2 = TreeParams::<2>::from_data(prof2, &cfg);
        let na_u = join::join_cost_na(&p1, &p2);
        let da_u = join::join_cost_da(&p1, &p2);
        // Local density-surface estimates.
        let s1 = DensitySurface::<2>::from_rects(r1, grid);
        let s2 = DensitySurface::<2>::from_rects(r2, grid);
        let (na_l, da_l) =
            sjcm_core::nonuniform::join_cost_nonuniform(prof1, &s1, prof2, &s2, &cfg);
        report.row(&[
            label,
            &result.na_total(),
            &pct(rel_err(na_u, result.na_total() as f64)),
            &pct(rel_err(na_l, result.na_total() as f64)),
            &result.da_total(),
            &pct(rel_err(da_u, result.da_total() as f64)),
            &pct(rel_err(da_l, result.da_total() as f64)),
        ]);
    }
    report.finish();
}

/// Per-level diagnostic: predicted (Eqs 2–5) vs measured tree parameters
/// for one representative tree per cardinality. Pinpoints *which* of the
/// parameter predictions drifts (node counts N_j, extents s_j, node
/// densities D_j).
pub fn params_diff(out: &Path, scale: f64) {
    let grid = cardinality_grid(scale);
    let cfg = ModelConfig::paper(2);
    let mut report = Report::new(
        out,
        "params_diff",
        &[
            "N", "j", "anal_Nj", "meas_Nj", "anal_sj", "meas_sj", "anal_Dj", "meas_Dj",
        ],
    );
    for (i, &n) in grid.iter().enumerate() {
        let rects = uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 7900 + i as u64));
        let tree = build_tree(&rects);
        let anal = TreeParams::<2>::from_data(profile_of(&rects), &cfg);
        let meas = measured_params::<2>(&tree.stats());
        let levels = anal.height().max(meas.height());
        for j in 1..=levels {
            let a = (j <= anal.height()).then(|| anal.level(j));
            let m = (j <= meas.height()).then(|| meas.level(j));
            report.row(&[
                &format!("{}K", n / 1000),
                &j,
                &a.map_or("-".into(), |l| int(l.nodes)),
                &m.map_or("-".into(), |l| int(l.nodes)),
                &a.map_or("-".into(), |l| format!("{:.5}", l.extents[0])),
                &m.map_or("-".into(), |l| format!("{:.5}", l.extents[0])),
                &a.map_or("-".into(), |l| format!("{:.3}", l.density)),
                &m.map_or("-".into(), |l| format!("{:.3}", l.density)),
            ]);
        }
    }
    report.finish();
}

/// Parameter-source ablation: how much of the model error comes from
/// predicting tree parameters via Eqs 2–5 (data-only) versus from the
/// traversal model itself (measured parameters)?
pub fn param_source(out: &Path, scale: f64) {
    let grid = cardinality_grid(scale);
    let datasets1: Vec<Vec<Rect<2>>> = grid
        .iter()
        .enumerate()
        .map(|(i, &n)| uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 7000 + i as u64)))
        .collect();
    let datasets2: Vec<Vec<Rect<2>>> = grid
        .iter()
        .enumerate()
        .map(|(i, &n)| uniform::<2>(UniformConfig::new(n, DEFAULT_DENSITY, 7500 + i as u64)))
        .collect();
    let trees1: Vec<_> = datasets1.iter().map(|d| build_tree(d)).collect();
    let trees2: Vec<_> = datasets2.iter().map(|d| build_tree(d)).collect();
    let mut report = Report::new(
        out,
        "param_source",
        &[
            "combo",
            "err_NA_analytic",
            "err_NA_measured",
            "err_DA_analytic",
            "err_DA_measured",
        ],
    );
    for (i, t1) in trees1.iter().enumerate() {
        for (j, t2) in trees2.iter().enumerate() {
            if i > j {
                continue; // symmetric enough for the ablation
            }
            let prof1 = profile_of(&datasets1[i]);
            let prof2 = profile_of(&datasets2[j]);
            let analytic = observe_join(t1, t2, prof1, prof2);
            let m1 = measured_params::<2>(&t1.stats());
            let m2 = measured_params::<2>(&t2.stats());
            let measured = observe_join_with_params(t1, t2, &m1, &m2);
            report.row(&[
                &format!("{}K/{}K", grid[i] / 1000, grid[j] / 1000),
                &pct(analytic.err_na()),
                &pct(measured.err_na()),
                &pct(analytic.err_da()),
                &pct(measured.err_da()),
            ]);
        }
    }
    report.finish();
}
