//! Shared machinery of the experiment harness: the validated run
//! options every subcommand receives, tree construction, model
//! evaluation and model-vs-measurement comparison.

use sjcm_core::{join, DataProfile, ModelConfig, TreeParams};
use sjcm_geom::{density, Rect};
use sjcm_join::{BufferPolicy, JoinConfig, JoinResultSet, JoinSession, Scheduler};
use sjcm_rtree::{ObjectId, RTree, RTreeConfig};
use std::path::{Path, PathBuf};

/// The run options shared by every experiment subcommand — output
/// directory, workload scale, worker threads and the optional
/// observability artifact directory. `main` parses the
/// flags once, [`RunOpts::new`] validates them fail-fast (bad values
/// abort before any index is built), and each command receives the one
/// bundle instead of re-threading three loose parameters.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// CSV output directory (`--out`, default `results/`).
    pub out: PathBuf,
    /// Scale factor on the paper's 20K–80K cardinalities (`--scale`).
    pub scale: f64,
    /// Worker threads for the parallel/join commands (`--threads`).
    pub threads: usize,
    /// Observability artifact directory (`--obs-dir`); created eagerly
    /// so a run whose point is its artifacts fails before the work,
    /// not after it.
    pub obs_dir: Option<PathBuf>,
}

impl RunOpts {
    /// Validates and bundles the shared flags. Fails fast on a
    /// non-positive or non-finite `--scale`, zero `--threads`, or an
    /// uncreatable `--obs-dir`.
    pub fn new(
        out: PathBuf,
        scale: f64,
        threads: usize,
        obs_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err("--scale must be a positive number".into());
        }
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        if let Some(dir) = &obs_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create --obs-dir {}: {e}", dir.display()))?;
        }
        Ok(RunOpts {
            out,
            scale,
            threads,
            obs_dir,
        })
    }

    /// The artifact directory as a borrowed path, if one was given.
    pub fn obs_dir(&self) -> Option<&Path> {
        self.obs_dir.as_deref()
    }

    /// Like [`RunOpts::obs_dir`], but prints the shared "needs
    /// --obs-dir" diagnostic for commands that cannot run without the
    /// artifact directory (trace replay/report, validate-obs).
    pub fn require_obs_dir(&self, cmd: &str) -> Option<&Path> {
        let dir = self.obs_dir();
        if dir.is_none() {
            eprintln!("error: {cmd} needs --obs-dir DIR (from a `join --obs-dir` run)");
        }
        dir
    }
}

/// Writes one artifact: `write` puts it at `dir/name`, then
/// `[label] <path>` is printed, or a warning when the write failed.
/// `dir` already exists — [`RunOpts::new`] creates `--obs-dir`, and a
/// CSV report has created `--out`. Returns whether the write succeeded.
pub fn write_artifact<E: std::fmt::Display>(
    dir: &Path,
    name: &str,
    label: &str,
    write: impl FnOnce(&Path) -> Result<(), E>,
) -> bool {
    let path = dir.join(name);
    let written = write(&path);
    match &written {
        Ok(()) => println!("[{label}] {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// The paper's default density for the cardinality-sweep figures
/// (§4 varies D in [0.2, 0.8]; the N-sweep plots fix a mid value).
pub const DEFAULT_DENSITY: f64 = 0.5;

/// Builds a paper-configured R\*-tree (1 KiB pages) by insertion, the way
/// the paper built its indexes.
pub fn build_tree<const N: usize>(rects: &[Rect<N>]) -> RTree<N> {
    let mut tree = RTree::new(RTreeConfig::paper(N));
    for (i, r) in rects.iter().enumerate() {
        tree.insert(*r, ObjectId(i as u32));
    }
    tree
}

/// Data profile (N, D) measured from a rectangle set — the "primitive
/// properties" the model is allowed to see.
pub fn profile_of<const N: usize>(rects: &[Rect<N>]) -> DataProfile {
    DataProfile::new(rects.len() as u64, density(rects.iter()))
}

/// One model-vs-measurement comparison of a join.
#[derive(Debug, Clone, Copy)]
pub struct JoinObservation {
    /// Node accesses counted by the executor.
    pub exper_na: u64,
    /// Disk accesses counted by the executor under path buffers.
    pub exper_da: u64,
    /// Eq 7/11 estimate.
    pub anal_na: f64,
    /// Eq 10/12 estimate.
    pub anal_da: f64,
}

impl JoinObservation {
    /// Relative NA error `|anal − exper| / exper`.
    pub fn err_na(&self) -> f64 {
        rel_err(self.anal_na, self.exper_na as f64)
    }

    /// Relative DA error.
    pub fn err_da(&self) -> f64 {
        rel_err(self.anal_da, self.exper_da as f64)
    }
}

/// The name a scheduler goes by in the experiments' output and CSVs.
pub fn scheduler_name(scheduler: Scheduler) -> &'static str {
    match scheduler {
        Scheduler::Sequential => "sequential",
        Scheduler::CostGuided { .. } => "cost-guided",
        Scheduler::RoundRobin { .. } => "round-robin",
    }
}

/// Relative error with a zero-measurement guard.
pub fn rel_err(estimate: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate - measured).abs() / measured
    }
}

/// Runs the instrumented SJ join through the session front door with
/// path buffers and pair collection off — the configuration every
/// accuracy study uses, since one run then yields both NA and DA.
pub fn run_counting_join<const N: usize>(t1: &RTree<N>, t2: &RTree<N>) -> JoinResultSet {
    JoinSession::new(t1, t2)
        .config(JoinConfig {
            buffer: BufferPolicy::Path,
            collect_pairs: false,
            ..JoinConfig::default()
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result
}

/// Runs the instrumented join (path buffers — one run yields both NA and
/// DA) and evaluates the analytical model from the given profiles.
pub fn observe_join<const N: usize>(
    t1: &RTree<N>,
    t2: &RTree<N>,
    prof1: DataProfile,
    prof2: DataProfile,
) -> JoinObservation {
    let result = run_counting_join(t1, t2);
    let cfg = ModelConfig::paper(N);
    let p1 = TreeParams::<N>::from_data(prof1, &cfg);
    let p2 = TreeParams::<N>::from_data(prof2, &cfg);
    JoinObservation {
        exper_na: result.na_total(),
        exper_da: result.da_total(),
        anal_na: join::join_cost_na(&p1, &p2),
        anal_da: join::join_cost_da(&p1, &p2),
    }
}

/// Like [`observe_join`] but with explicitly supplied analytical
/// parameters (used by the parameter-source ablation and the non-uniform
/// experiments, which compute parameters differently).
pub fn observe_join_with_params<const N: usize>(
    t1: &RTree<N>,
    t2: &RTree<N>,
    p1: &TreeParams<N>,
    p2: &TreeParams<N>,
) -> JoinObservation {
    let result = run_counting_join(t1, t2);
    JoinObservation {
        exper_na: result.na_total(),
        exper_da: result.da_total(),
        anal_na: join::join_cost_na(p1, p2),
        anal_da: join::join_cost_da(p1, p2),
    }
}

/// The paper's cardinality grid, scaled (scale 1.0 → 20K/40K/60K/80K).
pub fn cardinality_grid(scale: f64) -> Vec<usize> {
    [20_000.0, 40_000.0, 60_000.0, 80_000.0]
        .iter()
        .map(|n| (n * scale).round().max(100.0) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcm_datagen::uniform::{generate, UniformConfig};

    #[test]
    fn grid_scaling() {
        assert_eq!(cardinality_grid(1.0), vec![20_000, 40_000, 60_000, 80_000]);
        assert_eq!(cardinality_grid(0.1), vec![2_000, 4_000, 6_000, 8_000]);
        // Floor prevents degenerate workloads.
        assert_eq!(cardinality_grid(1e-9), vec![100, 100, 100, 100]);
    }

    #[test]
    fn run_opts_validates_fail_fast() {
        let ok = RunOpts::new(PathBuf::from("results"), 0.5, 4, None);
        assert!(ok.is_ok());
        for bad_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                RunOpts::new(PathBuf::from("results"), bad_scale, 4, None).is_err(),
                "scale {bad_scale} must be rejected"
            );
        }
        assert!(RunOpts::new(PathBuf::from("results"), 1.0, 0, None).is_err());
    }

    #[test]
    fn rel_err_guards_zero() {
        assert_eq!(rel_err(0.0, 0.0), 0.0);
        assert_eq!(rel_err(5.0, 0.0), f64::INFINITY);
        assert!((rel_err(110.0, 100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn profile_and_measured_params_consistent() {
        let rects = generate::<2>(UniformConfig::new(2_000, 0.4, 1));
        let prof = profile_of(&rects);
        assert_eq!(prof.cardinality, 2_000);
        assert!((prof.density - 0.4).abs() < 1e-9);
        let tree = build_tree(&rects);
        let params = sjcm_join::measured_params::<2>(&tree.stats());
        assert_eq!(params.height(), tree.height());
        assert_eq!(
            params.level(params.height()).nodes,
            1.0,
            "root level has one node"
        );
    }

    #[test]
    fn observe_join_produces_consistent_bounds() {
        let a = generate::<2>(UniformConfig::new(1_500, 0.4, 2));
        let b = generate::<2>(UniformConfig::new(1_500, 0.4, 3));
        let ta = build_tree(&a);
        let tb = build_tree(&b);
        let obs = observe_join(&ta, &tb, profile_of(&a), profile_of(&b));
        assert!(obs.exper_da <= obs.exper_na);
        assert!(obs.anal_na > 0.0);
        assert!(obs.err_na().is_finite());
        assert!(obs.err_da().is_finite());
    }
}
