//! The three pipeline workloads: generate → index → persist, then
//! open → estimate → join → emit, at the paper's scale.

use crate::stats::{sub_seed, SplitMix64};
use crate::workload::{pair_checksum, with_ids, Facts, LayerInputs, Params, Scope, Workload};
use sjcm::datagen::{skewed, tiger, uniform};
use sjcm::geom::{density, Rect};
use sjcm::join::baselines::nested_loop_join;
use sjcm::join::{
    BufferPolicy, JoinConfig, JoinObs, JoinResultSet, JoinSession, MatchKernel, PbsmSession,
    Scheduler,
};
use sjcm::model::join::{join_cost_da, join_cost_na};
use sjcm::model::nonuniform::join_cost_nonuniform;
use sjcm::model::{DataProfile, DensitySurface, ModelConfig, TreeParams};
use sjcm::optimizer::{Catalog, DatasetStats};
use sjcm::rtree::{BulkLoad, ObjectId, PersistedTree, RTree, RTreeConfig};
use sjcm::storage::{FilePageStore, DEFAULT_PAGE_SIZE};
use std::path::PathBuf;

/// Fill factor of the packed trees: the paper's average node
/// utilisation c = 67 %, which `ModelConfig::paper` also assumes.
const STR_FILL: f64 = 0.67;
/// Grid of the density surfaces (as in the repository's examples).
const SURFACE_GRID: usize = 8;
/// Seed of the cluster centres, shared by both sets and by every run:
/// where the clusters lie is part of the workload, like N and D (it
/// decides how much they overlap, hence the result size within ±25 %);
/// the objects around them come from `--seed`.
const CLUSTER_CENTERS: u64 = 1998;
/// Generator seeds of the TIGER-like road and hydrography maps. The
/// paper joined one fixed pair of real maps; the generator's seed decides
/// the whole geography (eight settlements), so two seeds are two
/// different countries whose join costs differ by tens of percent. The
/// maps are therefore fixed, and `--seed` decides the order in which
/// their segments arrive (and so their ids and the shape of the
/// insertion-built trees).
const TIGER_MAP: [u64; 2] = [1998, 1999];
/// PBSM partitions per dimension and entries per simulated page.
const PBSM_GRID: usize = 32;
const PBSM_PAGE: usize = 50;
/// Objects per side of the prefix that is also checked by nested loop.
const NESTED_LOOP_PREFIX: u32 = 3_000;

/// Which generator makes the two sets.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// Uniform N × N at density 0.5 (paper §4).
    Uniform,
    /// Gaussian clusters around shared centres.
    Cluster,
    /// TIGER-like roads × hydrography.
    Tiger,
}

/// The fixed description of one pipeline workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub data: Data,
    pub n: [usize; 2],
    /// Build by R*-tree insertion, one object at a time, instead of STR.
    pub insert: bool,
    /// Join under `Scheduler::CostGuided` instead of the sequential SJ.
    pub parallel: bool,
    /// Estimate with the density-surface model instead of Eqs 7/10.
    pub surface: bool,
    pub build_share: f64,
}

pub const UNIFORM: Spec = Spec {
    data: Data::Uniform,
    n: [60_000, 60_000],
    insert: false,
    parallel: false,
    surface: false,
    build_share: 0.25,
};

pub const CLUSTER: Spec = Spec {
    data: Data::Cluster,
    n: [60_000, 60_000],
    insert: false,
    parallel: true,
    surface: true,
    build_share: 0.25,
};

pub const TIGER: Spec = Spec {
    data: Data::Tiger,
    n: [80_000, 20_000],
    insert: true,
    parallel: false,
    surface: true,
    build_share: 0.55,
};

/// One persisted index and the statistics a catalog keeps about it.
#[derive(Debug, Clone)]
struct Persisted {
    path: PathBuf,
    handle: PersistedTree,
    config: RTreeConfig,
    profile: DataProfile,
    surface: Option<DensitySurface<2>>,
}

/// What every timed query pass must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub pairs: u64,
    pub checksum: u64,
    pub na: u64,
}

impl Reference {
    /// Checks one pass's result against the reference.
    pub fn check(&self, pairs: u64, checksum: u64, na: u64) -> Result<(), String> {
        if (pairs, checksum, na) == (self.pairs, self.checksum, self.na) {
            Ok(())
        } else {
            Err(format!(
                "result (pairs {pairs}, checksum {checksum:#x}, NA {na}) differs from the reference \
                 (pairs {}, checksum {:#x}, NA {})",
                self.pairs, self.checksum, self.na
            ))
        }
    }
}

pub struct Pipeline {
    spec: Spec,
    params: Params,
    /// The indexes the query loop opens; written by the set-up's build.
    kept: Option<[Persisted; 2]>,
    reference: Option<Reference>,
    facts: Facts,
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Pipeline {
    pub fn new(spec: Spec, params: Params) -> Self {
        Pipeline {
            spec,
            params,
            kept: None,
            reference: None,
            facts: Facts::default(),
        }
    }

    fn generate(&self) -> [Vec<Rect<2>>; 2] {
        let p = &self.params;
        let n = [p.scaled(self.spec.n[0]), p.scaled(self.spec.n[1])];
        let seeds = [sub_seed(p.seed, 1), sub_seed(p.seed, 2)];
        match self.spec.data {
            Data::Uniform => [0, 1]
                .map(|i| uniform::generate::<2>(uniform::UniformConfig::new(n[i], 0.5, seeds[i]))),
            Data::Cluster => [0, 1].map(|i| {
                skewed::gaussian_clusters::<2>(
                    skewed::ClusterConfig::new(n[i], 0.5, seeds[i])
                        .with_center_seed(CLUSTER_CENTERS),
                )
            }),
            Data::Tiger => {
                let mut maps = [
                    tiger::generate(tiger::TigerConfig::roads(n[0], TIGER_MAP[0])),
                    tiger::generate(tiger::TigerConfig::hydro(n[1], TIGER_MAP[1])),
                ];
                for (map, seed) in maps.iter_mut().zip(seeds) {
                    SplitMix64::new(seed).shuffle(map);
                }
                maps
            }
        }
    }

    fn index(&self, rects: &[Rect<2>]) -> RTree<2> {
        let config = RTreeConfig::paper(2);
        if self.spec.insert {
            let mut tree = RTree::new(config);
            for (rect, id) in with_ids(rects) {
                tree.insert(rect, id);
            }
            tree
        } else {
            RTree::bulk_load(config, with_ids(rects), BulkLoad::Str, STR_FILL)
        }
    }

    /// Generate, measure, index and persist both sets under the file
    /// stem `stem`.
    fn build(&self, scope: &Scope, stem: &str) -> Result<[Persisted; 2], String> {
        let sets = scope.stage("datagen.generate", |_| self.generate());
        let densities = scope.stage("geom.density", |_| [0, 1].map(|i| density(sets[i].iter())));
        let mut surfaces = scope.stage("core.surface_build", |_| {
            [0, 1].map(|i| {
                self.spec
                    .surface
                    .then(|| DensitySurface::<2>::from_rects(&sets[i], SURFACE_GRID))
            })
        });
        let stage = if self.spec.insert {
            "rtree.insert"
        } else {
            "rtree.bulk_load"
        };
        let trees = scope.stage(stage, |span| {
            span.set("ops", sets[0].len() + sets[1].len());
            [0, 1].map(|i| self.index(&sets[i]))
        });
        let paths = [1, 2].map(|i| self.params.file(&format!("{stem}-r{i}.pages")));
        let handles = scope.stage("rtree.save", |_| {
            let mut handles = Vec::new();
            for (tree, path) in trees.iter().zip(&paths) {
                let mut store =
                    FilePageStore::create(path, DEFAULT_PAGE_SIZE).map_err(err("create store"))?;
                handles.push(tree.save(&mut store).map_err(err("save"))?);
            }
            Ok::<_, String>(handles)
        })?;
        Ok([0, 1].map(|i| Persisted {
            path: paths[i].clone(),
            handle: handles[i],
            config: *trees[i].config(),
            profile: DataProfile::new(sets[i].len() as u64, densities[i]),
            surface: surfaces[i].take(),
        }))
    }

    fn open(kept: &[Persisted; 2]) -> Result<[RTree<2>; 2], String> {
        let load = |p: &Persisted| {
            let store =
                FilePageStore::open(&p.path, DEFAULT_PAGE_SIZE).map_err(err("open store"))?;
            RTree::<2>::load(&store, p.handle, p.config).map_err(err("load"))
        };
        Ok([load(&kept[0])?, load(&kept[1])?])
    }

    /// (NA, DA) predicted from (N, D) alone, or from the density
    /// surfaces on the non-uniform workloads.
    fn estimate(kept: &[Persisted; 2]) -> (f64, f64) {
        let config = ModelConfig::paper(2);
        match (&kept[0].surface, &kept[1].surface) {
            (Some(s1), Some(s2)) => {
                join_cost_nonuniform(kept[0].profile, s1, kept[1].profile, s2, &config)
            }
            _ => {
                let p1 = TreeParams::<2>::from_data(kept[0].profile, &config);
                let p2 = TreeParams::<2>::from_data(kept[1].profile, &config);
                (join_cost_na(&p1, &p2), join_cost_da(&p1, &p2))
            }
        }
    }

    fn scheduler(&self) -> Scheduler {
        if self.spec.parallel {
            Scheduler::CostGuided {
                threads: self.params.threads,
            }
        } else {
            Scheduler::Sequential
        }
    }

    /// Open, estimate, join, emit. Returns (pairs, checksum, NA).
    fn query(&self, scope: &Scope) -> Result<(u64, u64, u64), String> {
        let kept = self.kept.as_ref().ok_or("query before set-up")?;
        let trees = scope.stage("rtree.load", |_| Self::open(kept))?;
        let predicted = scope.stage("core.estimate", |_| Self::estimate(kept));
        std::hint::black_box(predicted);
        let result = scope.stage("join.run", |span| {
            let result = run_join(
                &trees[0],
                &trees[1],
                self.scheduler(),
                JoinConfig::default(),
                scope,
            )?;
            span.set("na", result.na_total());
            span.set("pairs", result.pair_count);
            Ok::<_, String>(result)
        })?;
        let checksum = scope.stage("exec.checksum", |_| pair_checksum(&result.pairs));
        Ok((result.pair_count, checksum, result.na_total()))
    }

    /// The oracle: the reference pair multiset comes from PBSM, which
    /// uses no index, over the objects exactly as persisted (`f32`
    /// outward rounding widens a few rectangles into touching), and must
    /// equal the scalar-kernel sequential SJ result; a prefix is checked
    /// by nested loop as well.
    fn oracle(&mut self, kept: &[Persisted; 2]) -> Result<(u64, u64), String> {
        let trees = Self::open(kept)?;
        let n = [kept[0].profile.cardinality, kept[1].profile.cardinality];
        for (tree, n) in trees.iter().zip(n) {
            tree.check_invariants_with_tolerance(1e-5)
                .map_err(err("re-opened tree"))?;
            if tree.len() as u64 != n {
                return Err(format!(
                    "re-opened tree holds {} of {n} objects",
                    tree.len()
                ));
            }
        }
        if self.spec.insert && trees[0].height() == trees[1].height() {
            return Err(format!(
                "both trees have height {}: Eqs 11-12 (unequal heights) are not exercised",
                trees[0].height()
            ));
        }
        let objects = [trees[0].objects(), trees[1].objects()];
        let mut reference = PbsmSession::new(&objects[0], &objects[1], PBSM_GRID, PBSM_PAGE)
            .run()
            .map_err(err("PBSM"))?
            .result
            .pairs;
        reference.sort_unstable();
        let scalar = JoinConfig {
            kernel: MatchKernel::Scalar,
            ..JoinConfig::default()
        };
        let sj = JoinSession::new(&trees[0], &trees[1])
            .config(scalar)
            .run()
            .map_err(err("scalar SJ"))?
            .result;
        let mut sj_pairs = sj.pairs.clone();
        sj_pairs.sort_unstable();
        if sj_pairs != reference {
            return Err(format!(
                "scalar SJ found {} pairs, PBSM {}: the multisets differ",
                sj_pairs.len(),
                reference.len()
            ));
        }
        let prefix = |objs: &[(Rect<2>, ObjectId)]| -> Vec<(Rect<2>, ObjectId)> {
            let mut v: Vec<_> = objs
                .iter()
                .copied()
                .filter(|(_, id)| id.0 < NESTED_LOOP_PREFIX)
                .collect();
            v.sort_unstable_by_key(|(_, id)| *id);
            v
        };
        let mut brute = nested_loop_join(&prefix(&objects[0]), &prefix(&objects[1]));
        brute.sort_unstable();
        let expected: Vec<_> = reference
            .iter()
            .copied()
            .filter(|(a, b)| a.0 < NESTED_LOOP_PREFIX && b.0 < NESTED_LOOP_PREFIX)
            .collect();
        if brute != expected {
            return Err(format!(
                "nested loop over the prefix found {} pairs, the reference holds {}",
                brute.len(),
                expected.len()
            ));
        }
        let (na, da) = Self::estimate(kept);
        self.facts.na = vec![(na, sj.na_total() as f64)];
        self.facts.da = vec![(da, sj.da_total() as f64)];
        Ok((reference.len() as u64, pair_checksum(&reference)))
    }
}

/// One join through the front door, with the harness's tracer handed to
/// the session so the program's own spans land in the same trace.
pub fn run_join(
    r1: &RTree<2>,
    r2: &RTree<2>,
    scheduler: Scheduler,
    config: JoinConfig,
    scope: &Scope,
) -> Result<JoinResultSet, String> {
    let obs = JoinObs {
        tracer: scope.tracer.clone(),
        ..JoinObs::default()
    };
    let out = JoinSession::new(r1, r2)
        .config(JoinConfig {
            buffer: BufferPolicy::Path,
            ..config
        })
        .scheduler(scheduler)
        .observe(&obs)
        .run()
        .map_err(err("join"))?;
    if !out.is_exact() {
        return Err("join forfeited work".to_string());
    }
    Ok(out.result)
}

impl Workload for Pipeline {
    fn set_up(&mut self, scope: &Scope) -> Result<(), String> {
        let kept = scope.nested("setup.build", |scope| self.build(scope, "query"))?;
        let mut bytes = 0;
        for p in &kept {
            bytes += std::fs::metadata(&p.path).map_err(err("stat"))?.len();
        }
        self.facts.disk_bytes = bytes;
        self.facts.objects = kept[0].profile.cardinality + kept[1].profile.cardinality;
        let (pairs, checksum) = scope.stage("setup.oracle", |_| self.oracle(&kept))?;
        self.kept = Some(kept);
        // The warm-up pass also fixes the NA every later pass must repeat.
        let (p, c, na) = scope.nested("setup.warmup", |scope| self.query(scope))?;
        let reference = Reference {
            pairs,
            checksum,
            na,
        };
        reference.check(p, c, na)?;
        self.reference = Some(reference);
        Ok(())
    }

    fn build_pass(&mut self, scope: &Scope) -> Result<(), String> {
        // Every pass overwrites the same two files (deleted at the end),
        // so the directory does not grow during a run.
        let built = self.build(scope, "build")?;
        let expected = self.kept.as_ref().ok_or("build before set-up")?;
        for (b, k) in built.iter().zip(expected) {
            if b.handle.pages != k.handle.pages || b.profile != k.profile {
                return Err(format!(
                    "build wrote {} pages, the set-up's build {}",
                    b.handle.pages, k.handle.pages
                ));
            }
        }
        Ok(())
    }

    fn query_pass(&mut self, scope: &Scope, _again: bool) -> Result<(), String> {
        let (pairs, checksum, na) = self.query(scope)?;
        self.reference
            .as_ref()
            .ok_or("query before set-up")?
            .check(pairs, checksum, na)
    }

    fn build_share(&self) -> f64 {
        self.spec.build_share
    }

    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn with_layer_inputs(&self, f: &mut dyn FnMut(&LayerInputs)) -> Result<(), String> {
        let kept = self.kept.as_ref().ok_or("layer inputs before set-up")?;
        let [a, b] = self.generate();
        let [t1, t2] = Self::open(kept)?;
        // A third relation, so that three-way plans have something to
        // order: a sixth of the first set, packed.
        let c = a[..a.len() / 6].to_vec();
        let t3 = RTree::bulk_load(RTreeConfig::paper(2), with_ids(&c), BulkLoad::Str, STR_FILL);
        let names = ["r1", "r2", "r3"];
        let mut catalog = Catalog::<2>::new();
        for (name, set) in names.iter().zip([&a, &b, &c]) {
            catalog.register(
                name,
                DatasetStats::new(set.len() as u64, density(set.iter())),
            );
        }
        f(&LayerInputs {
            names,
            sets: [&a, &b, &c],
            trees: [&t1, &t2, &t3],
            catalog: &catalog,
            dir: &self.params.dir,
            threads: self.params.threads,
            seed: self.params.seed,
        });
        Ok(())
    }

    fn clean_up(&mut self) {
        for stem in ["query", "build"] {
            for i in 1..=2 {
                let _ = std::fs::remove_file(self.params.file(&format!("{stem}-r{i}.pages")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_fails_the_pass() {
        let reference = Reference {
            pairs: 10,
            checksum: 0xABCD,
            na: 99,
        };
        assert!(reference.check(10, 0xABCD, 99).is_ok());
        assert!(reference.check(10, 0xABCE, 99).is_err());
        assert!(reference.check(11, 0xABCD, 99).is_err());
        assert!(reference.check(10, 0xABCD, 98).is_err());
    }
}
