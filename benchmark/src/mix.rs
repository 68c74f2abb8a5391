//! The `query-mix` workload: a catalog of three packed sets and a seeded
//! stream of small optimizer queries drawn from a pool of templates.

use crate::stats::{sub_seed, SplitMix64};
use crate::workload::{with_ids, Facts, LayerInputs, Params, Scope, Workload};
use sjcm::datagen::uniform;
use sjcm::exec::PlanExecutor;
use sjcm::geom::{density, Rect};
use sjcm::join::{JoinConfig, JoinSession};
use sjcm::model::join::{join_cost_da, join_cost_na};
use sjcm::model::{ModelConfig, TreeParams};
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, Planner};
use sjcm::rtree::{BulkLoad, RTree, RTreeConfig};
use sjcm::storage::{FilePageStore, DEFAULT_PAGE_SIZE};

/// `(name, cardinality, density)` of the catalog's sets.
const SETS: [(&str, usize, f64); 3] = [
    ("rivers", 20_000, 0.2),
    ("countries", 6_000, 0.4),
    ("cities", 10_000, 0.1),
];

/// Templates per class in the pool of 64: 40 % selections, 30 % joins
/// with a pushed-down window, 10 % full joins, 20 % three-way plans.
const POOL: [(Class, usize); 4] = [
    (Class::Select, 26),
    (Class::Join2Sel, 19),
    (Class::Join2, 6),
    (Class::Plan3, 13),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Window selection on one set.
    Select,
    /// Two-way join with a window on the first set.
    Join2Sel,
    /// Full two-way join.
    Join2,
    /// Three-way chain: planned, never executed (`PlanExecutor`
    /// documents `UnsupportedShape` for chains deeper than two).
    Plan3,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Select => "select",
            Class::Join2Sel => "join2_sel",
            Class::Join2 => "join2",
            Class::Plan3 => "plan3",
        }
    }
}

/// One query of the pool with what it must return.
struct Template {
    class: Class,
    query: JoinQuery<2>,
    /// Indexes into the catalog's sets, in query order.
    sets: Vec<usize>,
    /// Brute-forced row count (executed classes) or the planner's cost
    /// bits (`Plan3`), fixed in set-up.
    expected: u64,
}

struct Built {
    sets: [Vec<Rect<2>>; 3],
    trees: [RTree<2>; 3],
    catalog: Catalog<2>,
    pages: usize,
}

pub struct Mix {
    params: Params,
    built: Option<Built>,
    templates: Vec<Template>,
    stream: SplitMix64,
    /// The template the stream drew last.
    current: usize,
    facts: Facts,
}

/// Objects a query window covers, whichever set it is on: a window's
/// side is fixed by its set's cardinality and only its position is drawn,
/// so that on uniform data every query of a class costs about the same,
/// whatever the set and whatever the seed.
const WINDOW_OBJECTS: f64 = 800.0;

fn window(rng: &mut SplitMix64, set: usize) -> Rect<2> {
    let side = (WINDOW_OBJECTS / SETS[set].1 as f64).sqrt();
    let lo = [0, 1].map(|_| rng.range_f64(0.0, 1.0 - side));
    Rect::new(lo, lo.map(|c| c + side)).expect("lo < hi by construction")
}

/// The `n`-th ordered choice of `k` distinct sets out of three.
fn ordered_sets(n: usize, k: usize) -> Vec<usize> {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [1, 0, 2],
        [0, 2, 1],
        [2, 0, 1],
        [1, 2, 0],
        [2, 1, 0],
    ];
    ORDERS[n % 6][..k].to_vec()
}

impl Mix {
    pub fn new(params: Params) -> Self {
        let stream = SplitMix64::new(sub_seed(params.seed, 20));
        Mix {
            params,
            built: None,
            templates: Vec::new(),
            stream,
            current: 0,
            facts: Facts::default(),
        }
    }

    /// The pool, from the seed alone; `expected` is filled in by set-up.
    fn make_templates(&self) -> Vec<Template> {
        let mut rng = SplitMix64::new(sub_seed(self.params.seed, 10));
        let mut out = Vec::new();
        for (class, count) in POOL {
            for i in 0..count {
                let sets = match class {
                    Class::Select => vec![i % 3],
                    Class::Join2Sel | Class::Join2 => ordered_sets(i, 2),
                    Class::Plan3 => ordered_sets(i, 3),
                };
                let mut query = JoinQuery::new(sets.iter().map(|&s| SETS[s].0));
                // Every third three-way query also carries a window.
                if matches!(class, Class::Select | Class::Join2Sel)
                    || (class == Class::Plan3 && i % 3 == 0)
                {
                    query = query.with_selection(SETS[sets[0]].0, window(&mut rng, sets[0]));
                }
                out.push(Template {
                    class,
                    query,
                    sets,
                    expected: 0,
                });
            }
        }
        out
    }

    fn build(&self, scope: &Scope) -> Result<Built, String> {
        let p = &self.params;
        let sets = scope.stage("datagen.generate", |_| {
            [0, 1, 2].map(|i| {
                let (_, n, d) = SETS[i];
                uniform::generate::<2>(uniform::UniformConfig::new(
                    p.scaled(n),
                    d,
                    sub_seed(p.seed, i as u64 + 1),
                ))
            })
        });
        let trees = scope.stage("rtree.bulk_load", |span| {
            span.set("ops", sets.iter().map(Vec::len).sum::<usize>());
            [0, 1, 2].map(|i| {
                RTree::bulk_load(
                    RTreeConfig::paper(2),
                    with_ids(&sets[i]),
                    BulkLoad::Str,
                    0.67,
                )
            })
        });
        let pages = scope.stage("rtree.save", |_| {
            let mut pages = 0;
            for (i, tree) in trees.iter().enumerate() {
                let path = p.file(&format!("mix-{}.pages", SETS[i].0));
                let mut store = FilePageStore::create(&path, DEFAULT_PAGE_SIZE)
                    .map_err(|e| format!("create store: {e}"))?;
                pages += tree
                    .save(&mut store)
                    .map_err(|e| format!("save: {e}"))?
                    .pages;
            }
            Ok::<_, String>(pages)
        })?;
        let densities = scope.stage("geom.density", |_| {
            [0, 1, 2].map(|i| density(sets[i].iter()))
        });
        let catalog = scope.stage("optimizer.catalog", |_| {
            let mut catalog = Catalog::<2>::new();
            for i in 0..3 {
                catalog.register(
                    SETS[i].0,
                    DatasetStats::new(sets[i].len() as u64, densities[i]),
                );
            }
            // The round trip a catalog makes between `build` and `query`.
            let path = p.file("mix-catalog.json");
            catalog
                .save(&path)
                .map_err(|e| format!("save catalog: {e}"))?;
            Catalog::<2>::load(&path).map_err(|e| format!("load catalog: {e}"))
        })?;
        Ok(Built {
            sets,
            trees,
            catalog,
            pages,
        })
    }

    /// Rows the template must return, by brute force over the raw sets.
    fn brute_force(built: &Built, t: &Template, full_joins: &mut [[Option<u64>; 3]; 3]) -> u64 {
        let hits = |set: usize, w: &Rect<2>| -> Vec<Rect<2>> {
            built.sets[set]
                .iter()
                .copied()
                .filter(|r| r.intersects(w))
                .collect()
        };
        let count_pairs = |left: &[Rect<2>], right: &[Rect<2>]| -> u64 {
            left.iter()
                .map(|a| right.iter().filter(|b| a.intersects(b)).count() as u64)
                .sum()
        };
        let w = t.query.selections.first().map(|(_, w)| w);
        match t.class {
            Class::Select => hits(t.sets[0], w.expect("select has a window")).len() as u64,
            Class::Join2Sel => count_pairs(
                &hits(t.sets[0], w.expect("join2_sel has a window")),
                &built.sets[t.sets[1]],
            ),
            Class::Join2 => {
                let (a, b) = (t.sets[0].min(t.sets[1]), t.sets[0].max(t.sets[1]));
                *full_joins[a][b].get_or_insert_with(|| count_pairs(&built.sets[a], &built.sets[b]))
            }
            Class::Plan3 => unreachable!("three-way templates are never executed"),
        }
    }

    /// Plans the template and, unless it is plan-only, executes it.
    /// Returns the row count (or the plan's cost bits).
    fn run_template(built: &Built, t: &Template, scope: &Scope) -> Result<u64, String> {
        let plan = scope.stage("optimizer.best_plan", |span| {
            span.set("class", t.class.label());
            Planner::new(&built.catalog).best_plan(&t.query)
        });
        let plan = plan.map_err(|e| format!("{}: plan: {e}", t.class.label()))?;
        if t.class == Class::Plan3 {
            return Ok(plan.total_cost.to_bits());
        }
        scope.stage("exec.run", |span| {
            span.set("class", t.class.label());
            let mut exec = PlanExecutor::<2>::new();
            for (i, (name, _, _)) in SETS.iter().enumerate() {
                exec = exec.bind(name, &built.trees[i], &built.sets[i]);
            }
            let out = exec
                .run(&plan)
                .map_err(|e| format!("{}: execute: {e}", t.class.label()))?;
            span.set("rows", out.rows.len());
            Ok(out.rows.len() as u64)
        })
    }

    fn check(t: &Template, got: u64) -> Result<(), String> {
        if got == t.expected {
            Ok(())
        } else {
            Err(format!(
                "{} over {:?} returned {got}, expected {}",
                t.class.label(),
                t.query.datasets,
                t.expected
            ))
        }
    }

    /// Eq 7/10 against a measured SJ for each full-join template.
    fn model_facts(&mut self, built: &Built) -> Result<(), String> {
        let config = ModelConfig::paper(2);
        let no_pairs = JoinConfig {
            collect_pairs: false,
            ..JoinConfig::default()
        };
        for t in self.templates.iter().filter(|t| t.class == Class::Join2) {
            let [a, b] = [t.sets[0], t.sets[1]];
            let params = [a, b].map(|s| {
                let stats = built.catalog.get(SETS[s].0).expect("registered");
                TreeParams::<2>::from_data(stats.profile, &config)
            });
            let measured = JoinSession::new(&built.trees[a], &built.trees[b])
                .config(no_pairs)
                .run()
                .map_err(|e| format!("join: {e}"))?
                .result;
            self.facts.na.push((
                join_cost_na(&params[0], &params[1]),
                measured.na_total() as f64,
            ));
            self.facts.da.push((
                join_cost_da(&params[0], &params[1]),
                measured.da_total() as f64,
            ));
        }
        Ok(())
    }
}

impl Workload for Mix {
    fn set_up(&mut self, scope: &Scope) -> Result<(), String> {
        let built = scope.nested("setup.build", |scope| self.build(scope))?;
        let mut bytes = 0;
        for entry in [
            "rivers.pages",
            "countries.pages",
            "cities.pages",
            "catalog.json",
        ] {
            bytes += std::fs::metadata(self.params.file(&format!("mix-{entry}")))
                .map_err(|e| format!("stat: {e}"))?
                .len();
        }
        self.facts = Facts {
            disk_bytes: bytes,
            objects: built.sets.iter().map(|s| s.len() as u64).sum(),
            ..Facts::default()
        };
        // Oracle and warm-up in one: every template runs once and is
        // checked against a brute-force count over the raw rectangles.
        let mut templates = self.make_templates();
        scope.nested("setup.oracle", |inner| {
            let mut full_joins = [[None; 3]; 3];
            for t in &mut templates {
                let got = Self::run_template(&built, t, inner)?;
                t.expected = match t.class {
                    Class::Plan3 => got,
                    _ => Self::brute_force(&built, t, &mut full_joins),
                };
                Self::check(t, got)?;
            }
            Ok::<_, String>(())
        })?;
        self.templates = templates;
        self.model_facts(&built)?;
        self.built = Some(built);
        Ok(())
    }

    fn build_pass(&mut self, scope: &Scope) -> Result<(), String> {
        let fresh = self.build(scope)?;
        let first = self.built.as_ref().ok_or("build before set-up")?;
        if fresh.pages != first.pages || fresh.catalog.to_json() != first.catalog.to_json() {
            return Err("build pass produced a different catalog".to_string());
        }
        Ok(())
    }

    fn query_pass(&mut self, scope: &Scope, again: bool) -> Result<(), String> {
        let built = self.built.as_ref().ok_or("query before set-up")?;
        if !again {
            self.current = self.stream.below(self.templates.len());
        }
        let t = &self.templates[self.current];
        let got = Self::run_template(built, t, scope)?;
        Self::check(t, got)
    }

    fn build_share(&self) -> f64 {
        0.2
    }

    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn with_layer_inputs(&self, f: &mut dyn FnMut(&LayerInputs)) -> Result<(), String> {
        let built = self.built.as_ref().ok_or("layer inputs before set-up")?;
        f(&LayerInputs {
            names: [SETS[0].0, SETS[1].0, SETS[2].0],
            sets: [&built.sets[0], &built.sets[1], &built.sets[2]],
            trees: [&built.trees[0], &built.trees[1], &built.trees[2]],
            catalog: &built.catalog,
            dir: &self.params.dir,
            threads: self.params.threads,
            seed: self.params.seed,
        });
        Ok(())
    }

    fn clean_up(&mut self) {
        for entry in [
            "rivers.pages",
            "countries.pages",
            "cities.pages",
            "catalog.json",
        ] {
            let _ = std::fs::remove_file(self.params.file(&format!("mix-{entry}")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_has_64_templates_in_the_stated_shares() {
        assert_eq!(POOL.iter().map(|(_, n)| n).sum::<usize>(), 64);
        let mix = Mix::new(Params {
            seed: 3,
            scale: 0.05,
            threads: 1,
            dir: "unused".into(),
        });
        let pool = mix.make_templates();
        assert_eq!(pool.len(), 64);
        for t in &pool {
            let want = match t.class {
                Class::Select => 1,
                Class::Join2Sel | Class::Join2 => 2,
                Class::Plan3 => 3,
            };
            assert_eq!(t.query.datasets.len(), want);
            let mut distinct = t.sets.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), want, "a set joined with itself");
        }
        // The same seed makes the same pool.
        let again = mix.make_templates();
        for (a, b) in pool.iter().zip(&again) {
            assert_eq!(a.query.selections, b.query.selections);
        }
    }
}
