//! `sjcm` — command-line front end for the spatial-join cost-model
//! toolkit (2-D).
//!
//! ```text
//! sjcm gen      --kind uniform --n 20000 --density 0.5 --seed 1 --out data.json
//! sjcm build    --data data.json --out tree.pages
//! sjcm stats    --tree tree.pages
//! sjcm estimate --n1 60000 --d1 0.5 --n2 20000 --d2 0.5 [--corrected]
//! sjcm join     --tree1 a.pages --tree2 b.pages [--buffer path|none|lru:256]
//! sjcm explain  --datasets rivers:60000:0.2,countries:20000:0.4 \
//!               [--select rivers:0,0,0.45,1]
//! ```
//!
//! Datasets are JSON arrays of rectangles (`[[lo…],[hi…]]`); trees are
//! persisted in the paper's 1 KiB page format with a small JSON sidecar
//! (`<file>.meta`).

use sjcm::geom::{density, Rect};
use sjcm::json;
use sjcm::model::join::{join_cost_da, join_cost_na};
use sjcm::model::selectivity::join_selectivity;
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, Planner};
use sjcm::prelude::*;
use sjcm::rtree::persist::PersistedTree;
use sjcm::storage::{FilePageStore, PageId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), String>;

/// The one tree format this binary writes and reads: the paper's 1 KiB
/// pages, two dimensions. Stored in the `.meta` sidecar and checked on
/// load.
const PAGE_SIZE: usize = 1024;
const DIMS: usize = 2;

fn run() -> CliResult {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "build" => cmd_build(&flags),
        "stats" => cmd_stats(&flags),
        "estimate" => cmd_estimate(&flags),
        "join" => cmd_join(&flags),
        "explain" => cmd_explain(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: sjcm <gen|build|stats|estimate|join|explain|help> [--flag value]...\n\
     run the doc comment at the top of src/bin/sjcm.rs for details"
        .to_string()
}

/// Flags that are boolean switches (present/absent, no value).
const SWITCH_FLAGS: &[&str] = &["corrected"];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?;
        if SWITCH_FLAGS.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn get_parse<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    get(flags, key)?
        .parse::<T>()
        .map_err(|e| format!("bad --{key}: {e}"))
}

/// Parses a data density: the generators and `DataProfile::new` assert
/// it finite and non-negative, so it is checked here, where it enters.
fn parse_density(text: &str, what: &str) -> Result<f64, String> {
    let d: f64 = text.parse().map_err(|e| format!("bad {what}: {e}"))?;
    if d.is_finite() && d >= 0.0 {
        Ok(d)
    } else {
        Err(format!(
            "bad {what}: density must be finite and ≥ 0, got {text}"
        ))
    }
}

// ---------------------------------------------------------------- gen

fn cmd_gen(flags: &HashMap<String, String>) -> CliResult {
    let kind = get(flags, "kind")?;
    let n: usize = get_parse(flags, "n")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let d = flags
        .get("density")
        .map(|s| parse_density(s, "--density"))
        .transpose()?
        .unwrap_or(0.5);
    let rects: Vec<Rect<2>> = match kind {
        "uniform" => {
            sjcm::datagen::uniform::generate(sjcm::datagen::uniform::UniformConfig::new(n, d, seed))
        }
        "clusters" => sjcm::datagen::skewed::gaussian_clusters(
            sjcm::datagen::skewed::ClusterConfig::new(n, d, seed),
        ),
        "powerlaw" => sjcm::datagen::skewed::power_law(n, d, 2.0, seed),
        "roads" => {
            sjcm::datagen::tiger::generate(sjcm::datagen::tiger::TigerConfig::roads(n, seed))
        }
        "hydro" => {
            sjcm::datagen::tiger::generate(sjcm::datagen::tiger::TigerConfig::hydro(n, seed))
        }
        other => {
            return Err(format!(
                "unknown --kind {other} (uniform|clusters|powerlaw|roads|hydro)"
            ))
        }
    };
    let out = PathBuf::from(get(flags, "out")?);
    let json = rects_to_json(&rects).to_string();
    std::fs::write(&out, json).map_err(|e| format!("write {out:?}: {e}"))?;
    println!(
        "wrote {} rectangles (D = {:.4}) to {}",
        rects.len(),
        density(rects.iter()),
        out.display()
    );
    Ok(())
}

// Rectangle datasets are stored as `[[[lo…],[hi…]], …]` — the same wire
// format the previous serde-based implementation produced.

fn rects_to_json(rects: &[Rect<2>]) -> json::Value {
    json::Value::Arr(
        rects
            .iter()
            .map(|r| {
                let corner = |p: [f64; 2]| {
                    json::Value::Arr(p.iter().map(|c| json::Value::Num(*c)).collect())
                };
                json::Value::Arr(vec![corner(r.lo().coords()), corner(r.hi().coords())])
            })
            .collect(),
    )
}

fn rects_from_json(v: &json::Value) -> Result<Vec<Rect<2>>, String> {
    let corner = |v: &json::Value| -> Result<[f64; 2], String> {
        let arr = v
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or("corner must be [x, y]")?;
        Ok([
            arr[0]
                .as_f64()
                .ok_or("corner coordinate must be a number")?,
            arr[1]
                .as_f64()
                .ok_or("corner coordinate must be a number")?,
        ])
    };
    v.as_arr()
        .ok_or("dataset must be a JSON array".to_string())?
        .iter()
        .map(|entry| {
            let pair = entry
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or("rectangle must be [lo, hi]")?;
            Rect::new(corner(&pair[0])?, corner(&pair[1])?).map_err(|e| e.to_string())
        })
        .collect()
}

fn load_rects(path: &Path) -> Result<Vec<Rect<2>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
    rects_from_json(&v).map_err(|e| format!("parse {path:?}: {e}"))
}

// -------------------------------------------------------------- build

fn cmd_build(flags: &HashMap<String, String>) -> CliResult {
    let data = PathBuf::from(get(flags, "data")?);
    let out = PathBuf::from(get(flags, "out")?);
    let rects = load_rects(&data)?;
    let mut tree = RTree::<DIMS>::new(RTreeConfig::paper(DIMS));
    for (i, r) in rects.iter().enumerate() {
        tree.insert(*r, ObjectId(i as u32));
    }
    tree.check_invariants()
        .map_err(|e| format!("built tree failed validation: {e}"))?;
    let mut store =
        FilePageStore::create(&out, PAGE_SIZE).map_err(|e| format!("create store: {e}"))?;
    let handle = tree.save(&mut store).map_err(|e| format!("save: {e}"))?;
    write_meta(&out, handle)?;
    println!(
        "built R*-tree over {} objects: h = {}, {} nodes, persisted to {} (+.meta)",
        tree.len(),
        tree.height(),
        tree.node_count(),
        out.display()
    );
    Ok(())
}

fn meta_path(store: &Path) -> PathBuf {
    let mut p = store.as_os_str().to_owned();
    p.push(".meta");
    PathBuf::from(p)
}

fn write_meta(store: &Path, handle: PersistedTree) -> CliResult {
    let meta = json::Value::Obj(vec![
        ("root".into(), json::Value::Num(handle.root.index() as f64)),
        ("len".into(), json::Value::Num(handle.len as f64)),
        ("pages".into(), json::Value::Num(handle.pages as f64)),
        // A hex string: a JSON number is an `f64`, which would round a
        // digest above 2^53.
        (
            "digest".into(),
            json::Value::Str(format!("{:#018x}", handle.digest)),
        ),
        ("page_size".into(), json::Value::Num(PAGE_SIZE as f64)),
        ("dims".into(), json::Value::Num(DIMS as f64)),
    ]);
    std::fs::write(meta_path(store), meta.to_string()).map_err(|e| format!("write meta: {e}"))
}

fn load_tree(store_path: &Path) -> Result<RTree<DIMS>, String> {
    let meta_text =
        std::fs::read_to_string(meta_path(store_path)).map_err(|e| format!("read meta: {e}"))?;
    let meta = json::parse(&meta_text).map_err(|e| format!("parse meta: {e}"))?;
    let field = |key: &str| {
        meta.get(key)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("meta: bad {key}"))
    };
    // This binary reads and writes one format: a sidecar that says
    // otherwise describes a file it would decode into wrong numbers.
    for (key, want) in [("page_size", PAGE_SIZE as u64), ("dims", DIMS as u64)] {
        let got = field(key)?;
        if got != want {
            return Err(format!("meta: {key} is {got}, this tool reads {want}"));
        }
    }
    let digest = meta
        .get("digest")
        .and_then(json::Value::as_str)
        .and_then(|hex| u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok())
        .ok_or("meta: bad digest (a hex string such as \"0x0123456789abcdef\")")?;
    let handle = PersistedTree {
        root: PageId(field("root")? as u32),
        len: field("len")? as usize,
        pages: field("pages")? as usize,
        digest,
    };
    let store = FilePageStore::open(store_path, PAGE_SIZE).map_err(|e| format!("open: {e}"))?;
    RTree::load(&store, handle, RTreeConfig::paper(DIMS)).map_err(|e| format!("load: {e}"))
}

// -------------------------------------------------------------- stats

fn cmd_stats(flags: &HashMap<String, String>) -> CliResult {
    let tree = load_tree(Path::new(get(flags, "tree")?))?;
    let s = tree.stats();
    println!(
        "objects N = {}, data density D = {:.4}, height h = {}, avg fill c = {:.2}",
        s.num_objects, s.data_density, s.height, s.avg_utilization
    );
    println!("level  nodes     avg extent        density  fanout");
    for l in &s.levels {
        println!(
            "{:>5}  {:>6}  {:>7.5} x {:>7.5}  {:>7.3}  {:>6.1}",
            l.level, l.node_count, l.avg_extents[0], l.avg_extents[1], l.density, l.avg_fanout
        );
    }
    Ok(())
}

// ----------------------------------------------------------- estimate

fn cmd_estimate(flags: &HashMap<String, String>) -> CliResult {
    let n1: u64 = get_parse(flags, "n1")?;
    let d1 = parse_density(get(flags, "d1")?, "--d1")?;
    let n2: u64 = get_parse(flags, "n2")?;
    let d2 = parse_density(get(flags, "d2")?, "--d2")?;
    let cfg = if flags.contains_key("corrected") {
        ModelConfig::paper_corrected(2)
    } else {
        ModelConfig::paper(2)
    };
    let p1 = TreeParams::<2>::from_data(DataProfile::new(n1, d1), &cfg);
    let p2 = TreeParams::<2>::from_data(DataProfile::new(n2, d2), &cfg);
    println!(
        "R1: N = {n1}, D = {d1}, predicted h = {}   R2: N = {n2}, D = {d2}, predicted h = {}",
        p1.height(),
        p2.height()
    );
    println!(
        "join NA (Eq 7/11, no buffer)      ≈ {:.0}",
        join_cost_na(&p1, &p2)
    );
    println!(
        "join DA (Eq 10/12, path buffer)   ≈ {:.0}",
        join_cost_da(&p1, &p2)
    );
    println!(
        "selectivity (§5 ext.)              ≈ {:.0} pairs",
        join_selectivity::<2>(DataProfile::new(n1, d1), DataProfile::new(n2, d2))
    );
    Ok(())
}

// --------------------------------------------------------------- join

fn cmd_join(flags: &HashMap<String, String>) -> CliResult {
    let t1 = load_tree(Path::new(get(flags, "tree1")?))?;
    let t2 = load_tree(Path::new(get(flags, "tree2")?))?;
    let buffer = match flags.get("buffer").map(String::as_str).unwrap_or("path") {
        "path" => BufferPolicy::Path,
        "none" => BufferPolicy::None,
        other => {
            if let Some(cap) = other.strip_prefix("lru:") {
                BufferPolicy::Lru(cap.parse().map_err(|e| format!("bad lru size: {e}"))?)
            } else {
                return Err(format!("unknown --buffer {other} (path|none|lru:N)"));
            }
        }
    };
    let result = JoinSession::new(&t1, &t2)
        .config(JoinConfig {
            buffer,
            collect_pairs: false,
            ..JoinConfig::default()
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    println!(
        "h1 = {}, h2 = {}, buffer = {buffer:?}",
        t1.height(),
        t2.height()
    );
    println!("node accesses NA = {}", result.na_total());
    println!("disk accesses DA = {}", result.da_total());
    println!("qualifying pairs = {}", result.pair_count);
    for (tree, stats) in [(1, &result.stats1), (2, &result.stats2)] {
        let by_level: Vec<String> = (0..=stats.max_level().unwrap_or(0))
            .map(|l| format!("L{}: {}/{}", l + 1, stats.na_at(l), stats.da_at(l)))
            .collect();
        println!("tree {tree} NA/DA by paper level: {}", by_level.join("  "));
    }
    Ok(())
}

// ------------------------------------------------------------ explain

fn cmd_explain(flags: &HashMap<String, String>) -> CliResult {
    // --datasets name:N:D,name:N:D[,...]
    let mut catalog = Catalog::<2>::new();
    let mut names = Vec::new();
    for spec in get(flags, "datasets")?.split(',') {
        let parts: Vec<&str> = spec.split(':').collect();
        let [name, n, d] = parts[..] else {
            return Err(format!("bad dataset spec {spec} (want name:N:D)"));
        };
        let n: u64 = n.parse().map_err(|e| format!("bad N in {spec}: {e}"))?;
        let d = parse_density(d, &format!("D in {spec}"))?;
        catalog.register(name, DatasetStats::new(n, d));
        names.push(name.to_string());
    }
    let mut query = JoinQuery::new(names);
    if let Some(sel) = flags.get("select") {
        // --select name:x0,y0,x1,y1
        let (name, coords) = sel
            .split_once(':')
            .ok_or_else(|| format!("bad --select {sel}"))?;
        let vals: Vec<f64> = coords
            .split(',')
            .map(|v| v.parse().map_err(|e| format!("bad --select {sel}: {e}")))
            .collect::<Result<_, String>>()?;
        let [x0, y0, x1, y1] = vals[..] else {
            return Err(format!("--select needs 4 coordinates, got {sel}"));
        };
        if catalog.get(name).is_none() {
            return Err(format!("--select names {name}, which is not in --datasets"));
        }
        let window = Rect::new([x0, y0], [x1, y1]).map_err(|e| e.to_string())?;
        query = query.with_selection(name, window);
    }
    let planner = Planner::new(&catalog);
    let plans = planner.enumerate(&query).map_err(|e| e.to_string())?;
    println!("{} candidate plans; best first:\n", plans.len());
    for (i, plan) in plans.iter().take(4).enumerate() {
        println!("#{} {plan}", i + 1);
    }
    Ok(())
}
