//! The paper's motivating GIS query, end to end:
//!
//! > "Find pairs of rivers that cross common countries in Europe and lie
//! > west of the 7th meridian."
//!
//! The introduction sketches a three-step strategy — select the western
//! rivers, join them with countries, post-process the pairs — and notes
//! that *"other solutions, which differ on the execution order … and
//! consequently on the efficiency, are also possible and need to be
//! evaluated by a spatial query optimizer."*
//!
//! This example builds that optimizer's world: a catalog with river and
//! country statistics, the query with its "west of the meridian"
//! selection, plan enumeration, and then — the part a paper can't do —
//! it *executes* the competing strategies against real indexes to show
//! the cost model ranked them correctly.
//!
//! ```text
//! cargo run --release --example gis_rivers_countries
//! ```

use sjcm::geom::{density, Rect};
use sjcm::optimizer::{Catalog, DatasetStats, JoinQuery, Planner};
use sjcm::prelude::*;

fn main() {
    // ── Synthetic Europe: countries are medium rectangles, rivers are
    //    chained thin segments from the TIGER-like generator's hydro
    //    preset.
    let countries = sjcm::datagen::uniform::generate::<2>(
        sjcm::datagen::uniform::UniformConfig::new(8_000, 0.35, 7).with_aspect_jitter(0.6),
    );
    let rivers =
        sjcm::datagen::tiger::generate(sjcm::datagen::tiger::TigerConfig::hydro(30_000, 8));
    let d_countries = density(countries.iter());
    let d_rivers = density(rivers.iter());
    println!(
        "countries: N = {}, D = {:.3}   rivers: N = {}, D = {:.4}",
        countries.len(),
        d_countries,
        rivers.len(),
        d_rivers
    );

    // "West of the 7th meridian" — the left 45% of the workspace.
    let west = Rect::new([0.0, 0.0], [0.45, 1.0]).unwrap();

    // ── The optimizer's view: catalog statistics + the declarative query.
    let mut catalog = Catalog::<2>::new();
    catalog.register(
        "countries",
        DatasetStats::new(countries.len() as u64, d_countries),
    );
    catalog.register("rivers", DatasetStats::new(rivers.len() as u64, d_rivers));
    let query = JoinQuery::new(["rivers", "countries"]).with_selection("rivers", west);

    let planner = Planner::new(&catalog);
    let plans = planner.enumerate(&query).expect("feasible query");
    println!(
        "\n{} candidate strategies; top three by estimated cost:",
        plans.len()
    );
    for plan in plans.iter().take(3) {
        println!("\n{plan}");
    }
    let best = &plans[0];
    let worst = plans.last().unwrap();

    // ── Reality check: execute the competing strategies and count
    //    actual page accesses.
    let mut t_countries = RTree::<2>::new(RTreeConfig::paper(2));
    for (r, id) in sjcm::datagen::with_ids(countries) {
        t_countries.insert(r, ObjectId(id));
    }
    let mut t_rivers = RTree::<2>::new(RTreeConfig::paper(2));
    for (r, id) in sjcm::datagen::with_ids(rivers.clone()) {
        t_rivers.insert(r, ObjectId(id));
    }

    // Strategy A (what the best plan does): one synchronized traversal
    // restricted to the window — subtrees of the river index east of
    // the meridian are never read.
    let windowed = JoinSession::new(&t_countries, &t_rivers)
        .config(JoinConfig {
            buffer: BufferPolicy::Path,
            ..JoinConfig::default()
        })
        .window(Side::R2, west)
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    println!(
        "\nexecute [SJ inside the window]: DA = {}, pairs = {}",
        windowed.da_total(),
        windowed.pair_count
    );

    // Strategy B: SJ join first, filter the river side afterwards.
    let sj = JoinSession::new(&t_rivers, &t_countries)
        .config(JoinConfig {
            buffer: BufferPolicy::Path,
            ..JoinConfig::default()
        })
        .run()
        .expect("ungoverned join cannot fail")
        .result;
    let crossing_in_west: Vec<_> = sj
        .pairs
        .iter()
        .filter(|(river, _)| rivers[river.0 as usize].intersects(&west))
        .collect();
    println!(
        "execute [SJ then filter]: DA = {}, pairs kept = {}",
        sj.da_total(),
        crossing_in_west.len()
    );

    // Strategy C: select western rivers first, then probe the country
    // index per selected river (index nested loop).
    let western: Vec<_> = rivers
        .iter()
        .enumerate()
        .filter(|(_, r)| r.intersects(&west))
        .map(|(i, r)| (*r, ObjectId(i as u32)))
        .collect();
    let inl = sjcm::join::baselines::index_nested_loop_join(&t_countries, &western);
    println!(
        "execute [select then INL]: NA = {}, pairs = {}",
        inl.node_accesses,
        inl.pairs.len()
    );

    println!(
        "\noptimizer's estimates: best = {:.0}, worst = {:.0} page accesses",
        best.total_cost, worst.total_cost
    );
    println!(
        "ratio of measured strategies: {:.1}x",
        inl.node_accesses as f64 / windowed.da_total() as f64
    );

    // ── Step (iii) of the paper's strategy: pairs of rivers crossing a
    //    common country (main-memory post-processing).
    use std::collections::HashMap;
    let mut by_country: HashMap<u32, Vec<u32>> = HashMap::new();
    for (river, country) in crossing_in_west {
        by_country.entry(country.0).or_default().push(river.0);
    }
    let river_pairs: usize = by_country
        .values()
        .map(|rs| rs.len() * rs.len().saturating_sub(1) / 2)
        .sum();
    println!("river pairs sharing a common country (west of the meridian): {river_pairs}");
}
