//! The planner's identity pin. On a fixed set of queries — `query-mix`'s
//! 64 templates and a sweep over a five-set catalog — each
//! `best_plan`'s structure and cost bits, and each `enumerate` list in
//! order (structure, cost bits and cardinality bits of every plan), are
//! pinned. A change to how candidates are generated or priced that
//! moves one plan, one bit or one tie fails here; the failure prints
//! every line as it now reads.
//!
//! Every enumerated plan is also re-priced by `CostEstimator::estimate`,
//! which walks the finished tree: the planner's step-by-step pricing and
//! the walk must agree bit for bit.

use sjcm_geom::Rect;
use sjcm_optimizer::{Catalog, CostEstimator, DatasetStats, JoinQuery, PlanNode, Planner};

/// `(name, N, D)` of `query-mix`'s catalog (`benchmark/src/mix.rs`).
const MIX_SETS: [(&str, u64, f64); 3] = [
    ("rivers", 20_000, 0.2),
    ("countries", 6_000, 0.4),
    ("cities", 10_000, 0.1),
];

/// `query-mix`'s pool: 26 selections, 19 joins with a window on the
/// first set, 6 full joins, 13 three-way plans.
const MIX_POOL: [(&str, usize); 4] = [
    ("select", 26),
    ("join2_sel", 19),
    ("join2", 6),
    ("plan3", 13),
];

/// Objects a `query-mix` window covers: its side follows from its set's
/// cardinality, its position from the seeded stream.
const WINDOW_OBJECTS: f64 = 800.0;

/// The seed `query-mix` is measured at.
const SEED: u64 = 1998;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64, seeded the way `query-mix` seeds its template windows.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, k: u64) -> Self {
        Stream(mix64(seed ^ mix64(k.wrapping_add(1))))
    }

    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let unit = (mix64(self.0) >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

fn mix_catalog() -> Catalog<2> {
    let mut c = Catalog::new();
    for (name, n, d) in MIX_SETS {
        c.register(name, DatasetStats::new(n, d));
    }
    c
}

/// `query-mix`'s 64 templates, in pool order.
fn mix_templates() -> Vec<JoinQuery<2>> {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [1, 0, 2],
        [0, 2, 1],
        [2, 0, 1],
        [1, 2, 0],
        [2, 1, 0],
    ];
    let mut rng = Stream::new(SEED, 10);
    let mut out = Vec::new();
    for (class, count) in MIX_POOL {
        for i in 0..count {
            let sets: Vec<usize> = match class {
                "select" => vec![i % 3],
                "join2_sel" | "join2" => ORDERS[i % 6][..2].to_vec(),
                _ => ORDERS[i % 6].to_vec(),
            };
            let mut query = JoinQuery::new(sets.iter().map(|&s| MIX_SETS[s].0));
            if matches!(class, "select" | "join2_sel") || (class == "plan3" && i % 3 == 0) {
                let (name, n, _) = MIX_SETS[sets[0]];
                let side = (WINDOW_OBJECTS / n as f64).sqrt();
                let lo = [0, 1].map(|_| rng.range_f64(0.0, 1.0 - side));
                let window = Rect::new(lo, lo.map(|c| c + side)).unwrap();
                query = query.with_selection(name, window);
            }
            out.push(query);
        }
    }
    out
}

/// The planner unit tests' catalog, one unindexed set and a fifth set
/// for the enumeration limit.
fn sweep_catalog() -> Catalog<2> {
    let mut c = Catalog::new();
    c.register("countries", DatasetStats::new(20_000, 0.4));
    c.register("rivers", DatasetStats::new(60_000, 0.2));
    c.register("roads", DatasetStats::new(36_000, 0.3));
    c.register("raw", DatasetStats::new(10_000, 0.2).without_index());
    c.register("lakes", DatasetStats::new(8_000, 0.5));
    c
}

/// Every ordered choice of one to three of the indexed sets, each under
/// no window, a middle, a corner and a whole-space window, and pairs of
/// windows on two sets (listed out of query order too); then the
/// unindexed set, four sets and five.
fn sweep_templates() -> Vec<JoinQuery<2>> {
    let mid = Rect::new([0.1, 0.2], [0.4, 0.6]).unwrap();
    let corner = Rect::new([0.0, 0.0], [0.05, 0.05]).unwrap();
    let whole = Rect::new([0.0, 0.0], [1.0, 1.0]).unwrap();
    let names = ["countries", "rivers", "roads"];
    let mut orders: Vec<Vec<&str>> = names.iter().map(|&a| vec![a]).collect();
    for a in names {
        for b in names.iter().filter(|&&b| b != a) {
            orders.push(vec![a, *b]);
        }
    }
    for a in names {
        for b in names.iter().filter(|&&b| b != a) {
            for c in names.iter().filter(|&&c| c != a && c != *b) {
                orders.push(vec![a, *b, *c]);
            }
        }
    }
    let mut out = Vec::new();
    for sets in &orders {
        let mut configs: Vec<Vec<(usize, Rect<2>)>> =
            vec![vec![], vec![(0, mid)], vec![(0, corner)], vec![(0, whole)]];
        if sets.len() >= 2 {
            configs.push(vec![(0, mid), (1, corner)]);
            configs.push(vec![(1, whole)]);
        }
        if sets.len() == 3 {
            configs.push(vec![(2, corner), (0, whole)]);
        }
        for config in configs {
            let mut q = JoinQuery::new(sets.iter().copied());
            for (i, w) in config {
                q = q.with_selection(sets[i], w);
            }
            out.push(q);
        }
    }
    out.push(JoinQuery::new(["raw"]).with_selection("raw", mid));
    out.push(JoinQuery::new(["rivers", "raw"]));
    out.push(JoinQuery::new(["raw", "countries"]).with_selection("raw", corner));
    out.push(JoinQuery::new(["raw", "countries", "roads"]).with_selection("roads", mid));
    out.push(JoinQuery::new(["countries", "raw", "rivers"]).with_selection("raw", whole));
    out.push(
        JoinQuery::new(["countries", "rivers", "roads", "raw"]).with_selection("rivers", corner),
    );
    out.push(JoinQuery::new([
        "lakes",
        "countries",
        "rivers",
        "roads",
        "raw",
    ]));
    out
}

fn window_bits(w: &Rect<2>) -> String {
    let c = |p: [f64; 2]| format!("{:x}:{:x}", p[0].to_bits(), p[1].to_bits());
    format!("{}-{}", c(w.lo().coords()), c(w.hi().coords()))
}

/// A plan's structure: every operator, data set, algorithm and role;
/// with `bits`, every window's corner bits as well.
fn shape(node: &PlanNode<2>, bits: bool) -> String {
    let w = |w: &Rect<2>| {
        if bits {
            format!(",{}", window_bits(w))
        } else {
            String::new()
        }
    };
    match node {
        PlanNode::IndexScan { dataset } => format!("Scan({dataset})"),
        PlanNode::IndexRangeSelect { dataset, window } => format!("Range({dataset}{})", w(window)),
        PlanNode::Filter {
            input,
            dataset,
            window,
        } => format!("Filter({dataset}{},{})", w(window), shape(input, bits)),
        PlanNode::Join {
            data,
            query,
            algorithm,
        } => format!("{algorithm}({},{})", shape(data, bits), shape(query, bits)),
    }
}

/// FNV-1a, 64-bit.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One query's pinned line: best plan's structure and cost bits, the
/// number of enumerated plans and a digest of the whole ordered list.
fn pin_line(catalog: &Catalog<2>, q: &JoinQuery<2>) -> String {
    let planner = Planner::new(catalog);
    let estimator = CostEstimator::new(catalog);
    let best = planner.best_plan(q).unwrap();
    let plans = planner.enumerate(q).unwrap();
    let mut list = String::new();
    for plan in &plans {
        let walked = estimator.estimate(&plan.root).unwrap();
        assert_eq!(
            (walked.cost.to_bits(), walked.cardinality.to_bits()),
            (plan.total_cost.to_bits(), plan.cardinality.to_bits()),
            "the walk and the planner price differently:\n{plan}"
        );
        list.push_str(&format!(
            "{} {:x} {:x}\n",
            shape(&plan.root, true),
            plan.total_cost.to_bits(),
            plan.cardinality.to_bits()
        ));
    }
    assert_eq!(
        best.root, plans[0].root,
        "best plan is the first enumerated"
    );
    assert_eq!(best.total_cost.to_bits(), plans[0].total_cost.to_bits());
    format!(
        "{} {:x} {} {:016x}",
        shape(&best.root, false),
        best.total_cost.to_bits(),
        plans.len(),
        fnv(&list)
    )
}

fn check(catalog: &Catalog<2>, queries: &[JoinQuery<2>], pins: &[&str]) {
    let actual: Vec<String> = queries.iter().map(|q| pin_line(catalog, q)).collect();
    let table: String = actual.iter().map(|l| format!("    \"{l}\",\n")).collect();
    assert_eq!(
        actual.len(),
        pins.len(),
        "pin table size; the lines are:\n{table}"
    );
    for (i, (got, want)) in actual.iter().zip(pins).enumerate() {
        assert_eq!(
            got, want,
            "query {i} {:?} / {:?}; all lines:\n{table}",
            queries[i].datasets, queries[i].selections
        );
    }
}

#[test]
fn query_mix_templates_plan_as_pinned() {
    check(&mix_catalog(), &mix_templates(), MIX_PINS);
}

#[test]
fn sweep_queries_plan_as_pinned() {
    check(&sweep_catalog(), &sweep_templates(), SWEEP_PINS);
}

/// `query-mix`'s 64 templates: `best structure, best cost bits, plans,
/// list digest`.
const MIX_PINS: &[&str] = &[
    "Range(rivers) 4042788e0458a887 2 d425a27ef110d539",
    "Range(countries) 4042bbccf249122e 2 a6d95bcd84644cc3",
    "Range(cities) 404200f37d0bffa9 2 950382f76c95436d",
    "Range(rivers) 40416415950e7d6c 2 62717355c1e99043",
    "Range(countries) 4042713cd8b9f269 2 d1a8ab0a4d264d0e",
    "Range(cities) 40421df39a02319d 2 ba5ed5176132a395",
    "Range(rivers) 4042788e0458a887 2 a5f3966b55253b5c",
    "Range(countries) 40429811dbb7d4f6 2 a757ef6e1c2a3852",
    "Range(cities) 404203e4f70c058f 2 2b6b85c97506bf01",
    "Range(rivers) 40423085c6b05bd8 2 01796def2fa795cf",
    "Range(countries) 40418657ee46d257 2 aeb5119b0632bba1",
    "Range(cities) 4042083dd9ce81ce 2 ebb4058fbe00ba86",
    "Range(rivers) 4042788e0458a886 2 ab98d13ed05f8861",
    "Range(countries) 4042acad6c47b867 2 0feea44a6b5072e3",
    "Range(cities) 404255369ca482a1 2 36bd18552134e31e",
    "Range(rivers) 4042788e0458a888 2 fb6be1e39cb5b1de",
    "Range(countries) 4042b358581eaf5c 2 a3724e60899cd292",
    "Range(cities) 404208dbb5a6d47c 2 c89ba6012d06f806",
    "Range(rivers) 40420fa7afbf98a1 2 15a2275e69e2ea87",
    "Range(countries) 4040f79b934fe3e8 2 fc0d7cdc1a7f580d",
    "Range(cities) 40415e27eb063f66 2 a491e623c8554964",
    "Range(rivers) 40423491325d37b5 2 17bae3d7e3d68fed",
    "Range(countries) 40428912b13314c0 2 ccb2e349ae42a58d",
    "Range(cities) 404225109bde19e0 2 819715398f58ef4e",
    "Range(rivers) 4042788e0458a888 2 52594058e03f60dc",
    "Range(countries) 4042858dd947e8cf 2 da32b4d472838a01",
    "SJ(Range(rivers),Scan(countries)) 4057afff0f4d5dad 6 3f19fd97baa02351",
    "SJ(Scan(rivers),Range(countries)) 4073ac2ce2a28dc5 6 86ef2bd6a260501d",
    "SJ(Range(rivers),Scan(cities)) 405bb8cb9d419394 6 e118cf93cca37830",
    "SJ(Scan(rivers),Range(cities)) 40697468a2d61c1f 6 735d0fd5ce0404dc",
    "SJ(Scan(cities),Range(countries)) 406af101a24e62f9 6 99c14142f496cfb6",
    "SJ(Range(cities),Scan(countries)) 405f799f5e7f593f 6 f1a48e1e3d1e2522",
    "SJ(Range(rivers),Scan(countries)) 4057672864fa92c4 6 a91da3df86b43592",
    "SJ(Scan(rivers),Range(countries)) 4071cf4bd2663bda 6 15b1b889ead1feea",
    "SJ(Range(rivers),Scan(cities)) 405c40e5829ba9ca 6 e624da175dc7d881",
    "SJ(Scan(rivers),Range(cities)) 406a7ed9800dfea1 6 b201fd763c550dae",
    "SJ(Scan(cities),Range(countries)) 406aeaec267b0079 6 69757ce152a8fb80",
    "SJ(Range(cities),Scan(countries)) 40601a1fc6c9278c 6 ec7e1f7751201153",
    "SJ(Range(rivers),Scan(countries)) 4057afff0f4d5dac 6 99af88154d7929c9",
    "SJ(Scan(rivers),Range(countries)) 4072fb719ade1ba2 6 5776770fc9f1b7cb",
    "SJ(Range(rivers),Scan(cities)) 405bf1c873497313 6 289707a515b9f72a",
    "SJ(Scan(rivers),Range(cities)) 406b9514239755b3 6 2fbcd431e0c0b949",
    "SJ(Scan(cities),Range(countries)) 4068a4a184fbdee0 6 79226a3e8e2e7aed",
    "SJ(Range(cities),Scan(countries)) 405fb90b69580cb6 6 fda973626c339c3d",
    "SJ(Range(rivers),Scan(countries)) 405752ae2cbc30a9 6 aa530c8b6c464f6a",
    "SJ(Scan(rivers),Scan(countries)) 40988fa67e08b542 2 d2eb896bc4c7ceda",
    "SJ(Scan(rivers),Scan(countries)) 40988fa67e08b542 2 d2eb896bc4c7ceda",
    "SJ(Scan(rivers),Scan(cities)) 409d48ccf0117d4c 2 152c0d82427c3aaa",
    "SJ(Scan(rivers),Scan(cities)) 409d48ccf0117d4c 2 152c0d82427c3aaa",
    "SJ(Scan(cities),Scan(countries)) 4090caac37239809 2 7ffb8692614c0b55",
    "SJ(Scan(cities),Scan(countries)) 4090caac37239809 2 7ffb8692614c0b55",
    "INL(SJ(Range(rivers),Scan(cities)),Scan(countries)) 408808b767966703 32 ff471abd3206a911",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Scan(rivers),Range(cities)),Scan(countries)) 4097d6c6a96e6416 32 4bfd1ff3dca3e85e",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Range(rivers),Scan(cities)),Scan(countries)) 40880b585b727a8f 32 25ed3e3663b7303d",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Scan(rivers),Range(cities)),Scan(countries)) 4097e242ec07eace 32 db5bf627eb24654d",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Scan(rivers),Scan(cities)),Scan(countries)) 40d1667f97e84633 12 e75001cd478566f9",
    "INL(SJ(Range(rivers),Scan(cities)),Scan(countries)) 4087f1aac7e715fe 32 588ee7670dd75446",
];

/// The sweep, in `sweep_templates` order.
const SWEEP_PINS: &[&str] = &[
    "Scan(countries) 4082b00000000000 1 ed0dd9feb6f2285a",
    "Range(countries) 4057a37e4aeb9835 2 590c4366d77c5337",
    "Range(countries) 400ade8b3b6429fd 2 43abeb70562e7db4",
    "Filter(countries,Scan(countries)) 4082b00000000000 2 1379d86f034af641",
    "Scan(rivers) 409c000000000000 1 c97610483d928580",
    "Range(rivers) 4070099b43eaa504 2 00f13f4cbb3e8de1",
    "Range(rivers) 401ea51c85b1a617 2 7e26cbbdbe87bd3a",
    "Filter(rivers,Scan(rivers)) 409c000000000000 2 fccc5620ab2592ea",
    "Scan(roads) 4090cc0000000000 1 24fba7a4856f4e6e",
    "Range(roads) 4063fd0a54ffb28a 2 f4d11f0d894aa822",
    "Range(roads) 401414d8e0266888 2 53851f758461a7bd",
    "Filter(roads,Scan(roads)) 4090cc0000000000 2 d11136acf9f36b29",
    "SJ(Scan(countries),Scan(rivers)) 40b4b347a372db13 2 e06a4739ce19fe22",
    "SJ(Range(countries),Scan(rivers)) 4088be24382df841 6 ef9e6d185c160a9e",
    "SJ(Range(countries),Scan(rivers)) 403a1c9f097a73b0 6 bbde6297d667ef76",
    "Filter(countries,SJ(Scan(countries),Scan(rivers))) 40b4b347a372db13 6 c488fa31bef4cb0f",
    "SJ(Range(countries),Range(rivers)) 401915a67be17d5c 14 61f1cc0dc6a9a623",
    "Filter(rivers,SJ(Scan(countries),Scan(rivers))) 40b4b347a372db13 6 42f122c1e74c1861",
    "SJ(Scan(roads),Scan(countries)) 40adda67f92db6b3 2 183f8f9fec08b57f",
    "SJ(Scan(roads),Range(countries)) 408259a78d0173f8 6 4379de9a464ca397",
    "SJ(Scan(roads),Range(countries)) 4034eb6601b6d9a9 6 34874357430f2b35",
    "Filter(countries,SJ(Scan(roads),Scan(countries))) 40adda67f92db6b3 6 a3aed6445182d2e3",
    "SJ(Range(roads),Range(countries)) 40079bf60374b56e 14 e34213577674aece",
    "Filter(roads,SJ(Scan(roads),Scan(countries))) 40adda67f92db6b3 6 1f8d5ee85ae8e199",
    "SJ(Scan(countries),Scan(rivers)) 40b4b347a372db13 2 e06a4739ce19fe22",
    "SJ(Scan(countries),Range(rivers)) 408a4e65c44b954d 6 2f9b4c79dc672da9",
    "SJ(Scan(countries),Range(rivers)) 4041db38a8b52316 6 d2228e5728c0e9fe",
    "Filter(rivers,SJ(Scan(countries),Scan(rivers))) 40b4b347a372db13 6 4baa61d2c025e119",
    "SJ(Range(countries),Range(rivers)) 40125167ead25f44 14 27d6dfd05532c2c8",
    "Filter(countries,SJ(Scan(countries),Scan(rivers))) 40b4b347a372db13 6 4b136bd6a6c1a63f",
    "SJ(Scan(roads),Scan(rivers)) 40b80787c0c19335 2 5353e7a72df8229b",
    "SJ(Scan(roads),Range(rivers)) 40900878f2bee50a 6 794c61cdb08549cf",
    "SJ(Scan(roads),Range(rivers)) 4047efd2dd7712f0 6 775e03261dd1f239",
    "Filter(rivers,SJ(Scan(roads),Scan(rivers))) 40b80787c0c19335 6 88045b7dfc669271",
    "SJ(Range(roads),Range(rivers)) 40130372225ab317 14 b36267640cdfb0ed",
    "Filter(roads,SJ(Scan(roads),Scan(rivers))) 40b80787c0c19335 6 f38bfbad31ee6109",
    "SJ(Scan(roads),Scan(countries)) 40adda67f92db6b3 2 183f8f9fec08b57f",
    "SJ(Range(roads),Scan(countries)) 40813d6f1f604f4c 6 4c255ca6c979f4d4",
    "SJ(Range(roads),Scan(countries)) 4031560bedca790d 6 1d9eeb3288084d0c",
    "Filter(roads,SJ(Scan(roads),Scan(countries))) 40adda67f92db6b3 6 13c2ff603f8b2e99",
    "SJ(Range(roads),Range(countries)) 400ad1370f153e9f 14 3de2a13141e963d5",
    "Filter(countries,SJ(Scan(roads),Scan(countries))) 40adda67f92db6b3 6 b7a094e9e25da1c7",
    "SJ(Scan(roads),Scan(rivers)) 40b80787c0c19335 2 5353e7a72df8229b",
    "SJ(Range(roads),Scan(rivers)) 408b3777effece7b 6 1f31b2c46451940f",
    "SJ(Range(roads),Scan(rivers)) 4039ffe933d53ff5 6 586ae0bd183e4ab9",
    "Filter(roads,SJ(Scan(roads),Scan(rivers))) 40b80787c0c19335 6 db0134dcc2254d3d",
    "SJ(Range(roads),Range(rivers)) 401f513c6b4d5583 14 20e954bfac89c5d2",
    "Filter(rivers,SJ(Scan(roads),Scan(rivers))) 40b80787c0c19335 6 d161862474f44e69",
    "INL(SJ(Scan(roads),Scan(rivers)),Scan(countries)) 40f97aef6f69f296 12 534047c176df5795",
    "INL(SJ(Range(countries),Scan(rivers)),Scan(roads)) 40caaea89bb929fa 32 a21a0b1f49cc5d00",
    "INL(SJ(Range(countries),Scan(rivers)),Scan(roads)) 4074fcec577ae3ae 32 1e3bf302d3a8c7d4",
    "Filter(countries,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 a876b668727e7102",
    "INL(SJ(Range(countries),Range(rivers)),Scan(roads)) 4044617d9693282a 76 ba7d2540601bb85a",
    "Filter(rivers,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 38f62d33f4f1663a",
    "Filter(countries,INL(SJ(Range(roads),Scan(rivers)),Scan(countries))) 4072d09974b74ab5 76 233863c0cf055ce8",
    "INL(SJ(Scan(roads),Scan(rivers)),Scan(countries)) 40f97aef6f69f296 12 534047c176df5795",
    "INL(SJ(Range(countries),Scan(rivers)),Scan(roads)) 40caaea89bb929fa 32 a21a0b1f49cc5d00",
    "INL(SJ(Range(countries),Scan(rivers)),Scan(roads)) 4074fcec577ae3ae 32 1e3bf302d3a8c7d4",
    "Filter(countries,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 a876b668727e7102",
    "INL(SJ(Range(roads),Range(countries)),Scan(rivers)) 4047f54f28843c18 76 f772f900e76dec7e",
    "Filter(roads,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 1cf062a389915732",
    "Filter(countries,INL(SJ(Scan(roads),Range(rivers)),Scan(countries))) 407377f01751712a 76 4684a26c9899e9f8",
    "INL(SJ(Scan(roads),Scan(rivers)),Scan(countries)) 40f97aef6f69f296 12 534047c176df5795",
    "INL(SJ(Scan(roads),Range(rivers)),Scan(countries)) 40c944f3a94c3ceb 32 602739ac7ef98999",
    "INL(SJ(Scan(roads),Range(rivers)),Scan(countries)) 407377f01751712a 32 07e8c3cfdb6962f0",
    "Filter(rivers,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 3d8471a90c0670ba",
    "INL(SJ(Range(countries),Range(rivers)),Scan(roads)) 4045148b81c3d7bc 76 1b21662364b6d543",
    "Filter(countries,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 4404d02b737e6f32",
    "Filter(rivers,INL(SJ(Range(roads),Scan(rivers)),Scan(countries))) 4072d09974b74ab5 76 e694733b1b94d784",
    "INL(SJ(Scan(roads),Scan(rivers)),Scan(countries)) 40f97aef6f69f296 12 534047c176df5795",
    "INL(SJ(Scan(roads),Range(rivers)),Scan(countries)) 40c944f3a94c3ceb 32 602739ac7ef98999",
    "INL(SJ(Scan(roads),Range(rivers)),Scan(countries)) 407377f01751712a 32 07e8c3cfdb6962f0",
    "Filter(rivers,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 3d8471a90c0670ba",
    "INL(SJ(Range(roads),Range(rivers)),Scan(countries)) 4043116cfd874352 76 17af0ed8168cb9e8",
    "Filter(roads,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 71ab54f406c5ba52",
    "Filter(rivers,INL(SJ(Range(countries),Scan(rivers)),Scan(roads))) 4074fcec577ae3ae 76 d79256ebe4dd1d9a",
    "INL(SJ(Scan(roads),Scan(rivers)),Scan(countries)) 40f97aef6f69f296 12 534047c176df5795",
    "INL(SJ(Range(roads),Scan(rivers)),Scan(countries)) 40c91bfc8b3beac6 32 766045b5deafc6ee",
    "INL(SJ(Range(roads),Scan(rivers)),Scan(countries)) 4072d09974b74ab5 32 38095703abab7a8f",
    "Filter(roads,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 f49fb01c6fdb3472",
    "INL(SJ(Range(roads),Range(countries)),Scan(rivers)) 4049296a8820284c 76 618f178995d5574b",
    "Filter(countries,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 674c12dfcd298092",
    "Filter(roads,INL(SJ(Scan(roads),Range(rivers)),Scan(countries))) 407377f01751712a 76 82939cdd1743f7e0",
    "INL(SJ(Scan(roads),Scan(rivers)),Scan(countries)) 40f97aef6f69f296 12 534047c176df5795",
    "INL(SJ(Range(roads),Scan(rivers)),Scan(countries)) 40c91bfc8b3beac6 32 766045b5deafc6ee",
    "INL(SJ(Range(roads),Scan(rivers)),Scan(countries)) 4072d09974b74ab5 32 38095703abab7a8f",
    "Filter(roads,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 f49fb01c6fdb3472",
    "INL(SJ(Range(roads),Range(rivers)),Scan(countries)) 4043fc99b85d1cc9 76 4acc4173b69eb627",
    "Filter(rivers,INL(SJ(Scan(roads),Scan(rivers)),Scan(countries))) 40f97aef6f69f296 32 a5f44c46d276cf9a",
    "Filter(roads,INL(SJ(Range(countries),Scan(rivers)),Scan(roads))) 4074fcec577ae3ae 76 575102e3f9aa0cac",
    "Range(raw) 4049ab89d42a0248 2 0b00385010d110d5",
    "INL(Scan(rivers),Scan(raw)) 40dfe5aaa1b2db11 2 953162e17cc89671",
    "INL(Range(raw),Scan(countries)) 40502d46e1a12f4a 4 75929dd08b06483d",
    "NL(SJ(Range(roads),Scan(countries)),Scan(raw)) 40e55cd5bc7d813d 28 8c968ea8e4bb6659",
    "Filter(raw,INL(INL(Scan(countries),Scan(raw)),Scan(rivers))) 40f2b08d02df6756 24 dc955e51c7dcd59a",
    "INL(NL(SJ(Scan(roads),Range(rivers)),Scan(raw)),Scan(countries)) 409ae6e5ab74b258 224 056c793b3b05aedd",
    "INL(INL(INL(INL(Scan(rivers),Scan(raw)),Scan(countries)),Scan(lakes)),Scan(roads)) 4115bd7ac8eb1bfb 960 83bef96d53255df1",
];
