//! Black-box tests of the `sjcm` CLI binary: the full gen → build →
//! stats → join → estimate → explain tour, driven through the real
//! executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sjcm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sjcm"))
        .args(args)
        .output()
        .expect("failed to spawn sjcm")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "sjcm failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    fn path(&mut self, name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("sjcm_cli_{}_{name}", std::process::id()));
        self.0.push(p.clone());
        p.to_string_lossy().into_owned()
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
            let mut meta = p.as_os_str().to_owned();
            meta.push(".meta");
            let _ = std::fs::remove_file(PathBuf::from(meta));
        }
    }
}

#[test]
fn full_cli_tour() {
    let mut tmp = TempFiles(Vec::new());
    let data_a = tmp.path("a.json");
    let data_b = tmp.path("b.json");
    let tree_a = tmp.path("a.pages");
    let tree_b = tmp.path("b.pages");

    // gen
    let out = stdout(&sjcm(&[
        "gen",
        "--kind",
        "uniform",
        "--n",
        "2000",
        "--density",
        "0.4",
        "--seed",
        "5",
        "--out",
        &data_a,
    ]));
    assert!(out.contains("wrote 2000 rectangles"), "{out}");
    let out = stdout(&sjcm(&[
        "gen",
        "--kind",
        "clusters",
        "--n",
        "1500",
        "--density",
        "0.3",
        "--seed",
        "6",
        "--out",
        &data_b,
    ]));
    assert!(out.contains("wrote 1500 rectangles"));

    // build
    let out = stdout(&sjcm(&["build", "--data", &data_a, "--out", &tree_a]));
    assert!(out.contains("built R*-tree over 2000 objects"), "{out}");
    stdout(&sjcm(&["build", "--data", &data_b, "--out", &tree_b]));

    // stats
    let out = stdout(&sjcm(&["stats", "--tree", &tree_a]));
    assert!(out.contains("objects N = 2000"), "{out}");
    assert!(out.contains("level"), "{out}");

    // join (loads the persisted trees)
    let out = stdout(&sjcm(&[
        "join", "--tree1", &tree_a, "--tree2", &tree_b, "--buffer", "path",
    ]));
    assert!(out.contains("node accesses NA ="), "{out}");
    assert!(out.contains("qualifying pairs ="), "{out}");
    // DA ≤ NA even through the CLI.
    let grab = |label: &str| -> u64 {
        out.lines()
            .find(|l| l.contains(label))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing {label} in {out}"))
    };
    assert!(grab("disk accesses DA") <= grab("node accesses NA"));

    // join with an LRU buffer
    let lru = stdout(&sjcm(&[
        "join", "--tree1", &tree_a, "--tree2", &tree_b, "--buffer", "lru:256",
    ]));
    assert!(lru.contains("Lru(256)"), "{lru}");

    // estimate
    let out = stdout(&sjcm(&[
        "estimate", "--n1", "60000", "--d1", "0.5", "--n2", "20000", "--d2", "0.5",
    ]));
    assert!(out.contains("join NA"), "{out}");
    assert!(out.contains("selectivity"), "{out}");

    // explain
    let out = stdout(&sjcm(&[
        "explain",
        "--datasets",
        "rivers:60000:0.2,countries:20000:0.4",
        "--select",
        "rivers:0,0,0.45,1",
    ]));
    assert!(out.contains("candidate plans"), "{out}");
    assert!(out.contains("Join["), "{out}");
}

#[test]
fn cli_errors_are_clean() {
    let out = sjcm(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = sjcm(&["gen", "--kind", "uniform"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --n"));

    let out = sjcm(&["estimate", "--n1", "ten"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --n1"));

    let out = sjcm(&["stats", "--tree", "/nonexistent/path.pages"]);
    assert!(!out.status.success());

    // Bad numbers and names are refused where they are parsed: exit 1
    // with an `error:` line, never a panic from an inner assertion.
    let mut tmp = TempFiles(Vec::new());
    let data = tmp.path("err.json");
    let refused = |args: &[&str], want: &str| {
        let out = sjcm(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(!err.contains("panicked at"), "{args:?}: {err}");
    };
    for d in ["-1", "nan", "inf"] {
        refused(
            &[
                "gen",
                "--kind",
                "uniform",
                "--n",
                "10",
                "--density",
                d,
                "--out",
                &data,
            ],
            "bad --density",
        );
    }
    for d1 in ["nan", "-0.5"] {
        refused(
            &[
                "estimate", "--n1", "10", "--d1", d1, "--n2", "10", "--d2", "0.5",
            ],
            "bad --d1",
        );
    }
    refused(
        &["explain", "--datasets", "a:10:-1,b:10:0.5"],
        "bad D in a:10:-1",
    );
    refused(
        &[
            "explain",
            "--datasets",
            "a:10:0.5,b:10:0.5",
            "--select",
            "c:0,0,1,1",
        ],
        "not in --datasets",
    );

    // A sidecar that describes another format is refused, not decoded
    // as a 2-D 1 KiB tree.
    let tree = tmp.path("err.pages");
    stdout(&sjcm(&[
        "gen", "--kind", "uniform", "--n", "300", "--out", &data,
    ]));
    stdout(&sjcm(&["build", "--data", &data, "--out", &tree]));
    let meta_path = format!("{tree}.meta");
    let meta = std::fs::read_to_string(&meta_path).unwrap();
    for (good, bad, want) in [
        ("\"dims\":2", "\"dims\":3", "dims is 3"),
        (
            "\"page_size\":1024",
            "\"page_size\":512",
            "page_size is 512",
        ),
    ] {
        assert!(meta.contains(good), "{meta}");
        std::fs::write(&meta_path, meta.replace(good, bad)).unwrap();
        refused(&["stats", "--tree", &tree], want);
    }
}

/// A build over an existing tree file overwrites it in place — a
/// smaller tree shrinks it — and a sidecar from another build of that
/// path is refused by its digest, never decoded into the wrong tree.
#[test]
fn a_rebuilt_path_loads_only_under_its_own_sidecar() {
    let mut tmp = TempFiles(Vec::new());
    let big = tmp.path("rebuild_big.json");
    let a = tmp.path("rebuild_a.json");
    let b = tmp.path("rebuild_b.json");
    let tree = tmp.path("rebuild.pages");
    let other = tmp.path("rebuild_other.pages");
    // 40 objects fit one 50-entry root leaf: the two small trees have
    // the same root, object count and page count, so only the digest
    // tells their sidecars apart.
    for (data, n, seed) in [(&big, "2000", "3"), (&a, "40", "1"), (&b, "40", "2")] {
        stdout(&sjcm(&[
            "gen", "--kind", "uniform", "--n", n, "--seed", seed, "--out", data,
        ]));
    }
    stdout(&sjcm(&["build", "--data", &big, "--out", &tree]));
    let big_len = std::fs::metadata(&tree).unwrap().len();
    stdout(&sjcm(&["build", "--data", &a, "--out", &tree]));
    assert_eq!(std::fs::metadata(&tree).unwrap().len(), 1024, "{big_len}");
    let meta_path = format!("{tree}.meta");
    let meta_a = std::fs::read_to_string(&meta_path).unwrap();
    assert!(meta_a.contains("\"digest\":\"0x"), "{meta_a}");
    stdout(&sjcm(&["build", "--data", &b, "--out", &tree]));
    stdout(&sjcm(&["build", "--data", &a, "--out", &other]));
    let out = stdout(&sjcm(&["stats", "--tree", &tree]));
    assert!(out.contains("objects N = 40"), "{out}");
    let out = stdout(&sjcm(&["join", "--tree1", &tree, "--tree2", &other]));
    assert!(out.contains("qualifying pairs = "), "{out}");

    let refused = |want: &str| {
        let out = sjcm(&["stats", "--tree", &tree]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains(want), "{err}");
        assert!(!err.contains("panicked at"), "{err}");
    };
    std::fs::write(&meta_path, &meta_a).unwrap();
    refused("save digest mismatch");
    // A sidecar must carry its digest.
    let digest = meta_a.find(",\"digest\"").unwrap();
    let end = digest + meta_a[digest + 1..].find(',').unwrap() + 1;
    let without = format!("{}{}", &meta_a[..digest], &meta_a[end..]);
    std::fs::write(&meta_path, without).unwrap();
    refused("meta: bad digest");
}

/// `query-mix`'s three-set catalog with a window on rivers: the plan
/// count, the four cheapest plans, their order (two pairs of ties) and
/// their rounded costs, exactly.
#[test]
fn explain_prints_the_pinned_plans() {
    let out = stdout(&sjcm(&[
        "explain",
        "--datasets",
        "rivers:20000:0.2,countries:6000:0.4,cities:10000:0.1",
        "--select",
        "rivers:0.3,0.3,0.5,0.5",
    ]));
    assert_eq!(out, EXPLAIN_GOLDEN);
}

const EXPLAIN_GOLDEN: &str = r#"32 candidate plans; best first:

#1 plan (est. cost 771 page accesses, est. cardinality 316):
Join[INL]
  data(R1):
    Join[SJ]
      data(R1):
        IndexRangeSelect(rivers, window=[0.2, 0.2])
      query(R2):
        IndexScan(cities)
  query(R2):
    IndexScan(countries)

#2 plan (est. cost 771 page accesses, est. cardinality 316):
Join[INL]
  data(R1):
    IndexScan(countries)
  query(R2):
    Join[SJ]
      data(R1):
        IndexRangeSelect(rivers, window=[0.2, 0.2])
      query(R2):
        IndexScan(cities)

#3 plan (est. cost 788 page accesses, est. cardinality 316):
Join[INL]
  data(R1):
    Join[SJ]
      data(R1):
        IndexScan(cities)
      query(R2):
        IndexRangeSelect(rivers, window=[0.2, 0.2])
  query(R2):
    IndexScan(countries)

#4 plan (est. cost 788 page accesses, est. cardinality 316):
Join[INL]
  data(R1):
    IndexScan(countries)
  query(R2):
    Join[SJ]
      data(R1):
        IndexScan(cities)
      query(R2):
        IndexRangeSelect(rivers, window=[0.2, 0.2])

"#;

#[test]
fn cli_help_lists_commands() {
    let out = stdout(&sjcm(&["help"]));
    assert!(out.contains("gen|build|stats|estimate|join|explain"));
}
