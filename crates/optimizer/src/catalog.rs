//! Dataset statistics catalog.
//!
//! The optimizer sees each base data set exactly the way the cost model
//! does: through its primitive properties `(N, D)`, optionally refined
//! by a density surface for non-uniform data. This mirrors a real
//! system catalog, where such statistics are maintained by `ANALYZE`-
//! style sampling rather than read from the index.
//!
//! The catalog round-trips through a small JSON file ([`Catalog::save`]
//! / [`Catalog::load`]) so measured statistics — e.g. the corrections
//! EXPLAIN ANALYZE's `--calibrate` mode derives from actual tree walks —
//! survive into the *next* planning run. Density surfaces are in-memory
//! refinements and are not persisted.

use sjcm_core::{DataProfile, DensitySurface};
use sjcm_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Statistics of one registered data set.
#[derive(Debug, Clone)]
pub struct DatasetStats<const N: usize> {
    /// Cardinality and density — the model's primitive properties.
    pub profile: DataProfile,
    /// Whether an R-tree index exists over the data set (base data sets
    /// normally have one; intermediate results never do).
    pub indexed: bool,
    /// Optional local-density refinement for skewed data.
    pub surface: Option<DensitySurface<N>>,
}

impl<const N: usize> DatasetStats<N> {
    /// An indexed data set with the given primitive properties.
    pub fn new(cardinality: u64, density: f64) -> Self {
        Self {
            profile: DataProfile::new(cardinality, density),
            indexed: true,
            surface: None,
        }
    }

    /// Marks the data set as unindexed.
    pub fn without_index(mut self) -> Self {
        self.indexed = false;
        self
    }

    /// Attaches a density surface (non-uniform statistics).
    pub fn with_surface(mut self, surface: DensitySurface<N>) -> Self {
        self.surface = Some(surface);
        self
    }
}

/// A name → statistics catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog<const N: usize> {
    datasets: BTreeMap<String, DatasetStats<N>>,
}

impl<const N: usize> Catalog<N> {
    /// An empty catalog.
    pub fn new() -> Self {
        Self {
            datasets: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) a data set.
    pub fn register(&mut self, name: &str, stats: DatasetStats<N>) {
        self.datasets.insert(name.to_string(), stats);
    }

    /// Looks up a data set.
    pub fn get(&self, name: &str) -> Option<&DatasetStats<N>> {
        self.datasets.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Number of registered data sets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// `true` when no data sets are registered.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Iterates `(name, stats)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DatasetStats<N>)> {
        self.datasets.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes the catalog to one JSON document (surfaces excluded):
    /// `{"dims":…,"datasets":{name:{"cardinality":…,"density":…,"indexed":…},…}}`.
    pub fn to_json(&self) -> String {
        let datasets = self.datasets.iter().map(|(name, stats)| {
            let entry = Value::from([
                ("cardinality", stats.profile.cardinality.into()),
                ("density", stats.profile.density.into()),
                ("indexed", stats.indexed.into()),
            ]);
            (name.clone(), entry)
        });
        Value::from([
            ("dims", (N as u64).into()),
            ("datasets", Value::Obj(datasets.collect())),
        ])
        .to_string()
    }

    /// Parses a catalog previously produced by [`Catalog::to_json`].
    /// A cardinality must be an integer in `[0, 2^53]` and a density a
    /// non-negative number; the error names the data set, the field and
    /// the reason.
    pub fn from_json(text: &str) -> Result<Self, CatalogError> {
        let v = json::parse(text).map_err(CatalogError::Parse)?;
        let dims = v
            .get("dims")
            .and_then(Value::as_f64)
            .ok_or_else(|| CatalogError::Parse("missing dims".into()))?;
        if dims as usize != N {
            return Err(CatalogError::DimMismatch {
                expected: N,
                found: dims as usize,
            });
        }
        let Some(Value::Obj(entries)) = v.get("datasets") else {
            return Err(CatalogError::Parse("missing datasets object".into()));
        };
        let mut catalog = Self::new();
        for (name, entry) in entries {
            let field = |k: &str, why: &str| {
                let found = entry.get(k).map_or("nothing".to_string(), Value::to_string);
                CatalogError::Parse(format!("dataset {name}: {k} {found} is not {why}"))
            };
            let cardinality = entry
                .get("cardinality")
                .and_then(Value::as_u64)
                .ok_or_else(|| field("cardinality", "an integer count in [0, 2^53]"))?;
            let density = entry
                .get("density")
                .and_then(Value::as_f64)
                .filter(|d| *d >= 0.0)
                .ok_or_else(|| field("density", "a non-negative number"))?;
            let indexed = entry
                .get("indexed")
                .and_then(Value::as_bool)
                .ok_or_else(|| field("indexed", "a boolean"))?;
            let mut stats = DatasetStats::new(cardinality, density);
            stats.indexed = indexed;
            catalog.register(name, stats);
        }
        Ok(catalog)
    }

    /// Writes the catalog as JSON to `path`.
    pub fn save(&self, path: &Path) -> Result<(), CatalogError> {
        std::fs::write(path, self.to_json() + "\n")
            .map_err(|e| CatalogError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads a catalog saved by [`Catalog::save`].
    pub fn load(path: &Path) -> Result<Self, CatalogError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CatalogError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(text.trim())
    }
}

/// Catalog persistence failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Filesystem error (message includes the path).
    Io(String),
    /// Malformed catalog JSON.
    Parse(String),
    /// The file was saved for a different dimensionality.
    DimMismatch {
        /// Compile-time dimensionality of the loading catalog.
        expected: usize,
        /// Dimensionality recorded in the file.
        found: usize,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog io error: {e}"),
            CatalogError::Parse(e) => write!(f, "catalog parse error: {e}"),
            CatalogError::DimMismatch { expected, found } => {
                write!(f, "catalog dims {found} do not match expected {expected}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::<2>::new();
        assert!(c.is_empty());
        c.register("roads", DatasetStats::new(1000, 0.1));
        c.register("rivers", DatasetStats::new(2000, 0.2).without_index());
        assert_eq!(c.len(), 2);
        assert!(c.get("roads").unwrap().indexed);
        assert!(!c.get("rivers").unwrap().indexed);
        assert!(c.get("missing").is_none());
        assert_eq!(c.names(), vec!["rivers", "roads"]);
    }

    #[test]
    fn register_replaces() {
        let mut c = Catalog::<2>::new();
        c.register("x", DatasetStats::new(10, 0.1));
        c.register("x", DatasetStats::new(20, 0.2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("x").unwrap().profile.cardinality, 20);
    }

    #[test]
    fn surface_attachment() {
        let surface = DensitySurface::<2>::from_rects(&[], 4);
        let s = DatasetStats::new(5, 0.0).with_surface(surface);
        assert!(s.surface.is_some());
    }

    #[test]
    fn json_round_trip() {
        let mut c = Catalog::<2>::new();
        c.register("rivers", DatasetStats::new(60_000, 0.2));
        c.register("scratch", DatasetStats::new(10, 0.5).without_index());
        let back = Catalog::<2>::from_json(&c.to_json()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("rivers").unwrap().profile.cardinality, 60_000);
        assert!((back.get("rivers").unwrap().profile.density - 0.2).abs() < 1e-12);
        assert!(back.get("rivers").unwrap().indexed);
        assert!(!back.get("scratch").unwrap().indexed);
    }

    #[test]
    fn save_load_and_dim_mismatch() {
        let dir = std::env::temp_dir().join(format!("sjcm_catalog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.json");
        let mut c = Catalog::<2>::new();
        c.register("roads", DatasetStats::new(36_000, 0.3));
        c.save(&path).unwrap();
        let back = Catalog::<2>::load(&path).unwrap();
        assert_eq!(back.get("roads").unwrap().profile.cardinality, 36_000);
        assert_eq!(
            Catalog::<3>::load(&path).unwrap_err(),
            CatalogError::DimMismatch {
                expected: 3,
                found: 2
            }
        );
        assert!(matches!(
            Catalog::<2>::load(&dir.join("missing.json")).unwrap_err(),
            CatalogError::Io(_)
        ));
    }

    /// Corruption matrix for [`Catalog::load`]: every way a catalog
    /// file can rot on disk must surface as a typed [`CatalogError`],
    /// never a panic and never a silently-empty catalog.
    #[test]
    fn load_survives_on_disk_corruption() {
        let dir = std::env::temp_dir().join(format!("sjcm_catalog_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, bytes: &[u8]| {
            let p = dir.join(name);
            std::fs::write(&p, bytes).unwrap();
            p
        };

        // A valid document chopped mid-token (simulates a crash during
        // `save`): the brace/string machinery is left dangling.
        let mut c = Catalog::<2>::new();
        c.register("roads", DatasetStats::new(36_000, 0.3));
        let full = c.to_json();
        let truncated = write("truncated.json", &full.as_bytes()[..full.len() / 2]);
        assert!(matches!(
            Catalog::<2>::load(&truncated).unwrap_err(),
            CatalogError::Parse(_)
        ));

        // `NaN` is not a JSON literal; a hand-edited file using it must
        // be rejected at parse, not round `NaN as u64` into 0.
        let nan = write(
            "nan.json",
            b"{\"dims\":2,\"datasets\":{\"x\":{\"cardinality\":NaN,\"density\":0.1,\"indexed\":true}}}",
        );
        assert!(matches!(
            Catalog::<2>::load(&nan).unwrap_err(),
            CatalogError::Parse(_)
        ));

        // Arbitrary non-UTF-8 bytes (wrong file, disk corruption).
        let garbage = write("garbage.json", &[0x80, 0xFF, 0x00, 0x13, 0x37, 0xC0]);
        assert!(matches!(
            Catalog::<2>::load(&garbage).unwrap_err(),
            CatalogError::Io(_)
        ));

        // An empty file is not an empty catalog — loading it must fail
        // loudly so a truncated-to-zero save is never mistaken for "no
        // datasets registered".
        let empty = write("empty.json", b"");
        assert!(matches!(
            Catalog::<2>::load(&empty).unwrap_err(),
            CatalogError::Parse(_)
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn to_json_is_the_compact_document() {
        let mut c = Catalog::<2>::new();
        c.register("rivers", DatasetStats::new(60_000, 0.2));
        c.register("s\"x", DatasetStats::new(10, 0.5).without_index());
        assert_eq!(
            c.to_json(),
            "{\"dims\":2,\"datasets\":{\"rivers\":{\"cardinality\":60000,\"density\":0.2,\"indexed\":true},\
             \"s\\\"x\":{\"cardinality\":10,\"density\":0.5,\"indexed\":false}}}"
        );
    }

    #[test]
    fn from_json_reads_counts_exactly_and_names_the_bad_field() {
        let doc = |card: &str, density: &str| {
            format!(
                "{{\"dims\":2,\"datasets\":{{\"x\":{{\"cardinality\":{card},\
                 \"density\":{density},\"indexed\":true}}}}}}"
            )
        };
        let two53 = 1u64 << 53;
        let back = Catalog::<2>::from_json(&doc(&two53.to_string(), "0.1")).unwrap();
        assert_eq!(back.get("x").unwrap().profile.cardinality, two53);
        for (card, density, want) in [
            (
                "12.7",
                "0.1",
                "dataset x: cardinality 12.7 is not an integer count",
            ),
            (
                "9007199254740994",
                "0.1",
                "dataset x: cardinality 9007199254740994 is not an integer count",
            ),
            (
                "1e30",
                "0.1",
                "dataset x: cardinality 1000000000000000000000000000000 is not",
            ),
            (
                "-1",
                "0.1",
                "dataset x: cardinality -1 is not an integer count",
            ),
            (
                "7",
                "-0.5",
                "dataset x: density -0.5 is not a non-negative number",
            ),
            (
                "7",
                "null",
                "dataset x: density null is not a non-negative number",
            ),
        ] {
            match Catalog::<2>::from_json(&doc(card, density)) {
                Err(CatalogError::Parse(e)) => assert!(e.starts_with(want), "{e}"),
                other => panic!("{card}/{density}: {other:?}"),
            }
        }
    }

    #[test]
    fn from_json_rejects_malformed_entries() {
        assert!(matches!(
            Catalog::<2>::from_json("{\"datasets\":{}}").unwrap_err(),
            CatalogError::Parse(_)
        ));
        assert!(matches!(
            Catalog::<2>::from_json(
                "{\"dims\":2,\"datasets\":{\"x\":{\"cardinality\":-1,\"density\":0.1,\"indexed\":true}}}"
            )
            .unwrap_err(),
            CatalogError::Parse(_)
        ));
    }
}
