//! The metric tables: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root declares the same names (a
//! unit test keeps the two in step) and adds the regression bounds.

/// `(name, unit, better)` of each end-to-end metric, measured with
/// tracing off.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("build_ms", "ms", "lower"),
    ("query_ms_p50", "ms", "lower"),
    ("query_ms_p95", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("disk_bytes_per_object", "bytes", "lower"),
    ("na_model_fit_pct", "%", "higher"),
    ("da_model_fit_pct", "%", "higher"),
];

/// `(name, unit, better)` of each per-layer metric, from the traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Where the passes' wall time goes, by layer (shares of stage spans).
    ("pass.build.datagen_pct", "%", "lower"),
    ("pass.build.geom_pct", "%", "lower"),
    ("pass.build.core_pct", "%", "lower"),
    ("pass.build.rtree_pct", "%", "lower"),
    ("pass.build.optimizer_pct", "%", "lower"),
    ("pass.build.harness_pct", "%", "lower"),
    ("pass.query.rtree_pct", "%", "lower"),
    ("pass.query.core_pct", "%", "lower"),
    ("pass.query.optimizer_pct", "%", "lower"),
    ("pass.query.join_pct", "%", "lower"),
    ("pass.query.exec_pct", "%", "lower"),
    ("pass.query.harness_pct", "%", "lower"),
    // datagen
    ("datagen.generate_ms", "ms", "lower"),
    // geom
    ("geom.scalar_ns_per_test", "ns", "lower"),
    ("geom.batch_ns_per_test", "ns", "lower"),
    ("geom.batch_fill_ns_per_entry", "ns", "lower"),
    ("geom.density_ms", "ms", "lower"),
    // storage
    ("storage.encode_ns_per_page", "ns", "lower"),
    ("storage.decode_ns_per_page", "ns", "lower"),
    ("storage.file_write_ms", "ms", "lower"),
    ("storage.file_read_ms", "ms", "lower"),
    ("storage.sync_ms", "ms", "lower"),
    ("storage.pages_written", "count", "lower"),
    ("storage.file_bytes", "bytes", "lower"),
    ("storage.path_hit_ratio", "ratio", "higher"),
    ("storage.recorder_ns_per_access", "ns", "lower"),
    // rtree
    ("rtree.bulk_load_ms", "ms", "lower"),
    ("rtree.insert_ms", "ms", "lower"),
    ("rtree.insert_us_per_object", "us", "lower"),
    ("rtree.save_ms", "ms", "lower"),
    ("rtree.load_ms", "ms", "lower"),
    ("rtree.nodes", "count", "lower"),
    ("rtree.height_1", "count", "lower"),
    ("rtree.height_2", "count", "lower"),
    ("rtree.leaf_fill_pct", "%", "higher"),
    ("rtree.query_window_us_p50", "us", "lower"),
    ("rtree.query_window_na_per_result", "ratio", "lower"),
    ("rtree.stats_ms", "ms", "lower"),
    ("rtree.subtree_stats_us", "us", "lower"),
    // join
    ("join.seq_ms", "ms", "lower"),
    ("join.seq_nopairs_ms", "ms", "lower"),
    ("join.emit_ms", "ms", "lower"),
    ("join.ns_per_na", "ns", "lower"),
    ("join.match_ns_per_node_pair", "ns", "lower"),
    ("join.match_scalar_ns_per_node_pair", "ns", "lower"),
    ("join.match_hit_ratio", "ratio", "higher"),
    ("join.match_share_pct", "%", "lower"),
    ("join.par2_cost_guided_ms", "ms", "lower"),
    ("join.par2_cost_guided_nopairs_ms", "ms", "lower"),
    ("join.par2_round_robin_ms", "ms", "lower"),
    ("join.par2_serial_ms", "ms", "lower"),
    ("join.speedup_at_2", "ratio", "higher"),
    ("join.merge_sort_ms", "ms", "lower"),
    ("join.na_imbalance", "ratio", "lower"),
    ("join.units", "count", "higher"),
    ("join.steals", "count", "lower"),
    ("join.worker_busy_pct", "%", "higher"),
    ("join.fixed_cost_seq_us", "us", "lower"),
    ("join.fixed_cost_par2_us", "us", "lower"),
    ("join.pbsm_ms", "ms", "lower"),
    ("join.inl_ms", "ms", "lower"),
    ("join.na", "count", "lower"),
    ("join.da", "count", "lower"),
    ("join.pairs", "count", "higher"),
    // core (the cost model)
    ("core.params_from_data_ns", "ns", "lower"),
    ("core.join_cost_ns", "ns", "lower"),
    ("core.surface_build_ms", "ms", "lower"),
    ("core.nonuniform_cost_us", "us", "lower"),
    ("core.na_err_pct", "%", "lower"),
    ("core.da_err_pct", "%", "lower"),
    ("core.na_err_measured_params_pct", "%", "lower"),
    ("core.da_err_measured_params_pct", "%", "lower"),
    ("core.selectivity_err_pct", "%", "lower"),
    // optimizer
    ("optimizer.best_plan_us_p50", "us", "lower"),
    ("optimizer.enumerate3_us_p50", "us", "lower"),
    ("optimizer.plans_enumerated", "count", "lower"),
    ("optimizer.plan_regret_pct", "%", "lower"),
    ("optimizer.catalog_roundtrip_us", "us", "lower"),
    // exec (the facade's executor, EXPLAIN ANALYZE and JSON)
    ("exec.select_us_p50", "us", "lower"),
    ("exec.join2_sel_ms_p50", "ms", "lower"),
    ("exec.join2_ms_p50", "ms", "lower"),
    ("exec.rows_per_s", "1/s", "higher"),
    ("exec.explain_overhead_pct", "%", "lower"),
    ("exec.json_parse_mb_per_s", "MB/s", "higher"),
    // obs
    ("obs.span_ns", "ns", "lower"),
    ("obs.disabled_span_ns", "ns", "lower"),
    ("obs.join_enabled_overhead_pct", "%", "lower"),
    ("obs.join_enabled_overhead_spread_pct", "%", "lower"),
    // the harness itself
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.stage_coverage_pct", "%", "higher"),
    ("bench.noise_pct.build_ms", "%", "lower"),
    ("bench.noise_pct.query_ms_p50", "%", "lower"),
    ("bench.tail_percentile", "%", "higher"),
    ("bench.machine_slowdown", "ratio", "lower"),
    ("bench.cores", "count", "higher"),
    ("bench.passes_build", "count", "higher"),
    ("bench.passes_query", "count", "higher"),
];

/// Metrics whose value is a count made by the program: identical between
/// two runs of the same code and seed, which `compare` asserts.
pub const EXACT: &[&str] = &[
    "disk_bytes_per_object",
    "na_model_fit_pct",
    "da_model_fit_pct",
    "join.na",
    "join.da",
    "join.pairs",
    "storage.pages_written",
];

/// Named values collected during a run, printed against one of the
/// tables above.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The metrics of `table` as `(name, value, unit)`, in table order.
    /// Panics when the run left a declared metric unset or produced a
    /// non-finite value: that is a bug in the harness, not a measurement.
    pub fn in_table_order(&self, table: &[(&str, &str, &str)]) -> Vec<(String, f64, String)> {
        table
            .iter()
            .map(|(name, unit, _)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                assert!(value.is_finite(), "metric {name} is {value}");
                (name.to_string(), value, unit.to_string())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcm::json::{parse, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
        for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
        for name in EXACT {
            assert!(seen.contains(name), "{name} is not a declared metric");
        }
    }

    #[test]
    fn every_declared_metric_is_listed_in_table_order() {
        let mut m = Metrics::default();
        for (i, (name, _, _)) in END_TO_END.iter().enumerate().rev() {
            m.set(name, i as f64 + 0.5);
        }
        m.set("setup_s", 1.25);
        let listed = m.in_table_order(END_TO_END);
        assert_eq!(listed.len(), END_TO_END.len());
        assert_eq!(listed[0], ("setup_s".to_string(), 1.25, "s".to_string()));
        assert_eq!(listed[1], ("build_ms".to_string(), 1.5, "ms".to_string()));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn an_unmeasured_metric_is_a_bug() {
        Metrics::default().in_table_order(END_TO_END);
    }
}
