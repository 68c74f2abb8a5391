//! `compare`: two result files, one row per (workload, end-to-end
//! metric), judged against the bounds in `BENCHMARK.json` and the noise
//! the runs recorded about themselves.

use crate::metrics::EXACT;
use crate::report::{ResultFile, WorkloadResult};
use sjcm::json::{parse, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The recorded noise is wider than the bound: the runs cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of `before` the metric got worse (negative: better).
pub fn worsening(before: f64, after: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        after - before
    } else {
        before - after
    };
    delta / before.abs().max(f64::MIN_POSITIVE)
}

/// `bound` and `noise` are shares of the first run's value. A metric is
/// worse (better) only when it moved by more than the bound; when the
/// noise behind it exceeds the bound the verdict is withheld, unless the
/// move is larger than the noise as well.
pub fn verdict(before: f64, after: f64, lower_is_better: bool, bound: f64, noise: f64) -> Verdict {
    let worse_by = worsening(before, after, lower_is_better);
    if noise > bound && worse_by.abs() <= noise {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `(name, lower_is_better, bound)` of each end-to-end metric declared
/// in `BENCHMARK.json`.
pub fn declared_bounds(benchmark_json: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let doc = parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end`")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// The noise the untraced run recorded for the loop behind `metric`,
/// as a share.
fn recorded_noise(w: &WorkloadResult, metric: &str) -> f64 {
    let key = match metric {
        "build_ms" => "noise_pct.build_ms",
        "query_ms_p50" | "query_ms_p95" => "noise_pct.query_ms_p50",
        _ => return 0.0,
    };
    w.notes
        .iter()
        .find(|(n, _)| n == key)
        .map_or(0.0, |(_, pct)| pct / 100.0)
}

/// Prints the comparison table. `Err` when the files cannot be compared,
/// a run in them failed, or two runs of the same code and seed disagree
/// on a count that must repeat exactly.
pub fn compare(
    before: &ResultFile,
    after: &ResultFile,
    benchmark_json: &str,
) -> Result<String, String> {
    let bounds = declared_bounds(benchmark_json)?;
    let same_code_and_seed = before.seed == after.seed
        && before.smoke == after.smoke
        && before.commit == after.commit
        && before.commit != "unknown";
    let mut table = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "before", "after", "change%", "bound%", "noise%"
    );
    let mut broken = Vec::new();
    for b in &before.workloads {
        let a = after
            .workloads
            .iter()
            .find(|w| w.name == b.name)
            .ok_or(format!("{} is missing from the second file", b.name))?;
        for (w, file) in [(b, "first"), (a, "second")] {
            for line in [&w.end_to_end, &w.per_layer] {
                if !line.correct || line.failed > 0 {
                    broken.push(format!(
                        "{}: {} of {} operations failed in the {file} file",
                        w.name, line.failed, line.attempted
                    ));
                }
            }
        }
        for (name, lower, bound) in &bounds {
            let (Some(x), Some(y)) = (b.end_to_end.value(name), a.end_to_end.value(name)) else {
                return Err(format!("{}: {name} is missing from a file", b.name));
            };
            let noise = recorded_noise(b, name).max(recorded_noise(a, name));
            let v = verdict(x, y, *lower, *bound, noise);
            table.push_str(&format!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+9.2} {:>7.1} {:>7.2}  {}\n",
                b.name,
                name,
                x,
                y,
                100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                100.0 * noise,
                v.label()
            ));
        }
        if same_code_and_seed {
            for name in EXACT {
                let pick = |w: &WorkloadResult| {
                    w.end_to_end.value(name).or_else(|| w.per_layer.value(name))
                };
                if pick(b) != pick(a) {
                    broken.push(format!(
                        "{}: {name} is {:?} then {:?}, but the code and the seed are the same",
                        b.name,
                        pick(b),
                        pick(a)
                    ));
                }
            }
        }
    }
    if same_code_and_seed {
        table.push_str("same commit and seed: exact-count metrics checked for identity\n");
    }
    if broken.is_empty() {
        Ok(table)
    } else {
        Err(format!("{table}{}", broken.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_and_around_a_bound() {
        // Lower is better, bound 5 %, quiet runs.
        assert_eq!(verdict(100.0, 100.0, true, 0.05, 0.0), Verdict::Same);
        assert_eq!(verdict(100.0, 104.9, true, 0.05, 0.0), Verdict::Same);
        assert_eq!(verdict(100.0, 105.0, true, 0.05, 0.0), Verdict::Same); // at the bound
        assert_eq!(verdict(100.0, 105.1, true, 0.05, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 95.0, true, 0.05, 0.0), Verdict::Same);
        assert_eq!(verdict(100.0, 94.9, true, 0.05, 0.0), Verdict::Better);
        // Higher is better: the directions swap.
        assert_eq!(verdict(100.0, 94.0, false, 0.05, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 106.0, false, 0.05, 0.0), Verdict::Better);
        assert_eq!(verdict(100.0, 95.0, false, 0.05, 0.0), Verdict::Same);
    }

    #[test]
    fn noise_wider_than_the_bound_withholds_the_verdict() {
        // 8 % noise against a 5 % bound: a 6 % move says nothing…
        assert_eq!(verdict(100.0, 106.0, true, 0.05, 0.08), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 100.0, true, 0.05, 0.08), Verdict::Unresolved);
        // …a move beyond the noise still does…
        assert_eq!(verdict(100.0, 120.0, true, 0.05, 0.08), Verdict::Worse);
        assert_eq!(verdict(100.0, 80.0, true, 0.05, 0.08), Verdict::Better);
        // …and noise inside the bound changes nothing.
        assert_eq!(verdict(100.0, 106.0, true, 0.05, 0.04), Verdict::Worse);
    }

    fn file(commit: &str, build_ms: f64, join_na: f64, failed: u64) -> ResultFile {
        let line = |name: &str, value: f64| crate::report::RunLine {
            correct: failed == 0,
            attempted: 10,
            failed,
            metrics: vec![(name.to_string(), value, "x".to_string())],
        };
        ResultFile {
            seed: 1998,
            seconds: 20.0,
            smoke: false,
            cores: 2,
            threads: 2,
            rustc: "rustc".to_string(),
            commit: commit.to_string(),
            workloads: vec![WorkloadResult {
                name: "uniform60k-seq".to_string(),
                notes: Vec::new(),
                end_to_end: line("build_ms", build_ms),
                per_layer: line("join.na", join_na),
            }],
        }
    }

    const ONE_BOUND: &str =
        r#"{"end_to_end":[{"name":"build_ms","unit":"ms","better":"lower","bound":0.05}]}"#;

    #[test]
    fn compare_prints_a_row_per_metric_and_asserts_exact_counts() {
        let table = compare(
            &file("abc", 50.0, 46004.0, 0),
            &file("abc", 53.0, 46004.0, 0),
            ONE_BOUND,
        )
        .unwrap();
        assert!(table.contains("uniform60k-seq") && table.contains("build_ms"));
        assert!(table.lines().nth(1).unwrap().ends_with("worse"), "{table}");
        assert!(table.contains("exact-count metrics checked"));
        // Same commit and seed, different NA: refused.
        let broken = compare(
            &file("abc", 50.0, 46004.0, 0),
            &file("abc", 50.0, 46005.0, 0),
            ONE_BOUND,
        )
        .unwrap_err();
        assert!(broken.contains("join.na"), "{broken}");
        // Different commits may differ in NA: reported, not refused.
        assert!(compare(
            &file("abc", 50.0, 46004.0, 0),
            &file("def", 50.0, 46005.0, 0),
            ONE_BOUND
        )
        .is_ok());
        // A run with failed operations is never a valid side.
        assert!(compare(
            &file("abc", 50.0, 46004.0, 0),
            &file("def", 50.0, 46004.0, 1),
            ONE_BOUND
        )
        .is_err());
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let doc = r#"{"end_to_end":[
            {"name":"build_ms","unit":"ms","better":"lower","bound":0.05},
            {"name":"na_model_fit_pct","unit":"%","better":"higher","bound":0.01}]}"#;
        assert_eq!(
            declared_bounds(doc).unwrap(),
            vec![
                ("build_ms".to_string(), true, 0.05),
                ("na_model_fit_pct".to_string(), false, 0.01)
            ]
        );
        assert!(declared_bounds("{}").is_err());
    }
}
