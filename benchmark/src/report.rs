//! Result files: what a full run (`--workload` omitted) writes and
//! `compare` reads. One JSON document per run.

use sjcm::json::{parse, Value};

/// The result line of one run of one workload, as the benchmark prints
/// it: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunLine {
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let metrics = match v.get("metrics") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    let unit = m.get("unit").and_then(Value::as_str);
                    match (value, unit) {
                        (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                        _ => Err(format!("metric {name} lacks a value or a unit")),
                    }
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("result line has no metrics object".to_string()),
        };
        Ok(RunLine {
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("result line has no `correct`")?,
            attempted: v
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or("result line has no `attempted`")?,
            failed: v
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or("result line has no `failed`")?,
            metrics,
        })
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Both runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// The untraced run's `# note` lines: pass counts, the noise of its
    /// medians, the machine's slow-down.
    pub notes: Vec<(String, f64)>,
    pub end_to_end: RunLine,
    pub per_layer: RunLine,
}

/// A full run: the provenance every result file records, then the four
/// workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub cores: u64,
    pub threads: u64,
    pub rustc: String,
    pub commit: String,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                let notes: Vec<String> =
                    w.notes.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
                format!(
                    "\n  \"{}\":{{\n   \"notes\":{{{}}},\n   \"end_to_end\":{},\n   \"per_layer\":{}}}",
                    w.name,
                    notes.join(","),
                    w.end_to_end.to_json(),
                    w.per_layer.to_json()
                )
            })
            .collect();
        format!(
            "{{\"seed\":{},\"seconds\":{},\"smoke\":{},\"bench.cores\":{},\"threads\":{},\
             \"rustc\":{},\"git_commit\":{},\"workloads\":{{{}\n}}}}\n",
            self.seed,
            self.seconds,
            self.smoke,
            self.cores,
            self.threads,
            Value::Str(self.rustc.clone()),
            Value::Str(self.commit.clone()),
            workloads.join(",")
        )
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("no `{k}`"));
        let text_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("no `{k}`"))
        };
        let workloads = match v.get("workloads") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(name, w)| {
                    let line = |k: &str| {
                        RunLine::from_json(w.get(k).ok_or(format!("{name} has no `{k}`"))?)
                    };
                    let notes = match w.get("notes") {
                        Some(Value::Obj(pairs)) => pairs
                            .iter()
                            .filter_map(|(n, v)| Some((n.clone(), v.as_f64()?)))
                            .collect(),
                        _ => return Err(format!("{name} has no `notes`")),
                    };
                    Ok(WorkloadResult {
                        name: name.clone(),
                        notes,
                        end_to_end: line("end_to_end")?,
                        per_layer: line("per_layer")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("no `workloads`".to_string()),
        };
        Ok(ResultFile {
            seed: v.get("seed").and_then(Value::as_u64).ok_or("no `seed`")?,
            seconds: num("seconds")?,
            smoke: v
                .get("smoke")
                .and_then(Value::as_bool)
                .ok_or("no `smoke`")?,
            cores: num("bench.cores")? as u64,
            threads: num("threads")? as u64,
            rustc: text_of("rustc")?,
            commit: text_of("git_commit")?,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_round_trip() {
        let line = |name: &str, value: f64| RunLine {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![(name.to_string(), value, "ms".to_string())],
        };
        let file = ResultFile {
            seed: 1998,
            seconds: 20.0,
            smoke: false,
            cores: 2,
            threads: 2,
            rustc: "rustc 1.0 (\"quoted\")".to_string(),
            commit: "unknown".to_string(),
            workloads: vec![WorkloadResult {
                name: "uniform60k-seq".to_string(),
                notes: vec![("noise_pct.build_ms".to_string(), 2.5)],
                end_to_end: line("build_ms", 46.125),
                per_layer: line("join.seq_ms", 61.5),
            }],
        };
        let back = ResultFile::from_json(&file.to_json()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.workloads[0].end_to_end.value("build_ms"), Some(46.125));
        assert!(ResultFile::from_json("{}").is_err());
    }
}
