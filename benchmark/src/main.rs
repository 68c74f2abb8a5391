//! The repository's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! sjcm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! sjcm-benchmark --seed <n> [--seconds <s>] [--smoke] [--out <file>]
//!     every workload, untraced then traced, each in a process of its
//!     own; writes one result file
//! sjcm-benchmark compare <before.json> <after.json> [BENCHMARK.json]
//! ```

mod calibrate;
mod compare;
mod layers;
mod metrics;
mod mix;
mod pipeline;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use report::{ResultFile, RunLine, WorkloadResult};
use run::{Config, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seconds a run measures for when `--seconds` is not given; the value
/// `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workload::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; the workloads are {}",
                        workload::NAMES.join(", ")
                    ));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed <u64> is required: the inputs are made from it".to_string());
    }
    Ok(parsed)
}

/// `benchmark/out`: scratch files, traces and result files; git-ignored.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Warns when the machine is busier than it has cores: timings taken
/// now will be noisy.
fn warn_if_loaded(cores: usize) {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    if let Some(load) = load.filter(|l| *l > cores as f64) {
        eprintln!("warning: 1-minute load average {load:.2} exceeds the {cores} cores; timings will be noisy");
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result line of a finished run; an exit code of 0 only when every
/// operation passed its verification.
fn report(outcome: &Outcome, table: &[(&str, &str, &str)]) -> (RunLine, ExitCode) {
    let correct = outcome.failed == 0;
    let line = RunLine {
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        // A run that failed in set-up measured nothing worth printing.
        metrics: if correct {
            outcome.metrics.in_table_order(table)
        } else {
            Vec::new()
        },
    };
    let code = if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    (line, code)
}

/// One run of one workload, in this process.
fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let cores = cores();
    warn_if_loaded(cores);
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        threads: cores.min(2),
        cores,
        out: out_dir(),
    };
    let (outcome, table) = if cfg.trace {
        (run::traced(&cfg)?, metrics::PER_LAYER)
    } else {
        (run::end_to_end(&cfg)?, metrics::END_TO_END)
    };
    for e in &outcome.errors {
        eprintln!("FAILED {e}");
    }
    let (line, code) = report(&outcome, table);
    println!(
        "# {workload} seed {} trace {} cores {cores} threads {}: {} operations, {} failed",
        args.seed,
        u8::from(cfg.trace),
        cfg.threads,
        line.attempted,
        line.failed
    );
    for (name, value) in &outcome.notes {
        println!("# note {name} {value}");
    }
    for (name, value, unit) in &line.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!("{}", line.to_json());
    Ok(code)
}

/// A `# note <name> <value>` line of a run's output.
fn parse_note(line: &str) -> Option<(String, f64)> {
    let mut words = line.strip_prefix("# note ")?.split_whitespace();
    Some((words.next()?.to_string(), words.next()?.parse().ok()?))
}

/// Every workload, untraced then traced, each run in a child process so
/// that `peak_rss_mb` is the workload's own.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cores = cores();
    let mut file = ResultFile {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        cores: cores as u64,
        threads: cores.min(2) as u64,
        rustc: first_line_of("rustc", &["--version"]),
        commit: first_line_of("git", &["rev-parse", "HEAD"]),
        workloads: Vec::new(),
    };
    let mut all_passed = true;
    for name in workload::NAMES {
        let mut lines = Vec::new();
        let mut notes = Vec::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args(["--workload", name, "--seed", &args.seed.to_string()]);
            child.args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            if args.smoke {
                child.arg("--smoke");
            }
            let output = child
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            let line = sjcm::json::parse(last)
                .and_then(|v| RunLine::from_json(&v))
                .map_err(|e| format!("{name} --trace {trace} printed no result: {e}"))?;
            all_passed &= output.status.success() && line.correct;
            lines.push(line);
            if trace == "0" {
                notes = stdout.lines().filter_map(parse_note).collect();
            }
        }
        let per_layer = lines.pop().expect("two runs");
        let end_to_end = lines.pop().expect("two runs");
        file.workloads.push(WorkloadResult {
            name: name.to_string(),
            notes,
            end_to_end,
            per_layer,
        });
    }
    let path = args.out.clone().unwrap_or_else(|| {
        let kind = if args.smoke { "smoke" } else { "result" };
        out_dir().join(format!("{kind}-seed{}.json", args.seed))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("result file: {}", path.display());
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [before, after, rest @ ..] = args else {
        return Err("usage: compare <before.json> <after.json> [BENCHMARK.json]".to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let load = |p: &str| ResultFile::from_json(&read(p)?).map_err(|e| format!("{p}: {e}"));
    let declared = rest.first().map_or("BENCHMARK.json", String::as_str);
    match compare::compare(&load(before)?, &load(after)?, &read(declared)?) {
        Ok(table) => {
            print!("{table}");
            Ok(ExitCode::SUCCESS)
        }
        Err(table_and_breaks) => {
            println!("{table_and_breaks}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark measures optimized builds only (cargo run --release)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        parse_args(&args).and_then(|parsed| match parsed.workload.clone() {
            Some(workload) => run_one(&parsed, &workload),
            None => run_all(&parsed),
        })
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "query-mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("query-mix"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        assert!(
            parse_args(&strings(&["--seed", "1", "--smoke"]))
                .unwrap()
                .smoke
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "query-mix"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "0"])).is_err());
    }

    #[test]
    fn notes_are_read_back_from_a_runs_output() {
        assert_eq!(
            parse_note("# note noise_pct.build_ms 2.5"),
            Some(("noise_pct.build_ms".to_string(), 2.5))
        );
        assert_eq!(parse_note("# uniform60k-seq seed 1 trace 0"), None);
        assert_eq!(parse_note("build_ms   40.1 ms"), None);
    }

    #[test]
    fn a_failed_operation_makes_the_exit_code_non_zero() {
        let mut metrics = Metrics::default();
        for (name, _, _) in metrics::END_TO_END {
            metrics.set(name, 1.0);
        }
        let mut outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics,
            errors: Vec::new(),
            notes: Vec::new(),
        };
        let (line, code) = report(&outcome, metrics::END_TO_END);
        assert!(line.correct && line.failed == 0);
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(line.metrics.len(), metrics::END_TO_END.len());

        outcome.failed = 1;
        let (line, code) = report(&outcome, metrics::END_TO_END);
        assert!(!line.correct && line.failed == 1);
        assert_eq!(code, ExitCode::FAILURE);
    }
}
