//! Experiment harness for the ICDE 1998 spatial-join cost-model
//! reproduction: every table and figure of the paper's §4, plus the
//! extension studies, regenerable from the command line.
//!
//! ```text
//! experiments <command> [--scale F] [--out DIR] [flags]
//! experiments help        # every command and flag, from `COMMANDS`
//! ```

mod chaos;
mod common;
mod errors;
mod explain;
mod extensions;
mod figures;
mod governor;
mod observability;
mod report;
mod trace;

use common::RunOpts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// Every command `run` dispatches, with its `help` line. `all` runs the
/// first [`IN_ALL`] in this order; the unknown-command message and
/// `help` print the whole table, so a command missing here cannot be
/// reached.
const COMMANDS: &[(&str, &str)] = &[
    (
        "figure5a",
        "Fig 5(a): exper vs anal NA/DA, all combos, n = 1",
    ),
    ("figure5b", "Fig 5(b): same, n = 2"),
    (
        "figure6",
        "Fig 6(a,b): equally populated indexes, height jumps",
    ),
    (
        "figure7",
        "Fig 7(a,b): analytic DA sweeps, role-rule exceptions",
    ),
    (
        "errors-uniform",
        "§4.1 claims (i)-(iii): relative-error tables",
    ),
    ("density-sweep", "§4.1: D ∈ {0.2 … 0.8}"),
    ("nonuniform", "§4.2: skewed data, global vs local model"),
    ("real", "§4.2: TIGER-like substitution workloads"),
    (
        "param-source",
        "ablation: analytic (Eqs 2-5) vs measured parameters",
    ),
    ("params-diff", "analytic-vs-measured tree parameter table"),
    ("selectivity", "§5 extension: join selectivity estimates"),
    ("role-choice", "§4.1(iii): query/data role assignment rule"),
    ("lru-ablation", "§5 extension: LRU buffer study"),
    ("high-dim", "§5 extension: n = 3, 4"),
    ("algo-compare", "SJ vs baselines vs PBSM"),
    (
        "parallel",
        "§5 outlook: cost-guided parallel SJ vs round-robin",
    ),
    (
        "join",
        "one fully observed join: spans, metrics, drift, progress/ETA, governor",
    ),
    (
        "explain",
        "EXPLAIN ANALYZE of the optimizer's plan; exit 1 outside the ±15% envelope",
    ),
    (
        "governor",
        "admission, deadline and shed walkthrough; exit 1 on a failed gate",
    ),
    (
        "chaos",
        "seeded fault-injection campaigns; exit 1 on a failed gate",
    ),
    (
        "trace-replay",
        "what-if buffer replay of the recorded trace (also `trace replay`)",
    ),
    (
        "trace-report",
        "level histograms + hottest pages of the trace (also `trace report`)",
    ),
    ("validate-obs", "check every artifact in --obs-dir"),
];

/// `all` runs `COMMANDS[..IN_ALL]`: the studies behind `results/*.csv`.
/// The rest gate (exit 1 by design) or read a previous run's --obs-dir.
const IN_ALL: usize = 17;

const FLAGS: &str = "\
--scale F         scales the paper's 20K–80K cardinalities by F (default 1.0;
                  use e.g. 0.1 for a quick pass)
--out DIR         CSV output directory (default results/)
--threads T       worker threads for parallel/join/chaos commands (default 4)
--obs-dir D       join: write span/metrics/progress JSONL and the binary
                  access trace into D; chaos adds its fault/drift metrics
                  JSONL; trace replay/report and validate-obs read them back
--seed S          chaos: seeds the deterministic fault plans (default 1998;
                  the data seeds stay pinned)
--watch           join: redraw the live progress line (fraction, ETA with the
                  ±15% band, pairs) while the join runs
--calibrate       explain: start from a 4×-mis-registered catalog, write the
                  measured statistics back, persist the corrected catalog.json
                  and show the re-planning flip
--deadline-ms MS  join: cooperative wall-clock deadline; on expiry the run
                  degrades (forfeited work priced), never aborts; governor:
                  overrides the derived half-runtime deadline
--na-budget F     join: admission budget in Eq-6 node accesses; over-budget
                  queries are rejected with exit 1";

fn help() -> String {
    let mut text = String::from("commands:\n");
    for (name, summary) in COMMANDS {
        text += &format!("  {name:<15} {summary}\n");
    }
    text += &format!(
        "  {:<15} the first {IN_ALL} above, in order\n\nflags:\n{FLAGS}",
        "all"
    );
    text
}

struct Args {
    command: String,
    opts: RunOpts,
    watch: bool,
    calibrate: bool,
    deadline_ms: Option<u64>,
    na_budget: Option<f64>,
}

/// The value of a `--flag VALUE` pair, parsed.
fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("bad {flag} {v}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut command = args.next().ok_or("missing command")?;
    if command == "trace" {
        match args.next().as_deref() {
            Some("replay") => command = "trace-replay".into(),
            Some("report") => command = "trace-report".into(),
            other => {
                return Err(format!(
                    "trace needs a subcommand (replay | report), got {}",
                    other.unwrap_or("nothing")
                ))
            }
        }
    }
    let mut scale = 1.0;
    let mut out = PathBuf::from("results");
    let mut threads = 4;
    let mut obs_dir = None;
    let mut seed = 1998;
    let mut watch = false;
    let mut calibrate = false;
    let mut deadline_ms = None;
    let mut na_budget = None;
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        match flag {
            "--scale" => scale = value(flag, &mut args)?,
            "--out" => out = value(flag, &mut args)?,
            "--threads" => threads = value(flag, &mut args)?,
            "--obs-dir" => obs_dir = Some(value(flag, &mut args)?),
            "--seed" => seed = value(flag, &mut args)?,
            "--watch" => watch = true,
            "--calibrate" => calibrate = true,
            "--deadline-ms" => deadline_ms = Some(value(flag, &mut args)?),
            "--na-budget" => {
                let b: f64 = value(flag, &mut args)?;
                if !b.is_finite() || b <= 0.0 {
                    return Err("--na-budget must be a positive number".into());
                }
                na_budget = Some(b);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // One validation seam for the flags every command shares: bad
    // values (and an uncreatable --obs-dir) fail here, before any
    // index is built.
    let opts = RunOpts::new(out, scale, threads, seed, obs_dir)?;
    Ok(Args {
        command,
        opts,
        watch,
        calibrate,
        deadline_ms,
        na_budget,
    })
}

/// Runs one command of [`COMMANDS`]; `false` (after saying why on
/// stderr) when it failed or one of its gates did.
fn run(cmd: &str, args: &Args) -> bool {
    let opts = &args.opts;
    let (out, scale) = (opts.out.as_path(), opts.scale);
    let gate = |ok: bool, what: &str| {
        if !ok {
            eprintln!("{cmd}: {what}");
        }
        ok
    };
    match cmd {
        "figure5a" => figures::figure5::<1>(out, scale),
        "figure5b" => figures::figure5::<2>(out, scale),
        "figure6" => figures::figure6(out, scale),
        "figure7" => figures::figure7(out, scale),
        "errors-uniform" => errors::errors_uniform(out, scale),
        "density-sweep" => errors::density_sweep(out, scale),
        "nonuniform" => errors::nonuniform(out, scale),
        "real" => errors::real(out, scale),
        "param-source" => errors::param_source(out, scale),
        "params-diff" => errors::params_diff(out, scale),
        "selectivity" => extensions::selectivity(out, scale),
        "role-choice" => extensions::role_choice(out, scale),
        "lru-ablation" => extensions::lru_ablation(out, scale),
        "high-dim" => extensions::high_dim(out, scale),
        "algo-compare" => extensions::algo_compare(out, scale),
        "parallel" => extensions::parallel_join(out, scale, opts.threads),
        "join" => {
            let gov = governor::config_from_flags(args.deadline_ms, args.na_budget);
            match observability::join_observed(opts, args.watch, gov) {
                Ok(true) => {}
                Ok(false) => eprintln!("warning: drift breached the envelope (see above)"),
                Err(e) => {
                    eprintln!("join: {e}");
                    return false;
                }
            }
        }
        "explain" if args.calibrate => return gate(explain::calibrate(opts), "gate failed"),
        "explain" => return gate(explain::explain(opts), "gate failed"),
        "chaos" => return gate(chaos::chaos(opts), "at least one gate failed"),
        "governor" => {
            return gate(
                governor::governor(opts, args.deadline_ms),
                "at least one gate failed",
            )
        }
        // These three say what went wrong themselves.
        "validate-obs" => {
            return opts
                .require_obs_dir("validate-obs")
                .is_some_and(observability::validate_obs)
        }
        "trace-replay" => return trace::replay_cmd(opts),
        "trace-report" => return trace::report_cmd(opts),
        _ => unreachable!("COMMANDS lists {cmd} and nothing dispatches it"),
    }
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("usage: experiments <command> [--scale F] [--out DIR]");
            eprintln!("run with `help` for the command list");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", help());
            return ExitCode::SUCCESS;
        }
        "all" => {
            for (cmd, _) in &COMMANDS[..IN_ALL] {
                println!("\n#### {cmd} ####");
                assert!(run(cmd, &args));
            }
        }
        cmd if COMMANDS.iter().any(|(name, _)| *name == cmd) => {
            if !run(cmd, &args) {
                return ExitCode::FAILURE;
            }
        }
        cmd => {
            let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown command {cmd}; try `experiments help`");
            eprintln!("commands: {} all", names.join(" "));
            return ExitCode::FAILURE;
        }
    }
    println!("\ndone in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
