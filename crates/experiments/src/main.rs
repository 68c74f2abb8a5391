//! Experiment harness for the ICDE 1998 spatial-join cost-model
//! reproduction: every table and figure of the paper's §4, plus the
//! extension studies, regenerable from the command line.
//!
//! ```text
//! experiments <command> [--scale F] [--out DIR]
//!
//! commands:
//!   figure5a        Fig 5(a): exper vs anal NA/DA, all combos, n = 1
//!   figure5b        Fig 5(b): same, n = 2
//!   figure6         Fig 6(a,b): equally populated indexes, height jumps
//!   figure7         Fig 7(a,b): analytic DA sweeps, role-rule exceptions
//!   errors-uniform  §4.1 claims (i)-(iii): relative-error tables
//!   density-sweep   §4.1: D ∈ {0.2 … 0.8}
//!   nonuniform      §4.2: skewed data, global vs local model
//!   real            §4.2: TIGER-like substitution workloads
//!   param-source    ablation: analytic (Eqs 2-5) vs measured parameters
//!   selectivity     §5 extension: join selectivity estimates
//!   role-choice     §4.1(iii): query/data role assignment rule
//!   lru-ablation    §5 extension: LRU buffer study
//!   high-dim        §5 extension: n = 3, 4
//!   algo-compare    SJ vs baselines vs PBSM
//!   parallel        §5 outlook: cost-guided parallel SJ vs round-robin
//!   params-diff     analytic-vs-measured tree parameter table
//!   explain         EXPLAIN ANALYZE of the optimizer's plan for the
//!                   fixed-seed rivers × countries selection-join:
//!                   per-operator estimate vs re-estimate vs measured
//!                   NA/DA with catalog/model error attribution
//!                   (--obs-dir persists plan_analyze.jsonl;
//!                   --calibrate demos the stale-catalog flip and
//!                   persists the corrected catalog.json)
//!   join            one fully observed join: spans, metrics, live
//!                   drift, the Eq-6-seeded progress/ETA engine
//!                   (--watch draws it live; --obs-dir persists the
//!                   snapshot JSONL), and (with --obs-dir) the
//!                   page-access flight recorder + Perfetto export;
//!                   --deadline-ms/--na-budget/--mem-budget arm the
//!                   query governor around the run (decisions stream
//!                   to governor_events.jsonl under --obs-dir)
//!   governor        the governor walkthrough: measure the full
//!                   runtime, reject an over-budget admission, truncate
//!                   at deadline = T/2 on every scheduler (forfeit
//!                   estimate gated against the ±15% envelope at scale
//!                   >= 1), and show ETA-guided shedding retaining more
//!                   pairs than naive truncation (governor_shed.csv;
//!                   --obs-dir persists governor_events.jsonl)
//!   chaos           seeded fault-injection campaigns: transient faults
//!                   must heal to a byte-identical join, permanent leaf
//!                   loss must degrade gracefully with the forfeit
//!                   estimate inside the envelope (exit 1 on gate
//!                   failure)
//!   trace replay    what-if buffer replay of the recorded trace
//!   trace report    per-level histograms + hottest pages of the trace
//!   validate-obs    check every artifact in --obs-dir
//!   all             everything above (except trace/validate-obs)
//!
//! --scale F    scales the paper's 20K–80K cardinalities by F (default
//!              1.0; use e.g. 0.1 for a quick pass)
//! --out DIR    CSV output directory (default results/)
//! --threads T  worker threads for parallel/join commands (default 4)
//! --obs-dir D  join: write the observability artifacts (span JSONL,
//!              metrics JSONL, binary access trace, Perfetto JSON)
//!              into D; chaos adds its fault/drift metrics JSONL;
//!              trace replay/report and validate-obs read them
//! --seed S     chaos: seeds the deterministic fault plans (default
//!              1998; the data seeds stay pinned)
//! --watch      join: redraw the live progress line (fraction, ETA
//!              with the ±15% band, pairs) while the join runs
//! --calibrate  explain: start from a 4×-mis-registered catalog,
//!              write the measured statistics back, persist the
//!              corrected catalog.json and show the re-planning flip
//! --deadline-ms MS  join: cooperative wall-clock deadline; on expiry
//!              the run degrades (forfeited work priced), never aborts
//! --na-budget F     join: admission budget in Eq-6 node accesses;
//!              over-budget queries are rejected with exit 1
//! --mem-budget B    join: arena memory budget in bytes; a denied
//!              reservation is a typed error, exit 1
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

struct Args {
    command: String,
    opts: RunOpts,
    watch: bool,
    calibrate: bool,
    deadline_ms: Option<u64>,
    na_budget: Option<f64>,
    mem_budget: Option<u64>,
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
    let mut mem_budget = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --scale {v}: {e}"))?;
            }
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --threads {v}: {e}"))?;
            }
            "--obs-dir" => {
                obs_dir = Some(PathBuf::from(args.next().ok_or("--obs-dir needs a value")?));
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v
                    .parse::<u64>()
                    .map_err(|e| format!("bad --seed {v}: {e}"))?;
            }
            "--watch" => watch = true,
            "--calibrate" => calibrate = true,
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                let ms = v
                    .parse::<u64>()
                    .map_err(|e| format!("bad --deadline-ms {v}: {e}"))?;
                deadline_ms = Some(ms);
            }
            "--na-budget" => {
                let v = args.next().ok_or("--na-budget needs a value")?;
                let b = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --na-budget {v}: {e}"))?;
                if !b.is_finite() || b <= 0.0 {
                    return Err("--na-budget must be a positive number".into());
                }
                na_budget = Some(b);
            }
            "--mem-budget" => {
                let v = args.next().ok_or("--mem-budget needs a value")?;
                let b = v
                    .parse::<u64>()
                    .map_err(|e| format!("bad --mem-budget {v}: {e}"))?;
                if b == 0 {
                    return Err("--mem-budget must be at least 1 byte".into());
                }
                mem_budget = Some(b);
            }
            "--trace" | "--metrics" => {
                return Err(format!(
                    "{flag} was replaced by --obs-dir DIR (the directory \
                     receives join_trace.jsonl, join_metrics.jsonl, \
                     join_access_trace.bin and join_perfetto.json)"
                ));
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
        mem_budget,
    })
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
    let opts = &args.opts;
    let out = opts.out.as_path();
    let scale = opts.scale;
    let started = std::time::Instant::now();
    let run = |cmd: &str| -> bool {
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
                match observability::join_observed(opts, args.watch, None) {
                    Ok(true) => {}
                    Ok(false) => eprintln!("warning: drift breached the envelope (see above)"),
                    // Unreachable without a governor config, but keep the
                    // arm total rather than panicking on a user path.
                    Err(e) => {
                        eprintln!("join: {e}");
                        return false;
                    }
                }
            }
            _ => return false,
        }
        true
    };
    match args.command.as_str() {
        "all" => {
            for cmd in [
                "figure5a",
                "figure5b",
                "figure6",
                "figure7",
                "errors-uniform",
                "density-sweep",
                "nonuniform",
                "real",
                "param-source",
                "params-diff",
                "selectivity",
                "role-choice",
                "lru-ablation",
                "high-dim",
                "algo-compare",
                "parallel",
                "join",
            ] {
                println!("\n#### {cmd} ####");
                assert!(run(cmd));
            }
        }
        "explain" => {
            let ok = if args.calibrate {
                explain::calibrate(opts)
            } else {
                explain::explain(opts)
            };
            if !ok {
                eprintln!("explain: gate failed");
                return ExitCode::FAILURE;
            }
        }
        "chaos" => {
            if !chaos::chaos(opts) {
                eprintln!("chaos: at least one gate failed");
                return ExitCode::FAILURE;
            }
        }
        "join"
            if args.deadline_ms.is_some()
                || args.na_budget.is_some()
                || args.mem_budget.is_some() =>
        {
            let gov =
                governor::config_from_flags(args.deadline_ms, args.na_budget, args.mem_budget);
            match observability::join_observed(opts, args.watch, gov) {
                Ok(true) => {}
                Ok(false) => eprintln!("warning: drift breached the envelope (see above)"),
                Err(e) => {
                    eprintln!("join: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "governor" => {
            if !governor::governor(opts, args.deadline_ms) {
                eprintln!("governor: at least one gate failed");
                return ExitCode::FAILURE;
            }
        }
        "validate-obs" => {
            let Some(dir) = opts.require_obs_dir("validate-obs") else {
                return ExitCode::FAILURE;
            };
            if !observability::validate_obs(dir) {
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        "trace-replay" => {
            if !trace::replay_cmd(opts) {
                return ExitCode::FAILURE;
            }
        }
        "trace-report" => {
            if !trace::report_cmd(opts) {
                return ExitCode::FAILURE;
            }
        }
        "help" | "--help" | "-h" => {
            println!("commands: figure5a figure5b figure6 figure7 errors-uniform");
            println!("          density-sweep nonuniform real param-source params-diff");
            println!("          selectivity role-choice lru-ablation high-dim");
            println!("          algo-compare parallel join explain chaos governor");
            println!("          trace-replay trace-report");
            println!("          (also spelled `trace replay` / `trace report`)");
            println!("          validate-obs all");
            println!("flags:    --scale F (default 1.0), --out DIR (default results/),");
            println!("          --threads T (parallel/join/chaos commands, default 4),");
            println!("          --obs-dir D (join writes span/metrics/progress JSONL, the");
            println!("          binary access trace and the Perfetto export there; chaos");
            println!("          adds its fault/drift metrics JSONL; trace replay/report");
            println!("          and validate-obs read them back),");
            println!("          --seed S (chaos fault-plan seed, default 1998),");
            println!("          --watch (join: live progress/ETA line),");
            println!("          --calibrate (explain: stale-catalog demo + catalog.json),");
            println!("          --deadline-ms MS / --na-budget F / --mem-budget BYTES (join:");
            println!("          arm the query governor; governor: --deadline-ms overrides");
            println!("          the derived half-runtime deadline)");
            return ExitCode::SUCCESS;
        }
        cmd => {
            if !run(cmd) {
                eprintln!("unknown command {cmd}; try `experiments help`");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("\ndone in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
