//! End-to-end checks of the `experiments` binary's error surface.
//!
//! These exercise the paths a unit test can't: argument parsing, exit
//! codes, and the stderr contract when an artifact directory is bad.
//! Each test shells out to the compiled binary via
//! `CARGO_BIN_EXE_experiments`, so they run against exactly what ships.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn tmp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sjcm_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `validate-obs` on a directory with no artifacts must fail and name
/// the files it looked for, so a misconfigured CI step is diagnosable
/// from the log alone.
#[test]
fn validate_obs_missing_dir_fails_with_message() {
    let missing = std::env::temp_dir().join(format!("sjcm_cli_missing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let out = bin()
        .args(["validate-obs", "--obs-dir"])
        .arg(&missing)
        .output()
        .expect("spawn experiments");
    assert!(!out.status.success(), "expected nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no artifacts found"),
        "stderr should explain what was missing, got: {stderr}"
    );
    assert!(
        stderr.contains("governor_events.jsonl"),
        "stderr should list the governor artifact among expectations, got: {stderr}"
    );
}

/// `join --obs-dir` pointing somewhere that cannot be created must
/// fail up front rather than run the join and drop the artifacts.
#[test]
fn join_uncreatable_obs_dir_fails_fast() {
    let out_dir = tmp_out("join_badobs");
    let out = bin()
        .args([
            "join",
            "--scale",
            "0.05",
            "--obs-dir",
            "/dev/null/nope",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .expect("spawn experiments");
    assert!(!out.status.success(), "expected nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create --obs-dir"),
        "stderr should name the bad directory, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The governed flags reject nonsense values during parsing, before
/// any data is generated.
#[test]
fn join_rejects_nonpositive_na_budget() {
    let out_dir = tmp_out("join_badbudget");
    let out = bin()
        .args(["join", "--scale", "0.05", "--na-budget", "-3", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn experiments");
    assert!(!out.status.success(), "expected nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--na-budget"),
        "stderr should name the offending flag, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// An impossible NA budget with the default reject policy is a typed
/// admission failure: exit 1 and a message naming prediction vs budget.
#[test]
fn join_admission_rejection_is_reported() {
    let out_dir = tmp_out("join_reject");
    let out = bin()
        .args(["join", "--scale", "0.05", "--na-budget", "1", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn experiments");
    assert!(!out.status.success(), "expected nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rejected") || stderr.contains("budget"),
        "stderr should describe the admission rejection, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// Every obs dir `join` writes passes `validate-obs`, and holds exactly
/// the artifacts the run can vouch for. An ungoverned run writes all
/// four, and its published buffer hits and misses are the NA − DA and
/// DA of the per-level tallies it publishes beside them. A run whose zero deadline forfeits every unit reads no page:
/// it withholds the metrics (the drift contract fails on a degraded
/// run) and the access trace (there is nothing to replay), and writes
/// the governor's decision log instead.
#[test]
fn join_obs_dirs_validate_and_hold_what_the_run_vouches_for() {
    let cases: [(&str, &[&str], &[&str]); 2] = [
        (
            "ungoverned",
            &[],
            &[
                "join_access_trace.bin",
                "join_metrics.jsonl",
                "join_progress.jsonl",
                "join_trace.jsonl",
            ],
        ),
        (
            "forfeited",
            &["--deadline-ms", "0"],
            &[
                "governor_events.jsonl",
                "join_progress.jsonl",
                "join_trace.jsonl",
            ],
        ),
    ];
    for (tag, flags, expected) in cases {
        let out_dir = tmp_out(&format!("join_obs_{tag}"));
        let obs_dir = out_dir.join("obs");
        let out = bin()
            .args(["join", "--scale", "0.05", "--threads", "2"])
            .args(flags)
            .arg("--obs-dir")
            .arg(&obs_dir)
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("spawn experiments");
        assert!(
            out.status.success(),
            "{tag}: join failed\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut files: Vec<String> = std::fs::read_dir(&obs_dir)
            .expect("the obs dir exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, expected, "{tag}: artifacts in the obs dir");
        let out = bin()
            .args(["validate-obs", "--obs-dir"])
            .arg(&obs_dir)
            .output()
            .expect("spawn experiments");
        assert!(
            out.status.success(),
            "{tag}: validate-obs failed\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        if tag == "ungoverned" {
            assert_buffer_counters_are_the_access_tallies(&obs_dir);
        }
        each_broken_line_fails_validation(&obs_dir, &out_dir.join("broken"));
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}

/// In `join_metrics.jsonl`, for each tree `t`:
/// `buffer.r{t}.hits + buffer.r{t}.misses = Σ_l join.na.r{t}.l{l}` and
/// `buffer.r{t}.misses = Σ_l join.da.r{t}.l{l}`.
fn assert_buffer_counters_are_the_access_tallies(obs_dir: &Path) {
    use sjcm_obs::json::{read_jsonl, Value};
    let text = std::fs::read_to_string(obs_dir.join("join_metrics.jsonl")).unwrap();
    let counters: Vec<(String, u64)> = read_jsonl(&text)
        .expect("the metrics parse")
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("counter"))
        .map(|v| {
            let name = v.get("name").and_then(Value::as_str).unwrap().to_string();
            (name, v.get("value").and_then(Value::as_u64).unwrap())
        })
        .collect();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no counter {name}"))
            .1
    };
    let level_sum = |prefix: &str| -> u64 {
        counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    };
    for t in 1..=2 {
        let na = level_sum(&format!("join.na.r{t}.l"));
        let da = level_sum(&format!("join.da.r{t}.l"));
        assert!(na > 0, "tree {t}: no NA published");
        let (hits, misses) = (
            counter(&format!("buffer.r{t}.hits")),
            counter(&format!("buffer.r{t}.misses")),
        );
        assert_eq!(hits + misses, na, "tree {t}: hits + misses = NA");
        assert_eq!(misses, da, "tree {t}: misses = DA");
    }
}

/// For every JSONL artifact in `obs_dir`: a copy whose second line (the
/// first, for a one-line file) is cut in half, alone in `scratch`, fails
/// `validate-obs`, which names the file and the line.
fn each_broken_line_fails_validation(obs_dir: &Path, scratch: &Path) {
    for entry in std::fs::read_dir(obs_dir).expect("the obs dir exists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !name.ends_with(".jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(obs_dir.join(&name)).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let n = lines.len().min(2);
        let line = lines[n - 1];
        lines[n - 1] = &line[..line.len() / 2];
        let _ = std::fs::remove_dir_all(scratch);
        std::fs::create_dir_all(scratch).unwrap();
        std::fs::write(scratch.join(&name), lines.join("\n")).unwrap();
        let out = bin()
            .args(["validate-obs", "--obs-dir"])
            .arg(scratch)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: a broken line passed");
        assert!(
            stderr.contains(&format!("{name}: line {n}: ")),
            "{name}: stderr should name the file and line {n}, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(scratch);
}

/// `explain --obs-dir` writes the plan analysis, which passes
/// `validate-obs` and fails it with one line broken.
#[test]
fn explain_obs_dir_validates() {
    let out_dir = tmp_out("explain_obs");
    let obs_dir = out_dir.join("obs");
    let out = bin()
        .args(["explain", "--scale", "0.05", "--obs-dir"])
        .arg(&obs_dir)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "explain failed\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(obs_dir.join("plan_analyze.jsonl").is_file());
    let out = bin()
        .args(["validate-obs", "--obs-dir"])
        .arg(&obs_dir)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "validate-obs failed\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    each_broken_line_fails_validation(&obs_dir, &out_dir.join("broken"));
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The flags `--obs-dir` replaced, and the `--seed` flag and `chaos`
/// command that went with the join's simulated fault path, are refused
/// like any unknown flag or command.
#[test]
fn replaced_flags_are_unknown_flags() {
    let inputs: [(&[&str], &str); 4] = [
        (&["join", "--trace", "x"], "unknown flag --trace"),
        (&["join", "--metrics", "x"], "unknown flag --metrics"),
        (&["join", "--seed", "1998"], "unknown flag --seed"),
        (&["chaos"], "unknown command chaos"),
    ];
    for (args, refusal) in inputs {
        let out = bin().args(args).output().expect("spawn experiments");
        assert!(!out.status.success(), "{args:?}: expected nonzero exit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(refusal), "{args:?}: {stderr}");
    }
}

/// Unknown commands exit nonzero and point at the help text.
#[test]
fn unknown_command_fails() {
    let out = bin()
        .arg("no-such-command")
        .output()
        .expect("spawn experiments");
    assert!(!out.status.success(), "expected nonzero exit");
}

/// `help` lists exactly the commands that dispatch: every name it
/// prints runs at a tiny scale (exit 0, or 1 from a gate or a missing
/// --obs-dir — never the unknown-command path or a panic), and the
/// unknown-command message names the same set.
#[test]
fn help_lists_every_dispatched_command() {
    let out = bin().arg("help").output().expect("spawn experiments");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    let names: Vec<&str> = help
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().expect("a command name"))
        .collect();
    for expected in ["figure5a", "join", "explain", "validate-obs", "all"] {
        assert!(names.contains(&expected), "help omits {expected}: {help}");
    }

    let out_dir = tmp_out("help_dispatch");
    for name in &names {
        let out = bin()
            .args([name, "--scale", "0.02", "--threads", "2", "--out"])
            .arg(&out_dir)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{name}: {:?}\n{stderr}",
            out.status
        );
        assert!(!stderr.contains("unknown command"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&out_dir);

    let out = bin()
        .arg("no-such-command")
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let listed = stderr
        .lines()
        .find_map(|l| l.strip_prefix("commands: "))
        .expect("the unknown-command message lists the commands");
    assert_eq!(listed.split_whitespace().collect::<Vec<_>>(), names);
}
