//! The offline trace toolchain: `trace replay` and `trace report` over
//! the binary page-access trace the flight recorder writes into
//! `--obs-dir` (see [`crate::observability`]).
//!
//! `trace replay` is the what-if engine of the PR: it re-simulates the
//! captured access stream through buffer policies that were *not*
//! running when the trace was recorded. Replaying the recorded policy
//! must reproduce the live DA counters exactly (every event carries
//! the hit/miss verdict the live buffer gave, so a single mismatched
//! verdict is detectable); the LRU sweep then draws the DA-vs-buffer-
//! size curve, one replay per capacity, next to the Eq 8–12 prediction
//! carried in the trace header.
//!
//! `trace report` summarizes locality: per-tree per-level access
//! histograms and the top-k hottest pages.

use crate::common::{rel_err, RunOpts};
use crate::report::{int, pct, Report};
use sjcm_storage::recorder::{AccessTrace, PageAccessEvent};
use sjcm_storage::replay::replay;
use sjcm_storage::{hit_ratio, AccessKind, BufferPolicy};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// File name of the binary access trace inside `--obs-dir`.
pub const ACCESS_TRACE_FILE: &str = "join_access_trace.bin";

/// LRU capacities the what-if sweep reports (pages per tree per
/// residency domain). 0 degenerates to no buffer; the top end is far
/// past any path length the 60K workloads produce.
const LRU_SWEEP: [usize; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

fn policy_name(p: BufferPolicy) -> String {
    match p {
        BufferPolicy::None => "none".into(),
        BufferPolicy::Path => "path".into(),
        BufferPolicy::Lru(cap) => format!("lru{cap}"),
    }
}

/// A trace the toolchain can replay: it holds at least one event.
/// `validate-obs` applies the same check.
pub(crate) fn replayable(trace: AccessTrace) -> Result<AccessTrace, String> {
    if trace.events.is_empty() {
        return Err("trace holds no events".to_string());
    }
    Ok(trace)
}

fn load(dir: &Path) -> Result<AccessTrace, String> {
    let path = dir.join(ACCESS_TRACE_FILE);
    AccessTrace::read(&path)
        .and_then(replayable)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn fmt_ratio(hits: u64, misses: u64) -> String {
    match hit_ratio(hits, misses) {
        Some(h) => format!("{h:.4}"),
        None => "n/a".into(),
    }
}

/// The floor of the LRU curve: `(cold misses, saturating capacity)`.
/// A cold miss is the first touch of a page in its (corr, tree)
/// buffer, which no capacity avoids; the saturating capacity is the
/// smallest whose replay misses only those. LRU's inclusion property
/// makes misses non-increasing in capacity, so a binary search over
/// `0..=cold` finds it (no domain holds more than `cold` pages, so that
/// capacity never evicts).
fn lru_floor(events: &[PageAccessEvent]) -> (u64, usize) {
    let cold = events
        .iter()
        .map(|e| (e.corr, e.tree, e.page))
        .collect::<HashSet<_>>()
        .len();
    let (mut lo, mut hi) = (0, cold);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if replay(events, BufferPolicy::Lru(mid)).da_total() == cold as u64 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (cold as u64, lo)
}

/// The `trace replay` command. Returns `false` (with diagnostics on
/// stderr) when the trace cannot be loaded or the recorded-policy
/// replay fails to reproduce the live counters.
pub fn replay_cmd(opts: &RunOpts) -> bool {
    let Some(dir) = opts.require_obs_dir("trace replay") else {
        return false;
    };
    let out = opts.out.as_path();
    let trace = match load(dir) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace replay: {e}");
            return false;
        }
    };
    let live_na = trace.events.len() as u64;
    let live_da = trace
        .events
        .iter()
        .filter(|e| e.kind == AccessKind::Miss)
        .count() as u64;
    println!(
        "trace replay: {} events, policy {}, live NA {} DA {}",
        live_na,
        policy_name(trace.policy),
        live_na,
        live_da
    );

    // Exactness gate: re-simulating the recorded policy must hand back
    // the very hit/miss stream the live buffers produced.
    let rec = replay(&trace.events, trace.policy);
    if rec.kind_mismatches != 0 {
        eprintln!(
            "trace replay: recorded-policy replay DIVERGED from the live \
             run on {} of {} events — trace and executor disagree",
            rec.kind_mismatches, live_na
        );
        return false;
    }
    assert_eq!(rec.na_total(), live_na);
    assert_eq!(rec.da_total(), live_da);
    println!(
        "trace replay: recorded policy reproduced exactly \
         (0 verdict mismatches; DA {} = live {})",
        rec.da_total(),
        live_da
    );

    let mut table = Report::new(
        out,
        "trace_replay",
        &["policy", "na", "da", "hit_ratio", "da_pred", "rel_err"],
    );
    table.comment(&format!(
        "what-if replay of {}; recorded policy {}; header predictions \
         NA {:.0} DA {:.0} (Eqs 7/11 and 10/12)",
        dir.join(ACCESS_TRACE_FILE).display(),
        policy_name(trace.policy),
        trace.na_pred,
        trace.da_pred
    ));
    table.comment("every row is one replay of the trace through a fresh buffer per (corr, tree)");
    let pred_cell = |applies: bool, pred: f64, da: u64| -> (String, String) {
        if applies && pred > 0.0 {
            (int(pred), pct(rel_err(pred, da as f64)))
        } else {
            ("-".into(), "-".into())
        }
    };
    let lru = LRU_SWEEP.map(BufferPolicy::Lru);
    let policies = [BufferPolicy::None, BufferPolicy::Path]
        .into_iter()
        .chain(lru);
    for policy in policies {
        let da = replay(&trace.events, policy).da_total();
        let (pred, err) = pred_cell(policy == trace.policy, trace.da_pred, da);
        table.row(&[
            &policy_name(policy),
            &live_na,
            &da,
            &fmt_ratio(live_na - da, da),
            &pred,
            &err,
        ]);
    }
    // The curve's floor: cold misses no buffer size can avoid.
    let (cold, saturating) = lru_floor(&trace.events);
    println!(
        "trace replay: {cold} cold misses (compulsory floor of the LRU curve), \
         saturating capacity {saturating}"
    );
    table.finish();
    true
}

/// The `trace report` command: per-level access histograms and the
/// top-k hottest pages. Returns `false` when the trace cannot load.
pub fn report_cmd(opts: &RunOpts) -> bool {
    const TOP_K: usize = 20;
    let Some(dir) = opts.require_obs_dir("trace report") else {
        return false;
    };
    let out = opts.out.as_path();
    let trace = match load(dir) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace report: {e}");
            return false;
        }
    };
    let domains: std::collections::HashSet<u32> = trace.events.iter().map(|e| e.corr).collect();
    println!(
        "trace report: {} events, policy {}, {} residency domains, ticks {}..{}",
        trace.events.len(),
        policy_name(trace.policy),
        domains.len(),
        trace.events.first().map_or(0, |e| e.tick),
        trace.events.last().map_or(0, |e| e.tick),
    );

    // Per-tree per-level histogram, leaf (level 0) upward.
    let mut levels: HashMap<(u8, u8), (u64, u64)> = HashMap::new();
    let mut pages: HashMap<(u8, u32), (u8, u64, u64)> = HashMap::new();
    for e in &trace.events {
        let (na, da) = levels.entry((e.tree, e.level)).or_default();
        *na += 1;
        let page = pages.entry((e.tree, e.page.0)).or_insert((e.level, 0, 0));
        page.1 += 1;
        if e.kind == AccessKind::Miss {
            *da += 1;
            page.2 += 1;
        }
    }
    let mut table = Report::new(
        out,
        "trace_levels",
        &["tree", "level", "accesses", "misses", "hit_ratio"],
    );
    table.comment("levels are 0-based from the leaves (paper level = crate level + 1)");
    let mut keys: Vec<_> = levels.keys().copied().collect();
    keys.sort_unstable();
    for (tree, level) in keys {
        let (na, da) = levels[&(tree, level)];
        table.row(&[&tree, &level, &na, &da, &fmt_ratio(na - da, da)]);
    }
    table.finish();

    let mut hot: Vec<_> = pages.into_iter().collect();
    hot.sort_by_key(|&((tree, page), (_, na, _))| (std::cmp::Reverse(na), tree, page));
    let mut table = Report::new(
        out,
        "trace_pages",
        &["rank", "tree", "page", "level", "accesses", "misses"],
    );
    table.comment(&format!("top {TOP_K} hottest pages by access count"));
    for (rank, ((tree, page), (level, na, da))) in hot.into_iter().take(TOP_K).enumerate() {
        table.row(&[&(rank + 1), &tree, &page, &level, &na, &da]);
    }
    table.finish();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcm_storage::recorder::PageAccessEvent;
    use sjcm_storage::PageId;

    fn event(tick: u64, page: u32, kind: AccessKind) -> PageAccessEvent {
        PageAccessEvent {
            tick,
            page: PageId(page),
            corr: 0,
            tree: 1,
            level: 0,
            kind,
        }
    }

    fn write_trace(dir: &Path, trace: &AccessTrace) {
        std::fs::create_dir_all(dir).unwrap();
        trace.write(&dir.join(ACCESS_TRACE_FILE)).unwrap();
    }

    /// RunOpts with `dir` as both the CSV output and the obs dir, the
    /// way the CLI wires `trace replay --out D --obs-dir D`.
    fn opts_for(dir: &Path) -> RunOpts {
        RunOpts::new(dir.to_path_buf(), 1.0, 1, Some(dir.to_path_buf())).unwrap()
    }

    #[test]
    fn replay_cmd_accepts_faithful_trace() {
        let dir = std::env::temp_dir().join(format!("sjcm_trace_ok_{}", std::process::id()));
        // A NoBuffer recording: every access is a miss, trivially
        // consistent with BufferPolicy::None.
        let events = vec![
            event(0, 1, AccessKind::Miss),
            event(1, 2, AccessKind::Miss),
            event(2, 1, AccessKind::Miss),
        ];
        let trace = AccessTrace {
            policy: BufferPolicy::None,
            na_pred: 3.0,
            da_pred: 3.0,
            events,
        };
        write_trace(&dir, &trace);
        let opts = opts_for(&dir);
        assert!(replay_cmd(&opts));
        assert!(report_cmd(&opts));
        assert!(dir.join("trace_replay.csv").exists());
        assert!(dir.join("trace_levels.csv").exists());
        assert!(dir.join("trace_pages.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_cmd_rejects_diverging_verdicts() {
        let dir = std::env::temp_dir().join(format!("sjcm_trace_bad_{}", std::process::id()));
        // Claims Path policy but marks a re-access of the same page a
        // miss — a path buffer would have hit.
        let events = vec![event(0, 1, AccessKind::Miss), event(1, 1, AccessKind::Miss)];
        let trace = AccessTrace {
            policy: BufferPolicy::Path,
            na_pred: 0.0,
            da_pred: 0.0,
            events,
        };
        write_trace(&dir, &trace);
        assert!(!replay_cmd(&opts_for(&dir)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let dir = std::env::temp_dir().join(format!("sjcm_trace_trunc_{}", std::process::id()));
        let trace = AccessTrace {
            policy: BufferPolicy::None,
            na_pred: 0.0,
            da_pred: 0.0,
            events: vec![event(0, 1, AccessKind::Miss), event(1, 2, AccessKind::Miss)],
        };
        write_trace(&dir, &trace);
        let path = dir.join(ACCESS_TRACE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let opts = opts_for(&dir);
        assert!(!replay_cmd(&opts));
        assert!(!report_cmd(&opts));
        // A whole trace with no events is refused too.
        write_trace(
            &dir,
            &AccessTrace {
                events: Vec::new(),
                ..trace
            },
        );
        assert!(!replay_cmd(&opts));
        assert!(!report_cmd(&opts));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn access(tick: u64, corr: u32, tree: u8, page: u32) -> PageAccessEvent {
        PageAccessEvent {
            corr,
            tree,
            ..event(tick, page, AccessKind::Miss)
        }
    }

    #[test]
    fn lru_floor_on_a_two_domain_trace() {
        // Domain 0, tree 1: pages 1 2 3 1 — re-reading 1 needs 3 frames.
        // Domain 0, tree 2: page 1 twice — 1 frame. Domain 1, tree 1:
        // pages 1 2 1 — 2 frames; its page 1 is cold again, since no
        // buffer spans domains. Cold: {1,2,3} + {1} + {1,2} = 6.
        let seq = [
            (0, 1, 1),
            (0, 2, 1),
            (1, 1, 1),
            (0, 1, 2),
            (1, 1, 2),
            (0, 1, 3),
            (0, 2, 1),
            (1, 1, 1),
            (0, 1, 1),
        ];
        let events: Vec<_> = (0..)
            .zip(seq)
            .map(|(t, (corr, tree, page))| access(t, corr, tree, page))
            .collect();
        assert_eq!(lru_floor(&events), (6, 3));
        assert_eq!(replay(&events, BufferPolicy::Lru(2)).da_total(), 7);
        assert_eq!(lru_floor(&[]), (0, 0));
        // No page is read twice: every capacity, 0 included, sits on
        // the floor.
        assert_eq!(lru_floor(&events[..3]), (3, 0));
    }

    #[test]
    fn lru_floor_matches_a_linear_scan() {
        // A seeded walk over 40 pages in three domains, with a hot set
        // so that reuse distances spread out.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let events: Vec<_> = (0..600)
            .map(|t| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pages = if x.is_multiple_of(3) { 5 } else { 40 };
                let page = ((x >> 8) % pages) as u32;
                access(t, (x >> 20) as u32 % 3, 1 + (x >> 30) as u8 % 2, page)
            })
            .collect();
        let (cold, saturating) = lru_floor(&events);
        let curve: Vec<u64> = (0..=40)
            .map(|c| replay(&events, BufferPolicy::Lru(c)).da_total())
            .collect();
        assert_eq!(curve[40], cold);
        let first = curve.iter().position(|&m| m == cold).unwrap();
        assert_eq!(saturating, first);
        assert!(saturating > 1, "the walk reuses pages at distance > 1");
    }
}
