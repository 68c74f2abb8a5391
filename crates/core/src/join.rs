//! The spatial-join cost model (Eqs 6–12) — the paper's contribution.
//!
//! The SJ algorithm performs a synchronized traversal of both trees; its
//! I/O cost decomposes per *paired level*. For equal heights the pairing
//! is the identity (Eqs 7, 10); for different heights the shorter tree is
//! pinned at its leaf level while the taller one keeps descending
//! (Eqs 11, 12). [`level_schedule`] materializes that pairing, making the
//! paper's remark that the equal-height formulas are special cases a
//! mechanical fact (tested below).
//!
//! Per paired level `(j₁, j₂)`:
//!
//! * **Eq 6** (no buffer): both trees pay one access per overlapping node
//!   pair, `NA(Rᵢ) = N_{R1,j₁} · N_{R2,j₂} · Π_k min{1, s_{R1,j₁,k} +
//!   s_{R2,j₂,k}}`.
//! * **Eq 8** (path buffer, query tree R2): an R2 node is *fetched* once
//!   per intersected R1 node of the **parent** level,
//!   `DA(R2) = N_{R2,j₂} · intsect(N_{R1,j₁+1}, s_{R1,j₁+1}, s_{R2,j₂})`.
//! * **Eq 9** (path buffer, data tree R1): the inner-loop tree barely
//!   benefits from the buffer, `DA(R1) ≈ NA(R1)` (the rarely-firing
//!   consecutive-pair exception is deliberately unmodeled; the join
//!   executor counts it so the experiments can report how rare it is).
//!
//! A join whose inputs are restricted to query windows (the traversal
//! skips every node of a windowed tree that misses its window) composes
//! these with **Eq 1**: a node pair is visited iff the two nodes overlap
//! *and* each windowed node meets its window, and under the model's
//! uniformity those events are independent, so each level pair's term is
//! multiplied by Eq 1's `Π_k min{1, s_{j,k} + q_k}` of the windowed
//! tree's level (position-aware at the workspace boundary:
//! [`crate::range::window_probability`]) — see
//! [`join_cost_na_windowed`] / [`join_cost_da_windowed`].

use crate::params::TreeParams;
use crate::range::window_probability;
use sjcm_geom::Rect;

/// One step of the synchronized traversal: the paired paper levels
/// `(j₁, j₂)` of trees R1 and R2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelPair {
    /// Level of R1 (1 = leaf).
    pub j1: usize,
    /// Level of R2 (1 = leaf).
    pub j2: usize,
}

/// The level pairing of the SJ traversal for trees of heights `h1`, `h2`
/// (the `j′` mapping of Eqs 11–12): the taller tree runs through its
/// levels `1 … h−1` while the shorter is pinned at its leaf level once
/// reached. Returned leaf-level first. Empty when either height is 1 at
/// equal heights (roots are memory-resident).
pub fn level_schedule(h1: usize, h2: usize) -> Vec<LevelPair> {
    assert!(h1 >= 1 && h2 >= 1, "heights must be at least 1");
    let taller = h1.max(h2);
    let delta = h1.abs_diff(h2);
    let mut out = Vec::with_capacity(taller.saturating_sub(1));
    for j in 1..taller {
        let (j1, j2) = if h1 >= h2 {
            (j, j.saturating_sub(delta).max(1))
        } else {
            (j.saturating_sub(delta).max(1), j)
        };
        out.push(LevelPair { j1, j2 });
    }
    out
}

/// Eq 6 generalized to a level pair: the expected number of overlapping
/// (R1-node, R2-node) pairs at levels `(j₁, j₂)` — the per-tree node
/// access count of that traversal step.
pub fn na_level<const N: usize>(
    r1: &TreeParams<N>,
    j1: usize,
    r2: &TreeParams<N>,
    j2: usize,
) -> f64 {
    let l1 = r1.level(j1);
    let l2 = r2.level(j2);
    let mut v = l1.nodes * l2.nodes;
    for k in 0..N {
        v *= (l1.extents[k] + l2.extents[k]).min(1.0);
    }
    v
}

/// Eq 8 generalized: disk accesses of the query tree R2 at level `j₂`
/// when paired with R1 at `j₁` — one fetch per R2 node per intersected R1
/// node of the parent level `j₁ + 1` (clamped to R1's root).
pub fn da_level_query_tree<const N: usize>(
    r1: &TreeParams<N>,
    j1: usize,
    r2: &TreeParams<N>,
    j2: usize,
) -> f64 {
    let parent = (j1 + 1).min(r1.height());
    let lp = r1.level(parent);
    let l2 = r2.level(j2);
    let mut v = l2.nodes * lp.nodes;
    for k in 0..N {
        v *= (lp.extents[k] + l2.extents[k]).min(1.0);
    }
    v
}

/// Eq 9: disk accesses of the data tree R1 — the path buffer does not
/// help the inner loop, so `DA(R1) ≈ NA(R1)`.
pub fn da_level_data_tree<const N: usize>(
    r1: &TreeParams<N>,
    j1: usize,
    r2: &TreeParams<N>,
    j2: usize,
) -> f64 {
    na_level(r1, j1, r2, j2)
}

/// Total node accesses of the join — Eq 7 for equal heights, Eq 11 in
/// general. Symmetric in its arguments. [`join_cost_na_windowed`] with
/// no window, whose factor is then exactly 1.
pub fn join_cost_na<const N: usize>(r1: &TreeParams<N>, r2: &TreeParams<N>) -> f64 {
    join_cost_na_windowed(r1, r2, &[None, None])
}

/// Eq-6 cost of one parallel-join work unit: a pair of (sub)trees whose
/// roots the scheduler has already matched. The unit's cost is the two
/// root accesses themselves plus the expected traversal below them
/// ([`join_cost_na`] over the subtrees' parameters — typically
/// `TreeParams::from_levels` of *measured* subtree statistics, so the
/// estimate reflects the actual shape of each unit rather than a global
/// average).
///
/// This is how the execution layer consumes the paper's model: not to
/// predict a query's total I/O, but to rank work units for LPT seeding
/// and steal-order decisions. Only relative magnitudes matter there, so
/// the formula's small-scale bias (see EXPERIMENTS.md) is harmless.
pub fn unit_cost_na<const N: usize>(r1: &TreeParams<N>, r2: &TreeParams<N>) -> f64 {
    2.0 + join_cost_na(r1, r2)
}

/// Per-level breakdown of [`join_cost_na`]: for each schedule step, the
/// pair and the NA contribution *of each tree* (they are equal — Eq 6).
pub fn join_cost_na_by_level<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
) -> Vec<(LevelPair, f64)> {
    level_schedule(r1.height(), r2.height())
        .into_iter()
        .map(|p| (p, na_level(r1, p.j1, r2, p.j2)))
        .collect()
}

/// Total disk accesses of the join under per-tree path buffers — Eq 10
/// for equal heights, Eq 12 in general. **Not** symmetric: R1 plays the
/// data (inner-loop) role and R2 the query (outer-loop) role.
/// [`join_cost_da_windowed`] with no window, whose factor is then
/// exactly 1.
pub fn join_cost_da<const N: usize>(r1: &TreeParams<N>, r2: &TreeParams<N>) -> f64 {
    join_cost_da_windowed(r1, r2, &[None, None])
}

/// The Eq-12 branch logic in one place: for each schedule step, the level
/// pair and the per-tree shares `(DA(R1), DA(R2))` of its disk-access
/// contribution. Every other DA entry point ([`join_cost_da`],
/// [`join_cost_da_by_level`], [`join_cost_da_split`]) is a fold over this
/// breakdown, so the three branches of Eq 12 exist exactly once.
///
/// Branches, following §3.2:
/// * lockstep (`j > Δ`, or equal heights): the data tree R1 pays Eq 9 and
///   the query tree R2 pays Eq 8;
/// * `h1 > h2` pinned phase: R2 sits at its leaf level and its
///   re-accesses hit the path buffer — only R1 pays (Eq 9);
/// * `h1 < h2` pinned phase: R1 sits at its leaf level while R2 still
///   descends; "each propagation of the query tree … adds equal cost to
///   the data tree", so R2's Eq-8 cost is charged to both trees — that is
///   how the factor 2 of Eq 12 splits.
pub fn join_cost_da_shares_by_level<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
) -> Vec<(LevelPair, (f64, f64))> {
    let h1 = r1.height();
    let h2 = r2.height();
    let delta = h1.abs_diff(h2);
    level_schedule(h1, h2)
        .into_iter()
        .enumerate()
        .map(|(step, pair)| {
            // Schedule index in the taller tree's levels; the pinned
            // phase is the first Δ steps.
            let lockstep = step + 1 > delta;
            let shares = if lockstep {
                (
                    da_level_data_tree(r1, pair.j1, r2, pair.j2),
                    da_level_query_tree(r1, pair.j1, r2, pair.j2),
                )
            } else if h1 > h2 {
                (da_level_data_tree(r1, pair.j1, r2, pair.j2), 0.0)
            } else {
                let q = da_level_query_tree(r1, pair.j1, r2, pair.j2);
                (q, q)
            };
            (pair, shares)
        })
        .collect()
}

/// Per-level breakdown of [`join_cost_da`]: for each schedule step, the
/// pair and the combined `DA(R1) + DA(R2)` contribution, following the
/// two branches of Eq 12.
pub fn join_cost_da_by_level<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
) -> Vec<(LevelPair, f64)> {
    join_cost_da_shares_by_level(r1, r2)
        .into_iter()
        .map(|(pair, (da1, da2))| (pair, da1 + da2))
        .collect()
}

/// [`join_cost_da`] split into the two trees' shares
/// `(DA(R1) total, DA(R2) total)` — what §4.1's per-tree accuracy claims
/// (ii) are stated about. See [`join_cost_da_shares_by_level`] for how
/// the `h1 < h2` pinned phase splits.
pub fn join_cost_da_split<const N: usize>(r1: &TreeParams<N>, r2: &TreeParams<N>) -> (f64, f64) {
    join_cost_da_shares_by_level(r1, r2)
        .into_iter()
        .fold((0.0, 0.0), |(a1, a2), (_, (da1, da2))| (a1 + da1, a2 + da2))
}

/// A join's query windows, R1's then R2's (`None` = the whole tree
/// joins): a windowed tree contributes only the objects whose MBR meets
/// its window. The model prices them here; the executor takes them
/// through `JoinSession::window` — a window is part of what is asked,
/// not of how it is run, so it is no configuration field.
pub type JoinWindows<const N: usize> = [Option<Rect<N>>; 2];

/// Eq 1's per-node factor at one level pair: the probability that a
/// level-`j₁` node of R1 and a level-`j₂` node of R2 each meet their
/// tree's window — [`window_probability`] per windowed tree, 1 for an
/// unwindowed one.
fn window_factor<const N: usize>(
    r1: &TreeParams<N>,
    j1: usize,
    r2: &TreeParams<N>,
    j2: usize,
    [w1, w2]: &JoinWindows<N>,
) -> f64 {
    let meets = |t: &TreeParams<N>, j: usize, w: &Option<Rect<N>>| match w {
        Some(w) => window_probability(&t.level(j).extents, w),
        None => 1.0,
    };
    meets(r1, j1, w1) * meets(r2, j2, w2)
}

/// [`join_cost_na`] of a join restricted to query windows: per level
/// pair, Eq 6 times Eq 1's intersection probability of each windowed
/// tree's nodes at that level; [`join_cost_na`] is this with no window.
pub fn join_cost_na_windowed<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
    windows: &JoinWindows<N>,
) -> f64 {
    level_schedule(r1.height(), r2.height())
        .iter()
        .map(|p| 2.0 * na_level(r1, p.j1, r2, p.j2) * window_factor(r1, p.j1, r2, p.j2, windows))
        .sum()
}

/// [`join_cost_da`] of a join restricted to query windows: each step's
/// Eq 8/9/12 shares times the same per-level factor as
/// [`join_cost_na_windowed`] — a fetch the path buffer does not absorb
/// is still one visit of a node pair that passed the windows;
/// [`join_cost_da`] is this with no window.
pub fn join_cost_da_windowed<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
    windows: &JoinWindows<N>,
) -> f64 {
    join_cost_da_shares_by_level(r1, r2)
        .into_iter()
        .map(|(p, (da1, da2))| (da1 + da2) * window_factor(r1, p.j1, r2, p.j2, windows))
        .sum()
}

/// Drift-check target name for tree `tree ∈ {1, 2}`'s node accesses
/// at paper level `j` (1 = leaf): `na.r<tree>.l<j>`.
pub fn na_target(tree: usize, j: usize) -> String {
    format!("na.r{tree}.l{j}")
}

/// Drift-check target name for tree `tree ∈ {1, 2}`'s disk accesses
/// at paper level `j` (1 = leaf): `da.r<tree>.l<j>`.
pub fn da_target(tree: usize, j: usize) -> String {
    format!("da.r{tree}.l{j}")
}

/// The full set of named predictions the drift check holds a join of
/// trees with these parameters to: per tree and
/// paper level the Eq-6 NA and the Eq-8/9/12 DA share (steps of the
/// pinned phase that revisit a level are summed into it, matching how
/// the executor tallies accesses *per level*, not per schedule step),
/// plus the `na.total` / `da.total` grand totals of Eqs 10–12.
///
/// The names follow [`na_target`] / [`da_target`]; the execution layer
/// produces observations under the same names (see
/// `JoinResultSet::drift_observations` in `sjcm-join`), so prediction
/// and measurement meet in `sjcm_obs::drift::evaluate` without either
/// layer depending on the other.
pub fn join_prediction_targets<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
) -> Vec<(String, f64)> {
    use std::collections::BTreeMap;
    let mut out: Vec<(String, f64)> = join_na_priors(r1, r2)
        .into_iter()
        .map(|(tree, j, v)| (na_target(tree, j), v))
        .collect();
    let mut da1: BTreeMap<usize, f64> = BTreeMap::new();
    let mut da2: BTreeMap<usize, f64> = BTreeMap::new();
    for (pair, (d1, d2)) in join_cost_da_shares_by_level(r1, r2) {
        *da1.entry(pair.j1).or_insert(0.0) += d1;
        *da2.entry(pair.j2).or_insert(0.0) += d2;
    }
    for (&j, &v) in &da1 {
        out.push((da_target(1, j), v));
    }
    for (&j, &v) in &da2 {
        out.push((da_target(2, j), v));
    }
    out.push(("na.total".to_string(), join_cost_na(r1, r2)));
    out.push(("da.total".to_string(), join_cost_da(r1, r2)));
    out
}

/// Structured per-level NA priors for a live progress estimator: for
/// each tree and accessed paper level `j` (1 = leaf; roots are excluded
/// by construction — the schedule never emits them), the Eq-6 NA
/// prediction, as `(tree ∈ {1, 2}, j, NA)` triples sorted by tree then
/// level. This is the NA half of [`join_prediction_targets`], which
/// names these values: the progress engine seeds its per-level work
/// denominators from them and needs the coordinates as data, not as
/// parseable names. The triples of one tree sum to
/// [`join_cost_na`] / 2 (each tree pays half of every pair visit).
pub fn join_na_priors<const N: usize>(
    r1: &TreeParams<N>,
    r2: &TreeParams<N>,
) -> Vec<(usize, usize, f64)> {
    use std::collections::BTreeMap;
    let mut na1: BTreeMap<usize, f64> = BTreeMap::new();
    let mut na2: BTreeMap<usize, f64> = BTreeMap::new();
    for (pair, na) in join_cost_na_by_level(r1, r2) {
        *na1.entry(pair.j1).or_insert(0.0) += na;
        *na2.entry(pair.j2).or_insert(0.0) += na;
    }
    let mut out = Vec::new();
    for (&j, &v) in &na1 {
        out.push((1, j, v));
    }
    for (&j, &v) in &na2 {
        out.push((2, j, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataProfile, ModelConfig};

    fn p2(n: u64, d: f64) -> TreeParams<2> {
        TreeParams::from_data(DataProfile::new(n, d), &ModelConfig::paper(2))
    }

    fn p1d(n: u64, d: f64) -> TreeParams<1> {
        TreeParams::from_data(DataProfile::new(n, d), &ModelConfig::paper(1))
    }

    #[test]
    fn schedule_equal_heights_is_identity() {
        let s = level_schedule(3, 3);
        assert_eq!(
            s,
            vec![LevelPair { j1: 1, j2: 1 }, LevelPair { j1: 2, j2: 2 }]
        );
    }

    #[test]
    fn schedule_taller_r1_pins_r2_leaf() {
        // h1 = 5, h2 = 3, Δ = 2: Eq 11's j' = 1 for j ≤ 2, j − 2 after.
        let s = level_schedule(5, 3);
        assert_eq!(
            s,
            vec![
                LevelPair { j1: 1, j2: 1 },
                LevelPair { j1: 2, j2: 1 },
                LevelPair { j1: 3, j2: 1 },
                LevelPair { j1: 4, j2: 2 },
            ]
        );
    }

    #[test]
    fn schedule_taller_r2_pins_r1_leaf() {
        let s = level_schedule(3, 5);
        assert_eq!(
            s,
            vec![
                LevelPair { j1: 1, j2: 1 },
                LevelPair { j1: 1, j2: 2 },
                LevelPair { j1: 1, j2: 3 },
                LevelPair { j1: 2, j2: 4 },
            ]
        );
    }

    #[test]
    fn schedule_degenerate_heights() {
        assert!(level_schedule(1, 1).is_empty());
        assert_eq!(level_schedule(2, 1), vec![LevelPair { j1: 1, j2: 1 }]);
        assert_eq!(level_schedule(1, 2), vec![LevelPair { j1: 1, j2: 1 }]);
    }

    #[test]
    fn na_level_hand_computed() {
        use crate::params::LevelParams;
        let r1 = TreeParams::from_levels(vec![LevelParams::<2> {
            nodes: 100.0,
            extents: [0.05, 0.05],
            density: 0.25,
        }]);
        let r2 = TreeParams::from_levels(vec![LevelParams::<2> {
            nodes: 50.0,
            extents: [0.1, 0.15],
            density: 0.75,
        }]);
        // 100 · 50 · (0.15) · (0.20) = 150.
        let v = na_level(&r1, 1, &r2, 1);
        assert!((v - 150.0).abs() < 1e-9);
    }

    #[test]
    fn na_is_symmetric_eq7_remark() {
        let a = p2(60_000, 0.5);
        let b = p2(20_000, 0.3);
        let ab = join_cost_na(&a, &b);
        let ba = join_cost_na(&b, &a);
        assert!(
            (ab - ba).abs() < 1e-6 * ab,
            "Eq 7/11 must be symmetric: {ab} vs {ba}"
        );
    }

    #[test]
    fn da_is_asymmetric_eq10_remark() {
        // §3.1: "in contrast to Eq. 7, Eq. 10 is sensitive to the two
        // indexes" — with different cardinalities the two orderings
        // differ.
        let a = p2(20_000, 0.5);
        let b = p2(80_000, 0.5);
        let ab = join_cost_da(&a, &b);
        let ba = join_cost_da(&b, &a);
        assert!(
            (ab - ba).abs() > 1e-3 * ab.max(ba),
            "Eq 10/12 should be role-sensitive: {ab} vs {ba}"
        );
    }

    #[test]
    fn da_below_na_for_paper_parameters() {
        // DA ≤ NA holds for every paper workload combination.
        for &n1 in &[20_000u64, 40_000, 60_000, 80_000] {
            for &n2 in &[20_000u64, 40_000, 60_000, 80_000] {
                for &d in &[0.2, 0.5, 0.8] {
                    let a = p2(n1, d);
                    let b = p2(n2, d);
                    let na = join_cost_na(&a, &b);
                    let da = join_cost_da(&a, &b);
                    assert!(
                        da <= na * (1.0 + 1e-9),
                        "DA {da} > NA {na} for {n1}/{n2}, D = {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_tree_role_prefers_smaller_index_equal_heights() {
        // §4.1(iii): for equal heights, the less populated index should
        // play the query role (R2). DA(data=big, query=small) must beat
        // DA(data=small, query=big). 20K and 36K both give h = 3 under
        // the paper's 2-D fanout (boundary at 33.5³ ≈ 37.6K).
        let big = p2(36_000, 0.5);
        let small = p2(20_000, 0.5);
        assert_eq!(big.height(), small.height());
        let good = join_cost_da(&big, &small);
        let bad = join_cost_da(&small, &big);
        assert!(good < bad, "role rule violated: {good} vs {bad}");
    }

    #[test]
    fn equal_height_special_case_matches_direct_eq7_eq10() {
        // Computing Eqs 7/10 directly (no schedule) must agree with the
        // schedule-based general formulas.
        let a = p2(60_000, 0.4);
        let b = p2(80_000, 0.6);
        assert_eq!(a.height(), b.height());
        let h = a.height();
        let mut na_direct = 0.0;
        let mut da_direct = 0.0;
        for j in 1..h {
            na_direct += 2.0 * na_level(&a, j, &b, j);
            da_direct += na_level(&a, j, &b, j) + da_level_query_tree(&a, j, &b, j);
        }
        assert!((join_cost_na(&a, &b) - na_direct).abs() < 1e-9);
        assert!((join_cost_da(&a, &b) - da_direct).abs() < 1e-9);
    }

    #[test]
    fn na_monotone_in_cardinality_and_density() {
        let base = join_cost_na(&p2(40_000, 0.5), &p2(40_000, 0.5));
        assert!(join_cost_na(&p2(80_000, 0.5), &p2(40_000, 0.5)) > base);
        assert!(join_cost_na(&p2(40_000, 0.8), &p2(40_000, 0.5)) > base);
    }

    #[test]
    fn one_dimensional_join_costs() {
        // All paper 1-D trees have h = 3, so the plots in Fig 5a are
        // linear in N; sanity-check the costs are positive and ordered.
        let c2020 = join_cost_na(&p1d(20_000, 0.5), &p1d(20_000, 0.5));
        let c8080 = join_cost_na(&p1d(80_000, 0.5), &p1d(80_000, 0.5));
        assert!(c2020 > 0.0);
        assert!(c8080 > c2020);
        let da = join_cost_da(&p1d(80_000, 0.5), &p1d(20_000, 0.5));
        assert!(da > 0.0);
    }

    #[test]
    fn different_height_join_is_finite_and_positive() {
        let tall = p2(80_000, 0.5); // h = 4
        let short = p2(20_000, 0.5); // h = 3
        assert_ne!(tall.height(), short.height());
        for (a, b) in [(&tall, &short), (&short, &tall)] {
            let na = join_cost_na(a, b);
            let da = join_cost_da(a, b);
            assert!(na.is_finite() && na > 0.0);
            assert!(da.is_finite() && da > 0.0);
            assert!(da <= na * (1.0 + 1e-9));
        }
    }

    #[test]
    fn by_level_breakdowns_sum_to_totals() {
        let a = p2(60_000, 0.5);
        let b = p2(20_000, 0.5);
        let na_sum: f64 = join_cost_na_by_level(&a, &b)
            .iter()
            .map(|&(_, c)| 2.0 * c)
            .sum();
        assert!((na_sum - join_cost_na(&a, &b)).abs() < 1e-9);
        let da_sum: f64 = join_cost_da_by_level(&a, &b).iter().map(|&(_, c)| c).sum();
        assert!((da_sum - join_cost_da(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn da_split_sums_to_total() {
        for (n1, n2) in [(60_000u64, 60_000u64), (80_000, 20_000), (20_000, 80_000)] {
            let a = p2(n1, 0.5);
            let b = p2(n2, 0.5);
            let (d1, d2) = join_cost_da_split(&a, &b);
            assert!((d1 + d2 - join_cost_da(&a, &b)).abs() < 1e-9, "{n1}/{n2}");
        }
    }

    #[test]
    fn prediction_targets_cover_levels_and_sum_to_totals() {
        let a = p2(80_000, 0.5); // h = 4
        let b = p2(20_000, 0.5); // h = 3 — exercises the pinned phase
        let targets = join_prediction_targets(&a, &b);
        let get = |name: &str| {
            targets
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing target {name}"))
        };
        // Per-level NA sums (×2, both trees pay) to the total.
        let na_levels: f64 = targets
            .iter()
            .filter(|(n, _)| n.starts_with("na.r"))
            .map(|&(_, v)| v)
            .sum();
        assert!((na_levels - get("na.total")).abs() < 1e-9);
        let da_levels: f64 = targets
            .iter()
            .filter(|(n, _)| n.starts_with("da.r"))
            .map(|&(_, v)| v)
            .sum();
        assert!((da_levels - get("da.total")).abs() < 1e-9);
        // The pinned phase folds its repeated leaf-level visits into one
        // target: R2 (h = 3) exposes levels 1..=2 only.
        assert!(targets.iter().any(|(n, _)| n == "na.r2.l2"));
        assert!(!targets.iter().any(|(n, _)| n == "na.r2.l3"));
        assert_eq!(na_target(1, 2), "na.r1.l2");
        assert_eq!(da_target(2, 1), "da.r2.l1");
    }

    #[test]
    fn na_priors_mirror_the_named_targets() {
        let a = p2(80_000, 0.5); // h = 4
        let b = p2(20_000, 0.5); // h = 3 — exercises the pinned phase
        let priors = join_na_priors(&a, &b);
        let targets = join_prediction_targets(&a, &b);
        // Same coordinates, same values as the named NA targets.
        for &(tree, j, na) in &priors {
            let name = na_target(tree, j);
            let named = targets
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing named twin {name}"));
            assert!((na - named).abs() < 1e-9, "{name}");
        }
        let total: f64 = priors.iter().map(|&(_, _, v)| v).sum();
        assert!((total - join_cost_na(&a, &b)).abs() < 1e-9);
        // Roots never appear (paper level h is memory-resident).
        assert!(priors
            .iter()
            .all(|&(t, j, _)| j < if t == 1 { 4 } else { 3 }));
    }

    #[test]
    fn joins_with_height_one_trees() {
        let tiny = p2(10, 0.001); // h = 1
        let big = p2(60_000, 0.5);
        assert_eq!(join_cost_na(&tiny, &tiny), 0.0);
        // Joining a height-1 tree against a real tree still costs the
        // taller tree's descents.
        assert!(join_cost_na(&tiny, &big) > 0.0);
        assert!(join_cost_da(&big, &tiny) > 0.0);
    }
}
