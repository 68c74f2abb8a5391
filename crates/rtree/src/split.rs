//! The node split.
//!
//! [`rstar_split`] — the R\*-tree topological split (SIGMOD 1990), the
//! one the paper's trees are built with — takes the `M + 1` entries of an
//! overflowing node and partitions them into two groups, each holding at
//! least `m` entries: it chooses the split *axis* by the minimum sum of
//! group margins over all candidate distributions, then the
//! *distribution* on that axis by minimum group overlap (ties: minimum
//! combined area).

use crate::node::Entry;
use sjcm_geom::Rect;

/// Result of a split: the two entry groups. Order is not meaningful.
pub type SplitResult<const N: usize> = (Vec<Entry<N>>, Vec<Entry<N>>);

/// The R\*-tree topological split.
///
/// For every axis `k`, the entries are sorted once by lower and once by
/// upper rectangle value; each sort induces `M − 2m + 2` candidate
/// distributions (first `m + i` entries vs the rest). The axis with the
/// minimum *margin sum* over its candidates is chosen, then the candidate
/// with minimum group overlap (ties: minimum combined area).
///
/// The two groups of a distribution are a prefix and a suffix of the
/// sorted order, so their MBRs are running unions (`min`/`max` are exact:
/// regrouping them changes no value). Each is computed once and serves both
/// the axis choice and the distribution choice.
///
/// Kept out of line: one insertion in dozens splits, and inlined into
/// its one caller it would bloat the insertion descent around it.
#[inline(never)]
pub fn rstar_split<const N: usize>(entries: Vec<Entry<N>>, min_entries: usize) -> SplitResult<N> {
    let total = entries.len();
    assert!(total >= 2, "cannot split {total} entries");
    assert!(
        2 * min_entries <= total,
        "min fill {min_entries} impossible for {total} entries"
    );
    let m = min_entries.max(1);
    let rect = |i: usize| &entries[i].rect;

    // ChooseSplitAxis: minimize the total margin over all distributions
    // of both sorts of each axis. ChooseSplitIndex runs in the same pass
    // and only the winning axis's answer is kept.
    let mut best_axis_margin = f64::INFINITY;
    let mut best_split: (Vec<usize>, usize) = (Vec::new(), 0); // (sorted order, split)
    let mut suffix: Vec<Rect<N>> = vec![entries[0].rect; total]; // MBR of order[i..]
    for k in 0..N {
        let by_lower = sorted_order(&entries, |r| (r.lo_k(k), r.hi_k(k)));
        let by_upper = sorted_order(&entries, |r| (r.hi_k(k), r.lo_k(k)));
        let mut margin_sum = 0.0;
        let mut axis_best: Option<(bool, usize, f64, f64)> = None; // (upper sort?, split, overlap, area)
        for (upper, order) in [(false, &by_lower), (true, &by_upper)] {
            suffix[total - 1] = *rect(order[total - 1]);
            for i in (m..total - 1).rev() {
                suffix[i] = suffix[i + 1].union(rect(order[i]));
            }
            let mut prefix = *rect(order[0]); // MBR of order[..split_at]
            for &i in &order[1..m] {
                prefix.expand_to(rect(i));
            }
            for split_at in m..=(total - m) {
                let (r1, r2) = (prefix, suffix[split_at]);
                margin_sum += r1.margin() + r2.margin();
                let overlap = r1.intersection_measure(&r2);
                let area = r1.measure() + r2.measure();
                let better = match axis_best {
                    None => true,
                    Some((_, _, o, a)) => overlap < o || (overlap == o && area < a),
                };
                if better {
                    axis_best = Some((upper, split_at, overlap, area));
                }
                prefix.expand_to(rect(order[split_at]));
            }
        }
        if k == 0 || margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            let (upper, split_at, _, _) = axis_best.expect("at least one distribution exists");
            best_split = (if upper { by_upper } else { by_lower }, split_at);
        }
    }
    let (order, split_at) = best_split;
    let group = |part: &[usize]| part.iter().map(|&i| entries[i]).collect();
    (group(&order[..split_at]), group(&order[split_at..]))
}

/// Entry indices in ascending order of `key`, equal keys in entry order —
/// the permutation a stable sort of the entries themselves would apply.
fn sorted_order<const N: usize>(
    entries: &[Entry<N>],
    key: impl Fn(&Rect<N>) -> (f64, f64),
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (key(&entries[a].rect), key(&entries[b].rect));
        a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
    });
    order
}

/// MBR of one group, recomputed from scratch — how `rstar_split_reference`
/// gets the group MBRs of every distribution.
#[cfg(test)]
fn group_mbr<const N: usize>(entries: &[Entry<N>]) -> Rect<N> {
    sjcm_geom::mbr_of(entries.iter().map(|e| e.rect)).expect("split groups are never empty")
}

/// The split as first written: four sorted copies of the entries and
/// `group_mbr` per distribution, twice over. The reference `rstar_split`
/// is tested against.
#[cfg(test)]
fn rstar_split_reference<const N: usize>(
    entries: Vec<Entry<N>>,
    min_entries: usize,
) -> SplitResult<N> {
    let total = entries.len();
    assert!(total >= 2, "cannot split {total} entries");
    assert!(
        2 * min_entries <= total,
        "min fill {min_entries} impossible for {total} entries"
    );
    let m = min_entries.max(1);

    // ChooseSplitAxis: minimize the total margin over all distributions
    // of both sorts of each axis.
    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    let mut sorted_per_axis: Vec<[Vec<Entry<N>>; 2]> = Vec::with_capacity(N);
    for k in 0..N {
        let mut by_lower = entries.clone();
        by_lower.sort_by(|a, b| {
            a.rect
                .lo_k(k)
                .total_cmp(&b.rect.lo_k(k))
                .then(a.rect.hi_k(k).total_cmp(&b.rect.hi_k(k)))
        });
        let mut by_upper = entries.clone();
        by_upper.sort_by(|a, b| {
            a.rect
                .hi_k(k)
                .total_cmp(&b.rect.hi_k(k))
                .then(a.rect.lo_k(k).total_cmp(&b.rect.lo_k(k)))
        });
        let mut margin_sum = 0.0;
        for sorted in [&by_lower, &by_upper] {
            for split_at in m..=(total - m) {
                let (g1, g2) = sorted.split_at(split_at);
                margin_sum += group_mbr(g1).margin() + group_mbr(g2).margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = k;
        }
        sorted_per_axis.push([by_lower, by_upper]);
    }

    // ChooseSplitIndex on the winning axis.
    let mut best: Option<(usize, usize, f64, f64)> = None; // (sort, split, overlap, area)
    for (sort_idx, sorted) in sorted_per_axis[best_axis].iter().enumerate() {
        for split_at in m..=(total - m) {
            let (g1, g2) = sorted.split_at(split_at);
            let r1 = group_mbr(g1);
            let r2 = group_mbr(g2);
            let overlap = r1.intersection_measure(&r2);
            let area = r1.measure() + r2.measure();
            let better = match best {
                None => true,
                Some((_, _, o, a)) => overlap < o || (overlap == o && area < a),
            };
            if better {
                best = Some((sort_idx, split_at, overlap, area));
            }
        }
    }
    let (sort_idx, split_at, _, _) = best.expect("at least one distribution exists");
    let sorted = &sorted_per_axis[best_axis][sort_idx];
    let g1 = sorted[..split_at].to_vec();
    let g2 = sorted[split_at..].to_vec();
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ObjectId;

    fn entry(lo: [f64; 2], hi: [f64; 2], id: u32) -> Entry<2> {
        Entry::leaf(Rect::new(lo, hi).unwrap(), ObjectId(id))
    }

    fn two_clusters() -> Vec<Entry<2>> {
        // Five entries near the origin, five near (1,1).
        let mut v = Vec::new();
        for i in 0..5 {
            let o = i as f64 * 0.02;
            v.push(entry([o, o], [o + 0.05, o + 0.05], i));
            v.push(entry([0.9 - o, 0.9 - o], [0.95 - o, 0.95 - o], 100 + i));
        }
        v
    }

    fn assert_split_separates_clusters(g1: &[Entry<2>], g2: &[Entry<2>]) {
        let ids = |g: &[Entry<2>]| {
            let mut low = 0;
            let mut high = 0;
            for e in g {
                match e.child {
                    crate::node::Child::Object(ObjectId(id)) if id < 100 => low += 1,
                    _ => high += 1,
                }
            }
            (low, high)
        };
        let (l1, h1) = ids(g1);
        let (l2, h2) = ids(g2);
        // One group should be all-low, the other all-high.
        assert!(
            (l1 == 5 && h1 == 0 && l2 == 0 && h2 == 5)
                || (l1 == 0 && h1 == 5 && l2 == 5 && h2 == 0),
            "clusters mixed: ({l1},{h1}) / ({l2},{h2})"
        );
    }

    #[test]
    fn rstar_separates_obvious_clusters() {
        let (g1, g2) = rstar_split(two_clusters(), 2);
        assert_eq!(g1.len() + g2.len(), 10);
        assert!(g1.len() >= 2 && g2.len() >= 2);
        assert_split_separates_clusters(&g1, &g2);
    }

    #[test]
    fn rstar_groups_do_not_overlap_on_separable_input() {
        let (g1, g2) = rstar_split(two_clusters(), 2);
        let r1 = group_mbr(&g1);
        let r2 = group_mbr(&g2);
        assert_eq!(r1.intersection_measure(&r2), 0.0);
    }

    #[test]
    fn rstar_respects_min_fill() {
        let mut v = vec![entry([0.9, 0.9], [1.0, 1.0], 99)];
        for i in 0..7 {
            let o = i as f64 * 0.001;
            v.push(entry([o, o], [o + 0.001, o + 0.001], i));
        }
        let (g1, g2) = rstar_split(v, 3);
        assert!(g1.len() >= 3 && g2.len() >= 3);
    }

    #[test]
    fn splits_preserve_entry_multiset() {
        let (g1, g2) = rstar_split(two_clusters(), 2);
        let mut got: Vec<u32> = g1
            .iter()
            .chain(&g2)
            .map(|e| match e.child {
                crate::node::Child::Object(ObjectId(id)) => id,
                _ => unreachable!(),
            })
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = (0..5).chain(100..105).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_of_single_entry_panics() {
        rstar_split::<2>(vec![entry([0.0, 0.0], [0.1, 0.1], 1)], 1);
    }

    #[test]
    fn split_identical_rects_is_balanced_enough() {
        // Degenerate input: all rectangles identical. The split must
        // still produce two legal groups.
        let v: Vec<Entry<2>> = (0..9).map(|i| entry([0.4, 0.4], [0.6, 0.6], i)).collect();
        let (r1, r2) = rstar_split(v, 3);
        assert!(r1.len() >= 3 && r2.len() >= 3);
    }

    #[test]
    fn one_dimensional_split() {
        let v: Vec<Entry<1>> = (0..8)
            .map(|i| {
                let o = i as f64 / 10.0;
                Entry::leaf(Rect::new([o], [o + 0.05]).unwrap(), ObjectId(i))
            })
            .collect();
        let (g1, g2) = rstar_split(v, 2);
        assert_eq!(g1.len() + g2.len(), 8);
        // 1-D split should cut the sorted order: groups must not
        // interleave.
        let max1 = g1.iter().map(|e| e.rect.lo_k(0)).fold(f64::MIN, f64::max);
        let min2 = g2.iter().map(|e| e.rect.lo_k(0)).fold(f64::MAX, f64::min);
        let max2 = g2.iter().map(|e| e.rect.lo_k(0)).fold(f64::MIN, f64::max);
        let min1 = g1.iter().map(|e| e.rect.lo_k(0)).fold(f64::MAX, f64::min);
        assert!(max1 <= min2 || max2 <= min1);
    }

    // ------------------------------------------------------------------
    // The running-union split against the per-distribution reference
    // ------------------------------------------------------------------

    use crate::testgen::{leaf_entries, node_rects};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Same two groups, each in the same order — `M + 1` entries at
        // the paper's `m = 40 %`, and small nodes down to the legal
        // minimum of two entries at `m = 1`.
        #[test]
        fn rstar_split_matches_reference_2d(
            full in node_rects::<2>(51..52), small in node_rects::<2>(2..12),
        ) {
            prop_assert_eq!(
                rstar_split(leaf_entries(&full), 20),
                rstar_split_reference(leaf_entries(&full), 20)
            );
            for m in 1..=small.len() / 2 {
                prop_assert_eq!(
                    rstar_split(leaf_entries(&small), m),
                    rstar_split_reference(leaf_entries(&small), m)
                );
            }
        }

        #[test]
        fn rstar_split_matches_reference_1d_and_3d(
            line in node_rects::<1>(85..86), boxes in node_rects::<3>(37..38),
        ) {
            prop_assert_eq!(
                rstar_split(leaf_entries(&line), 33),
                rstar_split_reference(leaf_entries(&line), 33)
            );
            prop_assert_eq!(
                rstar_split(leaf_entries(&boxes), 14),
                rstar_split_reference(leaf_entries(&boxes), 14)
            );
        }
    }
}
