//! MineLB — finding the lower bounds of a rule group (§3.4).
//!
//! Given a rule group's upper bound `A` (a closed itemset) and its
//! support set `R(A)`, the lower bounds are the *minimal* subsets
//! `l ⊆ A` with `R(l) = R(A)`. Equivalently, `l` must distinguish `R(A)`
//! from every row outside it: for each row `r ∉ R(A)`, `l` must contain
//! an item missing from `r` — so the lower bounds are the minimal
//! transversals of the complements `A \ I(r)`.
//!
//! MineLB computes them incrementally (Lemma 3.10): starting from the
//! singletons of `A`, it folds in one "blocking" closed set
//! `A' = I(r) ∩ A` at a time, replacing the bounds swallowed by `A'`
//! (`Γ1`) with minimal extensions `l1 ∪ {i}`, `i ∈ A \ A'`. Only maximal
//! blocking sets matter (Lemma 3.11). Itemsets are handled as positional
//! bitsets over `A` for speed.

use farmer_dataset::Dataset;
use rowset::{IdList, RowSet};

/// Computes the lower bounds of the rule group with upper bound `upper`
/// and antecedent support set `support_set` (row ids in `data`'s order).
///
/// Returns minimal antecedents as item-id lists, in no particular order.
/// The upper bound itself is returned when it has no proper generalizing
/// subset (e.g. a singleton upper bound).
///
/// ```
/// use farmer_core::minelb::mine_lower_bounds;
/// let data = farmer_dataset::paper_example();
/// // the {a,e,h} group of the running example (rows r2,r3,r4)
/// let upper = rowset::IdList::from_iter(
///     ["a", "e", "h"].iter().map(|n| data.item_by_name(n).unwrap()),
/// );
/// let support = data.rows_supporting(&upper);
/// let lows = mine_lower_bounds(&upper, &support, &data);
/// // Example 2 of the paper: lower bounds are e and h
/// let mut names: Vec<&str> = lows
///     .iter()
///     .map(|l| data.item_name(l.iter().next().unwrap()))
///     .collect();
/// names.sort();
/// assert_eq!(names, vec!["e", "h"]);
/// ```
pub fn mine_lower_bounds(upper: &IdList, support_set: &RowSet, data: &Dataset) -> Vec<IdList> {
    let width = upper.len();
    if width == 0 {
        return Vec::new();
    }
    let item_of: Vec<u32> = upper.iter().collect();

    // Blocking sets: for each row outside R(A), the part of A it does
    // contain (as positions in A). They are gathered from A's item
    // columns, one word-packed bitset per row, so a call costs |A|
    // column sweeps instead of a lookup of every item of every outside
    // row. A row holding no item of A blocks nothing and is skipped; the
    // rest keep ascending row order. Keep only maximal ones (Lemma 3.11).
    let words = width.div_ceil(64);
    let mut packed = vec![0u64; data.n_rows() * words];
    for (p, &item) in item_of.iter().enumerate() {
        for r in data.item_rows(item).iter() {
            if !support_set.contains(r) {
                packed[r * words + p / 64] |= 1 << (p % 64);
            }
        }
    }
    let mut blockers: Vec<RowSet> = packed
        .chunks_exact(words)
        .filter(|b| b.iter().any(|&w| w != 0))
        .map(|b| RowSet::from_words(width, b.to_vec()).expect("positions lie below the width"))
        .collect();
    retain_maximal(&mut blockers);

    // Γ: current lower bounds, as positional bitsets. Initially the
    // singletons of A.
    let mut gamma: Vec<RowSet> = (0..width).map(|p| RowSet::from_ids(width, [p])).collect();

    for a_prime in &blockers {
        let (gamma1, gamma2): (Vec<RowSet>, Vec<RowSet>) =
            gamma.into_iter().partition(|l| l.is_subset(a_prime));
        // candidate new bounds: l1 ∪ {i}, i ∈ A \ A'
        let mut candidates: Vec<RowSet> = Vec::new();
        let complement: Vec<usize> = (0..width).filter(|&p| !a_prime.contains(p)).collect();
        for l1 in &gamma1 {
            for &i in &complement {
                let mut c = l1.clone();
                c.insert(i);
                candidates.push(c);
            }
        }
        // dedupe (requires grouping equals), then order smallest-first so
        // the single acceptance pass below sees potential covers early
        candidates.sort_by_key(|c| c.to_vec());
        candidates.dedup();
        candidates.sort_by_key(RowSet::len);
        // keep candidates covering neither a surviving bound nor a smaller
        // candidate
        let mut accepted: Vec<RowSet> = Vec::new();
        'cand: for c in candidates {
            for l2 in &gamma2 {
                if l2.is_subset(&c) {
                    continue 'cand;
                }
            }
            for a in &accepted {
                if a.is_subset(&c) {
                    continue 'cand;
                }
            }
            accepted.push(c);
        }
        gamma = gamma2;
        gamma.extend(accepted);
    }

    gamma
        .into_iter()
        .map(|l| IdList::from_iter(l.iter().map(|p| item_of[p])))
        .collect()
}

/// Drops every set that is a subset of another (keeps one copy of
/// duplicates).
fn retain_maximal(sets: &mut Vec<RowSet>) {
    sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let mut kept: Vec<RowSet> = Vec::with_capacity(sets.len());
    for s in sets.drain(..) {
        if !kept.iter().any(|k| s.is_subset(k)) {
            kept.push(s);
        }
    }
    *sets = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_dataset::DatasetBuilder;

    /// The worked Example 7 of the paper: A = abcde, rows abcf and cdeg.
    #[test]
    fn paper_example_7() {
        let mut b = DatasetBuilder::new(1);
        b.add_row_named(&["a", "b", "c", "d", "e"], 0); // carrier of A
        b.add_row_named(&["a", "b", "c", "f"], 0);
        b.add_row_named(&["c", "d", "e", "g"], 0);
        let d = b.build();
        let upper = IdList::from_iter(
            ["a", "b", "c", "d", "e"]
                .iter()
                .map(|n| d.item_by_name(n).unwrap()),
        );
        let support = RowSet::from_ids(3, [0]);
        let mut lows = mine_lower_bounds(&upper, &support, &d);
        let mut names: Vec<String> = lows
            .drain(..)
            .map(|l| {
                l.iter()
                    .map(|i| d.item_name(i).to_string())
                    .collect::<Vec<_>>()
                    .join("")
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["ad", "ae", "bd", "be"]);
    }

    #[test]
    fn no_blockers_gives_singletons() {
        // every row contains A: lower bounds are the singletons
        let mut b = DatasetBuilder::new(1);
        b.add_row_named(&["x", "y"], 0);
        b.add_row_named(&["x", "y", "z"], 0);
        let d = b.build();
        let upper = IdList::from_iter([d.item_by_name("x").unwrap(), d.item_by_name("y").unwrap()]);
        let support = RowSet::full(2);
        let lows = mine_lower_bounds(&upper, &support, &d);
        assert_eq!(lows.len(), 2);
        assert!(lows.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn singleton_upper_bound() {
        let mut b = DatasetBuilder::new(1);
        b.add_row_named(&["x"], 0);
        b.add_row_named(&["y"], 0);
        let d = b.build();
        let upper = IdList::from_iter([d.item_by_name("x").unwrap()]);
        let support = RowSet::from_ids(2, [0]);
        let lows = mine_lower_bounds(&upper, &support, &d);
        assert_eq!(lows, vec![upper]);
    }

    #[test]
    fn retain_maximal_filters_subsets() {
        let mut v = vec![
            RowSet::from_ids(4, [0]),
            RowSet::from_ids(4, [0, 1]),
            RowSet::from_ids(4, [2]),
            RowSet::from_ids(4, [0, 1]),
        ];
        retain_maximal(&mut v);
        assert_eq!(v.len(), 2);
        assert!(v.contains(&RowSet::from_ids(4, [0, 1])));
        assert!(v.contains(&RowSet::from_ids(4, [2])));
    }

    /// Brute-force definition check: every returned bound l satisfies
    /// R(l) = R(A) and no proper subset does.
    #[test]
    fn bounds_are_minimal_generators() {
        let mut b = DatasetBuilder::new(1);
        b.add_row_named(&["a", "b", "c", "d"], 0);
        b.add_row_named(&["a", "b", "c", "d"], 0);
        b.add_row_named(&["a", "b", "x"], 0);
        b.add_row_named(&["c", "d", "x"], 0);
        b.add_row_named(&["a", "c", "x"], 0);
        let d = b.build();
        let upper = IdList::from_iter(
            ["a", "b", "c", "d"]
                .iter()
                .map(|n| d.item_by_name(n).unwrap()),
        );
        let support = d.rows_supporting(&upper);
        assert_eq!(support.to_vec(), vec![0, 1]);
        let lows = mine_lower_bounds(&upper, &support, &d);
        assert!(!lows.is_empty());
        for l in &lows {
            assert_eq!(d.rows_supporting(l), support, "R(l) != R(A) for {l:?}");
            // minimality: drop any one item and the support grows
            for drop in l.iter() {
                let smaller = IdList::from_iter(l.iter().filter(|&i| i != drop));
                if smaller.is_empty() {
                    continue;
                }
                assert_ne!(d.rows_supporting(&smaller), support, "{l:?} not minimal");
            }
        }
    }
}
