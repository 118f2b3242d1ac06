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
//! bit vectors over `A`: a single `u64` mask when `A` has at most 64
//! items (every upper bound the analogs produce), a [`RowSet`] beyond.

use farmer_dataset::Dataset;
use rowset::{IdList, RowSet};
use std::cmp::{Ordering, Reverse};

/// Computes the lower bounds of the rule group with upper bound `upper`
/// and antecedent support set `support_set` (row ids in `data`'s order).
///
/// Returns minimal antecedents as item-id lists, in MineLB's fold order
/// (the same for either bit-vector width). The upper bound itself is
/// returned when it has no proper generalizing subset (e.g. a singleton
/// upper bound).
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
    match upper.len() {
        0 => Vec::new(),
        1..=64 => lower_bounds_narrow(upper.as_slice(), support_set, data),
        _ => lower_bounds_wide(upper.as_slice(), support_set, data),
    }
}

/// The blocking sets, packed `words` words per dataset row: row `r`'s
/// bits are the positions in `items` of the items it holds, or all
/// zero when `r` is in `support_set`. They are gathered from the item
/// columns, so a call costs `|A|` column sweeps instead of a lookup of
/// every item of every outside row.
fn pack_blockers(items: &[u32], support_set: &RowSet, data: &Dataset, words: usize) -> Vec<u64> {
    let mut packed = vec![0u64; data.n_rows() * words];
    for (p, &item) in items.iter().enumerate() {
        for r in data.item_rows(item).iter() {
            if !support_set.contains(r) {
                packed[r * words + p / 64] |= 1 << (p % 64);
            }
        }
    }
    packed
}

/// MineLB on `u64` position masks, for `1 ≤ |A| ≤ 64`.
///
/// One buffer holds everything: the maximal blockers first, then Γ.
/// During a fold, `Γ1` and the candidates go behind Γ, and Γ is rebuilt
/// in place as `Γ2` followed by the accepted candidates. Every step
/// keeps [`lower_bounds_wide`]'s order, so both paths return the same
/// lists in the same order.
fn lower_bounds_narrow(items: &[u32], support_set: &RowSet, data: &Dataset) -> Vec<IdList> {
    let all = u64::MAX >> (64 - items.len());
    let mut buf = pack_blockers(items, support_set, data, 1);
    // rows holding no item of A block nothing; keep only maximal
    // blockers, widest first and otherwise in row order
    buf.retain(|&b| b != 0);
    buf.sort_by_key(|b| Reverse(b.count_ones()));
    let mut n_blockers = 0;
    for j in 0..buf.len() {
        let b = buf[j];
        if !buf[..n_blockers].iter().any(|&k| b & !k == 0) {
            buf[n_blockers] = b;
            n_blockers += 1;
        }
    }
    buf.truncate(n_blockers);
    // Γ starts as the singletons of A
    buf.extend((0..items.len()).map(|p| 1u64 << p));

    for j in 0..n_blockers {
        let a_prime = buf[j];
        // split Γ: Γ2 (bounds not inside A') is compacted to Γ's front,
        // Γ1 is copied behind Γ, both in order
        let gamma_end = buf.len();
        let mut kept = n_blockers;
        for k in n_blockers..gamma_end {
            let l = buf[k];
            if l & !a_prime == 0 {
                buf.push(l);
            } else {
                buf[kept] = l;
                kept += 1;
            }
        }
        // candidate new bounds l1 ∪ {i}, i ∈ A \ A', behind Γ1
        let cands = buf.len();
        for k in gamma_end..cands {
            let l1 = buf[k];
            let mut rest = all & !a_prime;
            while rest != 0 {
                buf.push(l1 | (rest & rest.wrapping_neg()));
                rest &= rest - 1;
            }
        }
        // smallest first, so the acceptance pass sees potential covers
        // early; ties in the position lists' lexicographic order
        buf[cands..].sort_unstable_by(|&x, &y| {
            x.count_ones()
                .cmp(&y.count_ones())
                .then_with(|| lex_cmp(x, y))
        });
        // accept candidates covering neither a bound of Γ2 nor an
        // accepted candidate, writing them behind Γ2. Γ1 and the gap it
        // left keep the writes behind the candidate being read.
        let mut prev = 0;
        for k in cands..buf.len() {
            let c = buf[k];
            if c == prev {
                continue;
            }
            prev = c;
            if !buf[n_blockers..kept].iter().any(|&l| l & !c == 0) {
                buf[kept] = c;
                kept += 1;
            }
        }
        buf.truncate(kept);
    }

    buf[n_blockers..]
        .iter()
        .map(|&l| {
            let mut ids = Vec::with_capacity(l.count_ones() as usize);
            let mut rest = l;
            while rest != 0 {
                ids.push(items[rest.trailing_zeros() as usize]);
                rest &= rest - 1;
            }
            IdList::from_sorted(ids)
        })
        .collect()
}

/// Orders two position masks as their ascending position lists compare
/// lexicographically. At the lowest position where they differ, the
/// mask holding it comes first unless the other mask ends there (a
/// proper prefix comes first). This is not the order of the mask
/// values: `{0, 3}` comes before `{1, 2}`.
fn lex_cmp(x: u64, y: u64) -> Ordering {
    let diff = x ^ y;
    if diff == 0 {
        return Ordering::Equal;
    }
    let p = diff.trailing_zeros();
    let (holder_is_x, other) = if x >> p & 1 == 1 {
        (true, y)
    } else {
        (false, x)
    };
    // the holder's list goes on with `p`; it comes first iff the other
    // list goes on too, with a later position
    let holder_first = other >> p != 0;
    if holder_first == holder_is_x {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// MineLB on [`RowSet`] position sets, for upper bounds of any width.
/// The miner reaches it only for upper bounds wider than 64 items.
fn lower_bounds_wide(items: &[u32], support_set: &RowSet, data: &Dataset) -> Vec<IdList> {
    let width = items.len();
    // A row holding no item of A blocks nothing and is skipped; the rest
    // keep ascending row order. Keep only maximal ones (Lemma 3.11).
    let words = width.div_ceil(64);
    let packed = pack_blockers(items, support_set, data, words);
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
        .map(|l| IdList::from_iter(l.iter().map(|p| items[p])))
        .collect()
}

/// Drops every set that is a subset of another (keeps one copy of
/// duplicates).
fn retain_maximal(sets: &mut Vec<RowSet>) {
    sets.sort_by_key(|s| Reverse(s.len()));
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
    use farmer_support::check::prelude::*;
    use std::collections::BTreeSet;

    /// One class; row `r` holds every item below `n_items` except
    /// `misses[r]`.
    fn dense_dataset(n_items: u32, misses: &[BTreeSet<u32>]) -> Dataset {
        let mut b = DatasetBuilder::new(1);
        for m in misses {
            b.add_row((0..n_items).filter(|i| !m.contains(i)), 0);
        }
        b.build()
    }

    /// Checks both paths on the group `upper`: the same lists in the same
    /// order, each list generating `upper`'s support set.
    fn check_paths_agree(d: &Dataset, upper: &IdList) {
        let support = d.rows_supporting(upper);
        let wide = lower_bounds_wide(upper.as_slice(), &support, d);
        if upper.len() <= 64 {
            let narrow = lower_bounds_narrow(upper.as_slice(), &support, d);
            assert_eq!(narrow, wide, "paths differ on {upper:?}");
        }
        assert_eq!(mine_lower_bounds(upper, &support, d), wide);
        for l in &wide {
            assert_eq!(d.rows_supporting(l), support, "R({l:?}) != R(A)");
        }
    }

    check! {
        #![config(cases = 128)]

        /// Small dense datasets, each row missing at most three items of
        /// a 1–100 item universe, so the closed upper bounds `I(R')` of
        /// the row subsets `R'` span 1–100 items on both sides of the
        /// 64-item switch between the paths.
        #[test]
        fn narrow_path_equals_wide_path(
            (n_items, misses) in (1u32..101, 2usize..7).prop_flat_map(|(n_items, n_rows)| {
                collection::vec(collection::btree_set(0..n_items, 0..4), n_rows)
                    .prop_map(move |misses| (n_items, misses))
            }),
        ) {
            let d = dense_dataset(n_items, &misses);
            for mask in 1u32..(1 << d.n_rows()) {
                let rows = RowSet::from_ids(
                    d.n_rows(),
                    (0..d.n_rows()).filter(|&r| mask & (1 << r) != 0),
                );
                let upper = d.items_common_to(&rows);
                if !upper.is_empty() {
                    check_paths_agree(&d, &upper);
                }
            }
        }
    }

    /// At 63, 64 and 65 items, with the blockers' complements at the
    /// lowest and highest positions: `{0, w-1}`, `{w-2, w-1}` and
    /// `{1, w-2}` have the minimal transversals `{w-2, w-1}`, `{1, w-1}`
    /// and `{0, w-2}`.
    #[test]
    fn paths_agree_at_the_word_boundary() {
        for w in [63u32, 64, 65] {
            let misses = [
                BTreeSet::new(),
                BTreeSet::from([0, w - 1]),
                BTreeSet::from([w - 2, w - 1]),
                BTreeSet::from([1, w - 2]),
            ];
            let d = dense_dataset(w, &misses);
            let upper = d.row(0).clone();
            assert_eq!(upper.len(), w as usize);
            check_paths_agree(&d, &upper);
            let mut got = mine_lower_bounds(&upper, &d.rows_supporting(&upper), &d);
            got.sort();
            let want = [[0, w - 2], [1, w - 1], [w - 2, w - 1]].map(IdList::from_iter);
            assert_eq!(got, want, "width {w}");
        }
    }

    #[test]
    fn lex_cmp_orders_position_lists() {
        let list = |m: u64| (0..64).filter(|p| m >> p & 1 == 1).collect::<Vec<u32>>();
        let masks = [
            0b1,
            0b10,
            0b11,
            0b101,
            0b110,
            0b1001,
            1 << 63,
            (1 << 63) | 1,
            u64::MAX,
        ];
        for x in masks {
            for y in masks {
                assert_eq!(lex_cmp(x, y), list(x).cmp(&list(y)), "{x:#b} vs {y:#b}");
            }
        }
    }

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
