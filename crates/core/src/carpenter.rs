//! CARPENTER — closed-pattern mining by row enumeration (Pan, Cong,
//! Tung, Yang, Zaki; KDD 2003).
//!
//! FARMER's predecessor: the same depth-first traversal of row
//! combinations, but it reports *every frequent closed pattern*
//! (class-agnostic) instead of interesting rule groups, and its only
//! threshold is minimum support. Included both as lineage (§5 of the
//! FARMER paper) and because several cross-checks fall out of it: every
//! FARMER upper bound is a closed pattern, and CARPENTER must agree with
//! the column-enumeration closed-set miners (CHARM, CLOSET+) in the
//! baselines crate.

use crate::cond::{BitsetNode, Table};
use farmer_dataset::{Dataset, RowId};
use rowset::{IdList, RowSet};

/// A closed pattern with its support set.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosedPattern {
    /// The itemset (closed: equal to `I(R(items))`).
    pub items: IdList,
    /// `R(items)` — the rows containing the pattern.
    pub rows: RowSet,
}

impl ClosedPattern {
    /// Pattern support `|R(items)|`.
    pub fn support(&self) -> usize {
        self.rows.len()
    }
}

/// Search counters for a CARPENTER run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CarpenterStats {
    /// Enumeration nodes entered.
    pub nodes_visited: u64,
    /// Nodes cut because even `|X| + |candidates|` cannot reach `min_sup`.
    pub pruned_support: u64,
    /// Nodes cut by the back-row (duplicate subtree) rule.
    pub pruned_duplicate: u64,
}

/// Result of [`carpenter`].
#[derive(Clone, Debug)]
pub struct CarpenterResult {
    /// All closed patterns with support ≥ the threshold.
    pub patterns: Vec<ClosedPattern>,
    /// Search counters.
    pub stats: CarpenterStats,
}

/// Mines all closed patterns of `data` with support ≥ `min_sup`
/// (`min_sup ≥ 1`). Class labels are ignored.
///
/// ```
/// use farmer_core::carpenter::carpenter;
/// let data = farmer_dataset::paper_example();
/// let result = carpenter(&data, 3);
/// // {a} is contained in rows r1..r4 of the paper's Figure 1
/// assert!(result
///     .patterns
///     .iter()
///     .any(|p| p.support() == 4 && p.items.len() == 1));
/// ```
pub fn carpenter(data: &Dataset, min_sup: usize) -> CarpenterResult {
    let min_sup = min_sup.max(1);
    let n = data.n_rows();
    let mut ctx = CarpCtx {
        min_sup,
        n,
        patterns: Vec::new(),
        stats: CarpenterStats::default(),
    };
    let table = Table::new(data);
    let root = BitsetNode::root(&table);
    let all = RowSet::full(n);
    ctx.visit(&root, None, &RowSet::empty(n), all);
    CarpenterResult {
        patterns: ctx.patterns,
        stats: ctx.stats,
    }
}

struct CarpCtx {
    min_sup: usize,
    n: usize,
    patterns: Vec<ClosedPattern>,
    stats: CarpenterStats,
}

impl CarpCtx {
    fn visit(&mut self, node: &BitsetNode, last: Option<RowId>, counted: &RowSet, e: RowSet) {
        self.stats.nodes_visited += 1;
        let is_root = last.is_none();

        // support pruning: everything below covers at most the rows we
        // have folded in plus the remaining candidates
        if counted.len() + e.len() < self.min_sup {
            self.stats.pruned_support += 1;
            return;
        }

        // CARPENTER ignores classes; feed all candidates through the
        // positive slot of the shared scan
        let empty = RowSet::empty(self.n);
        let ins = node.inspect(&e, &empty);

        // duplicate-subtree rule (FARMER's pruning 2, CARPENTER pruning 3):
        // an uncounted row ordered before this node, present in every
        // tuple, means the subtree repeats an earlier one
        if !is_root {
            let last = last.expect("non-root") as usize;
            if ins
                .z
                .iter()
                .take_while(|&r| r < last)
                .any(|r| !counted.contains(r))
            {
                self.stats.pruned_duplicate += 1;
                return;
            }
        }

        // compression: rows in every tuple join the pattern's support.
        // Skipped at the root (which emits nothing) so a row contained in
        // every tuple of the full table still gets enumerated.
        let (next_e, counted_next) = if is_root {
            (ins.u_p.clone(), counted.clone())
        } else {
            let y = ins.z.intersection(&e);
            (ins.u_p.difference(&y), counted.union(&y))
        };

        let mut remaining = next_e.clone();
        for r in next_e.iter() {
            remaining.remove(r);
            let mut counted_child = counted_next.clone();
            counted_child.insert(r);
            self.visit(
                &node.child(r as RowId),
                Some(r as RowId),
                &counted_child,
                remaining.clone(),
            );
        }

        if !is_root && ins.z.len() >= self.min_sup {
            self.patterns.push(ClosedPattern {
                items: IdList::from_iter(node.items().iter().copied()),
                rows: ins.z,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_dataset::{paper_example, DatasetBuilder};
    use std::collections::HashSet;

    /// Closed patterns by brute force over row subsets.
    fn naive_closed(data: &Dataset, min_sup: usize) -> HashSet<(Vec<u32>, Vec<usize>)> {
        let n = data.n_rows();
        let mut out = HashSet::new();
        for mask in 1u32..(1 << n) {
            let rows = RowSet::from_ids(n, (0..n).filter(|&r| mask & (1 << r) != 0));
            let items = data.items_common_to(&rows);
            if items.is_empty() {
                continue;
            }
            let support = data.rows_supporting(&items);
            if support.len() < min_sup {
                continue;
            }
            let closed = data.items_common_to(&support);
            out.insert((closed.as_slice().to_vec(), support.to_vec()));
        }
        out
    }

    fn as_set(r: &CarpenterResult) -> HashSet<(Vec<u32>, Vec<usize>)> {
        r.patterns
            .iter()
            .map(|p| (p.items.as_slice().to_vec(), p.rows.to_vec()))
            .collect()
    }

    #[test]
    fn matches_brute_force_on_paper_example() {
        let d = paper_example();
        for min_sup in 1..=4 {
            let got = carpenter(&d, min_sup);
            assert_eq!(as_set(&got), naive_closed(&d, min_sup), "min_sup={min_sup}");
            // no duplicates emitted
            assert_eq!(got.patterns.len(), as_set(&got).len());
        }
    }

    #[test]
    fn all_patterns_are_closed() {
        let d = paper_example();
        for p in carpenter(&d, 1).patterns {
            assert_eq!(d.items_common_to(&p.rows), p.items);
            assert_eq!(d.rows_supporting(&p.items), p.rows);
            assert_eq!(p.support(), p.rows.len());
        }
    }

    #[test]
    fn support_threshold_respected() {
        let d = paper_example();
        let r = carpenter(&d, 3);
        assert!(r.patterns.iter().all(|p| p.support() >= 3));
        // item 'a' occurs in rows 0..=3: pattern {a} must be found
        let a = d.item_by_name("a").unwrap();
        assert!(r.patterns.iter().any(|p| p.items == IdList::from_iter([a])));
    }

    #[test]
    fn duplicate_rows_handled() {
        let mut b = DatasetBuilder::new(1);
        b.add_row_named(&["x", "y"], 0);
        b.add_row_named(&["x", "y"], 0);
        b.add_row_named(&["y", "z"], 0);
        let d = b.build();
        let r = carpenter(&d, 1);
        assert_eq!(as_set(&r), naive_closed(&d, 1));
    }

    #[test]
    fn single_row_dataset() {
        // regression: a row contained in every tuple of the root table
        // must not be compressed away before any pattern is emitted
        let mut b = DatasetBuilder::new(1);
        b.add_row_named(&["x", "y", "z"], 0);
        let d = b.build();
        let r = carpenter(&d, 1);
        assert_eq!(r.patterns.len(), 1);
        assert_eq!(r.patterns[0].items.len(), 3);
        assert_eq!(r.patterns[0].support(), 1);
        assert_eq!(as_set(&r), naive_closed(&d, 1));
    }

    #[test]
    fn pruning_counters_move() {
        let d = paper_example();
        let r = carpenter(&d, 4);
        assert!(r.stats.nodes_visited > 0);
        assert!(r.stats.pruned_support > 0);
    }
}
