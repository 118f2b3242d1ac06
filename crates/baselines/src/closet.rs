//! CLOSET+-style closed-itemset mining over FP-trees (Wang, Han, Pei,
//! KDD 2003).
//!
//! The miner recurses over conditional FP-trees in ascending item
//! frequency order, applying the CLOSET+ staples:
//!
//! * **item merging** — items occurring in *every* transaction of the
//!   conditional base belong to the closure of the current prefix and
//!   are hoisted instead of recursed on;
//! * **single-path shortcut** — a chain-shaped conditional tree yields
//!   its closed sets by direct combination of count-change points;
//! * **subsumption checking** — a candidate `(X, sup)` is closed iff no
//!   already-found closed set with the same support strictly contains
//!   it; candidates are indexed by support for the check.
//!
//! The output is exactly the closed frequent itemsets; tests pin it to
//! CHARM and CARPENTER.

use crate::fptree::FpTree;
use farmer_core::session::{ControlState, MineControl, MineObserver, NoOpObserver};
use farmer_dataset::{Dataset, ItemId};
use rowset::IdList;
use std::collections::HashMap;

/// A closed itemset with its support count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosedSet {
    /// The itemset.
    pub items: IdList,
    /// `|R(items)|`.
    pub support: usize,
}

/// Search counters for a CLOSET+ run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClosetStats {
    /// Conditional FP-trees built.
    pub trees_built: u64,
    /// Candidates dropped by subsumption.
    pub subsumed: u64,
    /// Single-path shortcuts taken.
    pub single_paths: u64,
}

/// Result of [`closet`].
#[derive(Clone, Debug)]
pub struct ClosetResult {
    /// All closed itemsets with support ≥ the threshold.
    pub closed: Vec<ClosedSet>,
    /// Search counters.
    pub stats: ClosetStats,
}

/// Mines all closed itemsets of `data` with `|R(X)| >= min_sup`.
pub fn closet(data: &Dataset, min_sup: usize) -> ClosetResult {
    closet_with(data, min_sup, &MineControl::new(), &mut NoOpObserver)
        .expect_done("uncontrolled closet run")
}

/// [`closet`] under a [`MineControl`]: one control tick per conditional
/// FP-tree built. Any control-triggered stop reports
/// [`Budgeted::BudgetExhausted`](crate::Budgeted) — a truncated CLOSET+
/// run has no useful partial answer (subsumption checks are global).
pub fn closet_with<O: MineObserver + ?Sized>(
    data: &Dataset,
    min_sup: usize,
    ctl: &MineControl,
    obs: &mut O,
) -> crate::Budgeted<ClosetResult> {
    let min_sup = min_sup.max(1);
    let transactions: Vec<(Vec<ItemId>, usize)> = (0..data.n_rows() as u32)
        .map(|r| (data.row(r).iter().collect(), 1))
        .collect();
    let mut ctx = ClosetCtx {
        min_sup,
        st: ctl.state(),
        obs,
        by_support: HashMap::new(),
        stats: ClosetStats::default(),
    };
    let tree = FpTree::build(&transactions, min_sup);
    ctx.stats.trees_built += 1;
    if ctx.mine(&tree, &[]).is_err() {
        return crate::Budgeted::BudgetExhausted {
            nodes: ctx.stats.trees_built,
        };
    }
    let closed = ctx
        .by_support
        .into_iter()
        .flat_map(|(support, sets)| {
            sets.into_iter()
                .map(move |items| ClosedSet { items, support })
        })
        .collect();
    crate::Budgeted::Done(ClosetResult {
        closed,
        stats: ctx.stats,
    })
}

struct ClosetCtx<'a, O: MineObserver + ?Sized> {
    min_sup: usize,
    st: ControlState<'a>,
    obs: &'a mut O,
    /// support → closed itemsets at that support (the subsumption index).
    by_support: HashMap<usize, Vec<IdList>>,
    stats: ClosetStats,
}

impl<O: MineObserver + ?Sized> ClosetCtx<'_, O> {
    fn mine(&mut self, tree: &FpTree, prefix: &[ItemId]) -> Result<(), ()> {
        // single-path shortcut: closed sets are the prefix plus each
        // maximal run of equal counts along the chain
        if let Some(path) = tree.single_path() {
            self.stats.single_paths += 1;
            let mut acc: Vec<ItemId> = prefix.to_vec();
            let mut k = 0;
            while k < path.len() {
                let count = path[k].1;
                while k < path.len() && path[k].1 == count {
                    acc.push(path[k].0);
                    k += 1;
                }
                // a count change point closes the itemset accumulated so far
                if count >= self.min_sup {
                    self.emit(IdList::from_iter(acc.iter().copied()), count);
                }
            }
            return Ok(());
        }

        for item in tree.items_ascending() {
            let support = tree.item_count(item);
            if support < self.min_sup {
                continue;
            }
            let base = tree.conditional_patterns(item);
            // item merging: items present in every transaction of the base
            // (with full weight) join the closure immediately
            let mut counts: HashMap<ItemId, usize> = HashMap::new();
            for (path, w) in &base {
                for &i in path {
                    *counts.entry(i).or_insert(0) += w;
                }
            }
            let merged: Vec<ItemId> = counts
                .iter()
                .filter(|&(_, &c)| c == support)
                .map(|(&i, _)| i)
                .collect();

            let mut new_prefix: Vec<ItemId> = prefix.to_vec();
            new_prefix.push(item);
            new_prefix.extend(&merged);

            // recurse on the remaining conditional items
            let sub_base: Vec<(Vec<ItemId>, usize)> = base
                .iter()
                .map(|(path, w)| {
                    (
                        path.iter()
                            .copied()
                            .filter(|i| !merged.contains(i))
                            .collect(),
                        *w,
                    )
                })
                .collect();
            let sub = FpTree::build(&sub_base, self.min_sup);
            self.stats.trees_built += 1;
            self.obs.node_entered(prefix.len() + 1);
            if self.st.tick().is_some() {
                return Err(());
            }
            if sub.is_empty() {
                self.emit(IdList::from_iter(new_prefix.iter().copied()), support);
            } else {
                self.mine(&sub, &new_prefix)?;
                // the prefix itself is closed unless some conditional item
                // kept its full support (then a superset subsumes it);
                // emit() performs that check
                self.emit(IdList::from_iter(new_prefix.iter().copied()), support);
            }
        }
        Ok(())
    }

    /// Inserts a candidate unless an existing closed set with the same
    /// support contains it; removes existing sets the candidate contains
    /// (they were premature emissions of non-closed sets).
    fn emit(&mut self, items: IdList, support: usize) {
        let bucket = self.by_support.entry(support).or_default();
        for existing in bucket.iter() {
            if items.is_subset(existing) {
                self.stats.subsumed += 1;
                return;
            }
        }
        bucket.retain(|existing| !existing.is_subset(&items));
        bucket.push(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charm::charm;
    use farmer_dataset::{paper_example, DatasetBuilder};
    use farmer_support::rng::{Rng, SeedableRng, StdRng};
    use std::collections::HashSet;

    fn canon(r: &ClosetResult) -> HashSet<(Vec<u32>, usize)> {
        r.closed
            .iter()
            .map(|c| (c.items.as_slice().to_vec(), c.support))
            .collect()
    }

    fn canon_charm(data: &Dataset, min_sup: usize) -> HashSet<(Vec<u32>, usize)> {
        charm(data, min_sup)
            .closed
            .iter()
            .map(|c| (c.items.as_slice().to_vec(), c.support()))
            .collect()
    }

    use farmer_dataset::Dataset;

    #[test]
    fn agrees_with_charm_on_paper_example() {
        let d = paper_example();
        for min_sup in 1..=4 {
            assert_eq!(
                canon(&closet(&d, min_sup)),
                canon_charm(&d, min_sup),
                "min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn agrees_with_charm_on_random_data() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..15 {
            let mut b = DatasetBuilder::new(1);
            let n_rows = rng.gen_range(3..=9);
            let n_items = rng.gen_range(3..=12);
            for _ in 0..n_rows {
                let items: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(0.5)).collect();
                b.add_row(items, 0);
            }
            let d = b.build();
            let min_sup = rng.gen_range(1..=3);
            assert_eq!(
                canon(&closet(&d, min_sup)),
                canon_charm(&d, min_sup),
                "trial={trial} min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn outputs_are_closed_and_supported() {
        let d = paper_example();
        for c in closet(&d, 2).closed {
            let support = d.rows_supporting(&c.items);
            assert_eq!(support.len(), c.support);
            assert_eq!(
                d.items_common_to(&support),
                c.items,
                "not closed: {:?}",
                c.items
            );
        }
    }

    #[test]
    fn single_path_shortcut_fires() {
        let mut b = DatasetBuilder::new(1);
        b.add_row([0, 1, 2], 0);
        b.add_row([0, 1], 0);
        b.add_row([0], 0);
        let d = b.build();
        let r = closet(&d, 1);
        assert!(r.stats.single_paths > 0);
        let got = canon(&r);
        assert!(got.contains(&(vec![0], 3)));
        assert!(got.contains(&(vec![0, 1], 2)));
        assert!(got.contains(&(vec![0, 1, 2], 1)));
        assert_eq!(got.len(), 3);
    }
}
