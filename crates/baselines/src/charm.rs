//! CHARM — closed-itemset mining over the IT-tree (Zaki & Hsiao,
//! SDM 2002).
//!
//! CHARM explores itemset–tidset ("IT") pairs depth-first, combining
//! sibling pairs and exploiting four tidset relationships to jump
//! straight to closed sets:
//!
//! 1. `t(Xi) = t(Xj)` — `Xj` can never appear without `Xi`; fold `Xj`'s
//!    items into `Xi` and drop `Xj`;
//! 2. `t(Xi) ⊂ t(Xj)` — fold `Xj`'s items into `Xi`, keep `Xj`;
//! 3. `t(Xi) ⊃ t(Xj)` — a genuine child `Xi ∪ Xj` with tidset
//!    `t(Xi) ∩ t(Xj)`;
//! 4. incomparable — likewise a genuine child.
//!
//! A generated set is emitted unless an already-found closed set with
//! the same tidset subsumes it. Like the original, items are processed
//! in ascending support order, which maximizes the effect of properties
//! 1 and 2.

use farmer_core::session::{ControlState, MineControl, MineObserver, NoOpObserver};
use farmer_dataset::Dataset;
use rowset::{IdList, RowSet};
use std::collections::HashMap;

/// A closed itemset found by CHARM.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosedSet {
    /// The itemset (closed under the dataset's Galois connection).
    pub items: IdList,
    /// The tidset `R(items)`.
    pub rows: RowSet,
}

impl ClosedSet {
    /// `|R(items)|`.
    pub fn support(&self) -> usize {
        self.rows.len()
    }
}

/// Search counters for a CHARM run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CharmStats {
    /// IT-pairs examined (tidset intersections performed).
    pub pairs_examined: u64,
    /// Candidates dropped by the subsumption check.
    pub subsumed: u64,
}

/// Result of [`charm`].
#[derive(Clone, Debug)]
pub struct CharmResult {
    /// All closed itemsets with support ≥ the threshold.
    pub closed: Vec<ClosedSet>,
    /// Search counters.
    pub stats: CharmStats,
}

/// One itemset–tidset pair of the IT-tree.
#[derive(Clone)]
struct ItPair {
    items: IdList,
    rows: RowSet,
}

/// CHARM over **diffsets** (dCHARM, Zaki's dense-data variant): each
/// IT-node stores the *difference* from its parent's tidset instead of
/// the tidset itself.
///
/// With `d(PX) = t(P) \ t(PX)` the four CHARM properties translate to
/// diffset comparisons (`t(Xi) ⊆ t(Xj) ⟺ d(Xj) ⊆ d(Xi)`), supports
/// update as `sup(PXY) = sup(PX) − |d(PY) \ d(PX)|`, and on dense data
/// the stored sets shrink dramatically as the tree deepens. Output is
/// identical to [`charm`]; the search-time representation is the only
/// difference (support sets are reconstructed once at the end).
pub fn charm_diffsets(data: &Dataset, min_sup: usize) -> CharmResult {
    let min_sup = min_sup.max(1);
    let n = data.n_rows();
    let full = RowSet::full(n);
    let mut ctx = DCharmCtx {
        min_sup,
        candidates: Vec::new(),
        stats: CharmStats::default(),
    };
    // root level: diffsets relative to the full row set
    let mut roots: Vec<DPair> = (0..data.n_items() as u32)
        .filter(|&i| data.item_rows(i).len() >= min_sup)
        .map(|i| DPair {
            items: IdList::from_iter([i]),
            diff: full.difference(data.item_rows(i)),
            sup: data.item_rows(i).len(),
        })
        .collect();
    roots.sort_by_key(|p| (p.sup, p.items.as_slice().to_vec()));
    ctx.extend(roots);

    // assemble: reconstruct support sets and keep the largest itemset
    // per support set (the closure)
    let mut by_rows: HashMap<Vec<usize>, (IdList, RowSet)> = HashMap::new();
    let mut subsumed = 0u64;
    for (items, _) in ctx.candidates {
        let rows = data.rows_supporting(&items);
        let key = rows_key(&rows);
        match by_rows.get_mut(&key) {
            Some((existing, _)) => {
                if items.is_subset(existing) {
                    subsumed += 1;
                } else {
                    *existing = existing.union(&items);
                }
            }
            None => {
                by_rows.insert(key, (items, rows));
            }
        }
    }
    CharmResult {
        closed: by_rows
            .into_values()
            .map(|(items, rows)| ClosedSet { items, rows })
            .collect(),
        stats: CharmStats {
            subsumed: ctx.stats.subsumed + subsumed,
            ..ctx.stats
        },
    }
}

/// One itemset–diffset pair (relative to the parent node's tidset).
#[derive(Clone)]
struct DPair {
    items: IdList,
    diff: RowSet,
    sup: usize,
}

struct DCharmCtx {
    min_sup: usize,
    /// (itemset, support) candidates pending closure assembly.
    candidates: Vec<(IdList, usize)>,
    stats: CharmStats,
}

impl DCharmCtx {
    fn extend(&mut self, mut siblings: Vec<DPair>) {
        let mut idx = 0;
        while idx < siblings.len() {
            let mut items = siblings[idx].items.clone();
            let diff_i = siblings[idx].diff.clone();
            let sup_i = siblings[idx].sup;
            let mut children: Vec<DPair> = Vec::new();

            let mut j = idx + 1;
            while j < siblings.len() {
                self.stats.pairs_examined += 1;
                let diff_j = &siblings[j].diff;
                // d(child) relative to t(Xi): d_j \ d_i
                let d_child = diff_j.difference(&diff_i);
                let sup_child = sup_i - d_child.len();
                if sup_child < self.min_sup {
                    j += 1;
                    continue;
                }
                let eq_i = d_child.is_empty(); // d_j ⊆ d_i ⟺ t(Xi) ⊆ t(Xj)
                let eq_j = diff_i.is_subset(diff_j); // d_i ⊆ d_j ⟺ t(Xj) ⊆ t(Xi)
                if eq_i && eq_j {
                    items = items.union(&siblings[j].items);
                    siblings.remove(j);
                    continue;
                } else if eq_i {
                    items = items.union(&siblings[j].items);
                } else {
                    children.push(DPair {
                        items: items.union(&siblings[j].items),
                        diff: d_child,
                        sup: sup_child,
                    });
                }
                j += 1;
            }

            if !children.is_empty() {
                for c in &mut children {
                    c.items = c.items.union(&items);
                }
                children.sort_by_key(|p| (p.sup, p.items.as_slice().to_vec()));
                self.extend(children);
            }
            self.candidates.push((items, sup_i));
            idx += 1;
        }
    }
}

/// Mines all closed itemsets of `data` with `|R(X)| >= min_sup`.
///
/// ```
/// use farmer_baselines::charm::charm;
/// let data = farmer_dataset::paper_example();
/// let result = charm(&data, 2);
/// // every output is closed: I(R(X)) == X
/// for c in &result.closed {
///     assert_eq!(data.items_common_to(&c.rows), c.items);
/// }
/// ```
pub fn charm(data: &Dataset, min_sup: usize) -> CharmResult {
    charm_with(data, min_sup, &MineControl::new(), &mut NoOpObserver)
        .expect_done("uncontrolled charm run")
}

/// [`charm`] under a [`MineControl`]: one control tick per examined
/// IT-pair, so budgets, deadlines, and cooperative cancellation all land
/// within milliseconds. Any control-triggered stop reports
/// [`Budgeted::BudgetExhausted`](crate::Budgeted) (a truncated CHARM run
/// has no useful partial answer — subsumption checks are global).
pub fn charm_with<O: MineObserver + ?Sized>(
    data: &Dataset,
    min_sup: usize,
    ctl: &MineControl,
    obs: &mut O,
) -> crate::Budgeted<CharmResult> {
    let min_sup = min_sup.max(1);
    let mut ctx = CharmCtx {
        min_sup,
        st: ctl.state(),
        obs,
        closed_by_rows: HashMap::new(),
        stats: CharmStats::default(),
    };

    // frequent single items, ascending support (CHARM's preferred order)
    let mut roots: Vec<ItPair> = (0..data.n_items() as u32)
        .filter(|&i| data.item_rows(i).len() >= min_sup)
        .map(|i| ItPair {
            items: IdList::from_iter([i]),
            rows: data.item_rows(i).clone(),
        })
        .collect();
    roots.sort_by_key(|p| (p.rows.len(), p.items.as_slice().to_vec()));
    if ctx.extend(roots).is_err() {
        return crate::Budgeted::BudgetExhausted {
            nodes: ctx.stats.pairs_examined,
        };
    }

    let closed = ctx
        .closed_by_rows
        .into_iter()
        .map(|(rows, items)| ClosedSet {
            items,
            rows: rows_from_key(&rows, data.n_rows()),
        })
        .collect();
    crate::Budgeted::Done(CharmResult {
        closed,
        stats: ctx.stats,
    })
}

fn rows_key(rows: &RowSet) -> Vec<usize> {
    rows.to_vec()
}

fn rows_from_key(key: &[usize], n: usize) -> RowSet {
    RowSet::from_ids(n, key.iter().copied())
}

struct CharmCtx<'a, O: MineObserver + ?Sized> {
    min_sup: usize,
    st: ControlState<'a>,
    obs: &'a mut O,
    /// tidset → largest itemset seen with that tidset. Because every
    /// itemset sharing a tidset is a subset of the tidset's closure, the
    /// largest survivor is the closed set.
    closed_by_rows: HashMap<Vec<usize>, IdList>,
    stats: CharmStats,
}

impl<O: MineObserver + ?Sized> CharmCtx<'_, O> {
    fn extend(&mut self, mut siblings: Vec<ItPair>) -> Result<(), ()> {
        let mut idx = 0;
        while idx < siblings.len() {
            // `items` may grow via properties 1 & 2 while scanning
            let mut items = siblings[idx].items.clone();
            let rows_i = siblings[idx].rows.clone();
            let mut children: Vec<ItPair> = Vec::new();

            let mut j = idx + 1;
            while j < siblings.len() {
                self.stats.pairs_examined += 1;
                self.obs.node_entered(items.len());
                if self.st.tick().is_some() {
                    return Err(());
                }
                let rows_j = &siblings[j].rows;
                let inter = rows_i.intersection(rows_j);
                if inter.len() < self.min_sup {
                    j += 1;
                    continue;
                }
                let eq_i = inter.len() == rows_i.len(); // t(Xi) ⊆ t(Xj)
                let eq_j = inter.len() == rows_j.len(); // t(Xj) ⊆ t(Xi)
                if eq_i && eq_j {
                    // property 1: identical tidsets — absorb Xj entirely
                    items = items.union(&siblings[j].items);
                    siblings.remove(j);
                    continue; // do not advance j
                } else if eq_i {
                    // property 2: t(Xi) ⊂ t(Xj) — absorb Xj's items
                    items = items.union(&siblings[j].items);
                } else {
                    // properties 3 & 4: a genuine child
                    children.push(ItPair {
                        items: items.union(&siblings[j].items),
                        rows: inter,
                    });
                }
                j += 1;
            }

            if !children.is_empty() {
                // children collected before late property-1/2 absorptions
                // may miss items folded into `items` afterwards; re-unite
                for c in &mut children {
                    c.items = c.items.union(&items);
                }
                children.sort_by_key(|p| (p.rows.len(), p.items.as_slice().to_vec()));
                self.extend(children)?;
            }
            self.insert_closed(items, &rows_i);
            idx += 1;
        }
        Ok(())
    }

    fn insert_closed(&mut self, items: IdList, rows: &RowSet) {
        let key = rows_key(rows);
        match self.closed_by_rows.get_mut(&key) {
            Some(existing) => {
                // same tidset: the larger itemset is the better closure
                // candidate (the true closure is their union)
                if items.is_subset(existing) {
                    self.stats.subsumed += 1;
                } else {
                    *existing = existing.union(&items);
                }
            }
            None => {
                self.closed_by_rows.insert(key, items);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::carpenter::carpenter;
    use farmer_dataset::{paper_example, DatasetBuilder};
    use farmer_support::rng::{Rng, SeedableRng, StdRng};
    use std::collections::HashSet;

    fn canon_charm(r: &CharmResult) -> HashSet<(Vec<u32>, Vec<usize>)> {
        r.closed
            .iter()
            .map(|c| (c.items.as_slice().to_vec(), c.rows.to_vec()))
            .collect()
    }

    fn canon_carp(data: &Dataset, min_sup: usize) -> HashSet<(Vec<u32>, Vec<usize>)> {
        carpenter(data, min_sup)
            .patterns
            .iter()
            .map(|p| (p.items.as_slice().to_vec(), p.rows.to_vec()))
            .collect()
    }

    use farmer_dataset::Dataset;

    #[test]
    fn agrees_with_carpenter_on_paper_example() {
        let d = paper_example();
        for min_sup in 1..=4 {
            assert_eq!(
                canon_charm(&charm(&d, min_sup)),
                canon_carp(&d, min_sup),
                "min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn agrees_with_carpenter_on_random_data() {
        let mut rng = StdRng::seed_from_u64(11);
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
                canon_charm(&charm(&d, min_sup)),
                canon_carp(&d, min_sup),
                "trial={trial} min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn diffsets_agree_with_tidsets() {
        let d = paper_example();
        for min_sup in 1..=4 {
            assert_eq!(
                canon_charm(&charm_diffsets(&d, min_sup)),
                canon_charm(&charm(&d, min_sup)),
                "min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn diffsets_agree_on_random_data() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..15 {
            let mut b = DatasetBuilder::new(1);
            let n_rows = rng.gen_range(3..=9);
            let n_items = rng.gen_range(3..=12);
            for _ in 0..n_rows {
                let items: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(0.6)).collect();
                b.add_row(items, 0);
            }
            let d = b.build();
            let min_sup = rng.gen_range(1..=3);
            assert_eq!(
                canon_charm(&charm_diffsets(&d, min_sup)),
                canon_charm(&charm(&d, min_sup)),
                "trial={trial} min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn outputs_are_closed() {
        let d = paper_example();
        for c in charm(&d, 1).closed {
            assert_eq!(
                d.items_common_to(&c.rows),
                c.items,
                "not closed: {:?}",
                c.items
            );
            assert_eq!(d.rows_supporting(&c.items), c.rows);
        }
    }

    #[test]
    fn property_one_absorbs_duplicates() {
        // items 0 and 1 always co-occur: they must land in one closed set
        let mut b = DatasetBuilder::new(1);
        b.add_row([0, 1, 2], 0);
        b.add_row([0, 1], 0);
        b.add_row([2], 0);
        let d = b.build();
        let r = charm(&d, 1);
        let zero_one: Vec<&ClosedSet> = r
            .closed
            .iter()
            .filter(|c| c.items.contains(0) || c.items.contains(1))
            .collect();
        for c in zero_one {
            assert!(c.items.contains(0) && c.items.contains(1));
        }
        assert!(r.stats.pairs_examined > 0);
    }
}
