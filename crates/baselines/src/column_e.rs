//! ColumnE — column-enumeration interesting-rule mining, after Bayardo &
//! Agrawal's "Mining the most interesting rules" (KDD 1999).
//!
//! This is the paper's closest competitor: the same *problem* as FARMER
//! (rules `A → C` under minimum support/confidence with an
//! interestingness filter) attacked through the conventional
//! *column* enumeration. The miner walks the set-enumeration tree over
//! items in ascending id order, maintaining tidsets, pruning subtrees by
//! the anti-monotone rule-support bound, grouping discovered rules by
//! antecedent support set (the rule groups), and finally applying
//! FARMER's own step 7 (`farmer_core`'s [`Thresholds`], generality
//! order and dominance filter, through the same wrapper the closed-set
//! adapters use), so that both miners answer exactly the same question
//! and only the enumeration direction differs.
//!
//! [`Thresholds`]: farmer_core::Thresholds
//!
//! On microarray-shaped data the itemset lattice under any useful
//! support threshold is astronomically large — the paper reports runs
//! exceeding a day — so the walk takes a node budget and reports
//! exhaustion instead of hanging (see [`Budgeted`]).

use crate::adapters::irg_filter;
use crate::Budgeted;
use farmer_core::session::{ControlState, MineControl, MineObserver, NoOpObserver, PruneReason};
use farmer_core::{MineStats, MiningParams, RuleGroup};
use farmer_dataset::Dataset;
use rowset::{IdList, RowSet};
use std::collections::HashMap;

/// Result of [`column_e`].
#[derive(Clone, Debug)]
pub struct ColumnEResult {
    /// The interesting rule groups — same semantics as FARMER's output.
    ///
    /// ColumnE proper reports one *representative* rule per group (the
    /// first itemset that reached the group's support set); the
    /// representative is stored in `RuleGroup::lower` as a single entry,
    /// while `upper` holds the closure for comparability with FARMER.
    pub groups: Vec<RuleGroup>,
    /// Search counters: itemset nodes visited, subtrees cut by the
    /// support bound (`pruned_tight_support`) and threshold-passing
    /// groups a more general one dominates
    /// (`rejected_not_interesting`).
    pub stats: MineStats,
}

/// Mines interesting rule groups by column enumeration.
///
/// `node_budget` bounds visited itemset nodes (`None` = unlimited).
pub fn column_e(
    data: &Dataset,
    params: &MiningParams,
    node_budget: Option<u64>,
) -> Budgeted<ColumnEResult> {
    let ctl = MineControl::new().with_node_budget(node_budget);
    column_e_with(data, params, &ctl, &mut NoOpObserver)
}

/// [`column_e`] under a [`MineControl`]. Any control-triggered stop
/// reports [`Budgeted::BudgetExhausted`] because the subsumption
/// filter needs the full group set to be meaningful.
pub fn column_e_with<O: MineObserver + ?Sized>(
    data: &Dataset,
    params: &MiningParams,
    ctl: &MineControl,
    obs: &mut O,
) -> Budgeted<ColumnEResult> {
    let n = data.n_rows();
    let class_rows = data.class_rows(params.target_class);

    // frequent single items under the rule-support bound |R({i}) ∩ C|
    let frequent: Vec<u32> = (0..data.n_items() as u32)
        .filter(|&i| data.item_rows(i).intersection_len(&class_rows) >= params.min_sup)
        .collect();

    let mut ctx = WalkCtx {
        data,
        class_rows: &class_rows,
        min_sup: params.min_sup,
        st: ctl.state(),
        obs,
        frequent: &frequent,
        stats: MineStats::default(),
        by_rows: HashMap::new(),
    };
    let full = RowSet::full(n);
    if ctx.walk(&[], &full, 0).is_err() {
        return Budgeted::BudgetExhausted {
            nodes: ctx.stats.nodes_visited,
        };
    }
    // the rule groups, each with its representative, through FARMER's
    // step 7
    let found = ctx
        .by_rows
        .into_iter()
        .map(|(key, rep)| {
            let rows = RowSet::from_ids(n, key.iter().copied());
            (data.items_common_to(&rows), rows, vec![rep])
        })
        .collect();
    let mut stats = ctx.stats;
    let groups = irg_filter(data, params, found, ctx.obs, &mut stats);
    Budgeted::Done(ColumnEResult { groups, stats })
}

struct WalkCtx<'a, O: MineObserver + ?Sized> {
    data: &'a Dataset,
    class_rows: &'a RowSet,
    min_sup: usize,
    st: ControlState<'a>,
    obs: &'a mut O,
    frequent: &'a [u32],
    stats: MineStats,
    /// antecedent support set → first (representative) itemset reaching it
    by_rows: HashMap<Vec<usize>, IdList>,
}

impl<O: MineObserver + ?Sized> WalkCtx<'_, O> {
    /// Depth-first set enumeration: extend `itemset` (with tidset `rows`)
    /// by every frequent item ≥ `next`.
    fn walk(&mut self, itemset: &[u32], rows: &RowSet, next: usize) -> Result<(), ()> {
        for (k, &i) in self.frequent.iter().enumerate().skip(next) {
            self.stats.nodes_visited += 1;
            self.obs.node_entered(itemset.len() + 1);
            if self.st.tick().is_some() {
                return Err(());
            }
            let child_rows = rows.intersection(self.data.item_rows(i));
            // anti-monotone bound: rule support can only shrink
            if child_rows.intersection_len(self.class_rows) < self.min_sup {
                self.stats.pruned_tight_support += 1;
                self.obs.pruned(PruneReason::TightSupport);
                continue;
            }
            let mut child_items: Vec<u32> = itemset.to_vec();
            child_items.push(i);
            self.by_rows
                .entry(child_rows.to_vec())
                .or_insert_with(|| IdList::from_sorted(child_items.clone()));
            self.walk(&child_items, &child_rows, k + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::Farmer;
    use farmer_dataset::{paper_example, DatasetBuilder};
    use farmer_support::rng::{Rng, SeedableRng, StdRng};

    fn canon(groups: &[RuleGroup]) -> Vec<(Vec<u32>, Vec<usize>, usize, usize)> {
        let mut v: Vec<_> = groups
            .iter()
            .map(|g| {
                (
                    g.upper.as_slice().to_vec(),
                    g.support_set.to_vec(),
                    g.sup,
                    g.neg_sup,
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn agrees_with_farmer_on_paper_example() {
        let d = paper_example();
        for class in [0u32, 1] {
            for (min_sup, min_conf) in [(1, 0.0), (2, 0.0), (1, 0.7), (2, 0.6)] {
                let params = MiningParams::new(class)
                    .min_sup(min_sup)
                    .min_conf(min_conf)
                    .lower_bounds(false);
                let farmer = Farmer::new(params.clone()).mine(&d);
                let cole = column_e(&d, &params, None).expect_done("small data");
                assert_eq!(
                    canon(&cole.groups),
                    canon(&farmer.groups),
                    "class={class} min_sup={min_sup} min_conf={min_conf}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_farmer_on_random_data() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let mut b = DatasetBuilder::new(2);
            for _ in 0..rng.gen_range(4..=8) {
                let items: Vec<u32> = (0..10u32).filter(|_| rng.gen_bool(0.5)).collect();
                b.add_row(items, u32::from(rng.gen_bool(0.5)));
            }
            let d = b.build();
            let params = MiningParams::new(0)
                .min_sup(rng.gen_range(1..=2))
                .min_conf([0.0, 0.5][trial % 2])
                .lower_bounds(false);
            let farmer = Farmer::new(params.clone()).mine(&d);
            let cole = column_e(&d, &params, None).expect_done("small data");
            assert_eq!(canon(&cole.groups), canon(&farmer.groups), "trial={trial}");
        }
    }

    #[test]
    fn representative_is_group_member() {
        let d = paper_example();
        let params = MiningParams::new(0).min_sup(1);
        let r = column_e(&d, &params, None).expect_done("small data");
        for g in &r.groups {
            let rep = &g.lower[0];
            assert!(rep.is_subset(&g.upper), "{rep:?} vs {:?}", g.upper);
            assert_eq!(d.rows_supporting(rep).to_vec(), g.support_set.to_vec());
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let d = paper_example();
        let params = MiningParams::new(0).min_sup(1);
        let r = column_e(&d, &params, Some(10));
        assert!(!r.is_done());
    }

    #[test]
    fn chi_threshold_applied() {
        let d = paper_example();
        let params = MiningParams::new(0).min_sup(1).min_chi(1.0);
        let with_chi = column_e(&d, &params, None).expect_done("small data");
        let farmer = Farmer::new(params).mine(&d);
        assert_eq!(canon(&with_chi.groups), canon(&farmer.groups));
    }
}
