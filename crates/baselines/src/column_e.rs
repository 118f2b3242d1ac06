//! ColumnE — column-enumeration interesting-rule mining, after Bayardo &
//! Agrawal's "Mining the most interesting rules" (KDD 1999).
//!
//! This is the paper's closest competitor: the same *problem* as FARMER
//! (rules `A → C` under minimum support/confidence with an
//! interestingness filter) attacked through the conventional
//! *column* enumeration. The miner walks the set-enumeration tree over
//! items in ascending id order, maintaining tidsets, pruning subtrees by
//! the anti-monotone rule-support bound, grouping discovered rules by
//! antecedent support set (the rule groups), and finally applying the
//! identical interesting-group filter FARMER uses, so that both miners
//! answer exactly the same question and only the enumeration direction
//! differs.
//!
//! On microarray-shaped data the itemset lattice under any useful
//! support threshold is astronomically large — the paper reports runs
//! exceeding a day — so the walk takes a node budget and reports
//! exhaustion instead of hanging (see [`Budgeted`]).

use crate::Budgeted;
use farmer_core::measures::{self, chi_square, Contingency};
use farmer_core::session::{ControlState, MineControl, MineObserver, NoOpObserver, PruneReason};
use farmer_core::{ExtraConstraint, MiningParams, RuleGroup};
use farmer_dataset::Dataset;
use rowset::{IdList, RowSet};
use std::collections::HashMap;

/// Search counters for a ColumnE run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnEStats {
    /// Itemset nodes visited.
    pub nodes_visited: u64,
    /// Subtrees cut by the support bound.
    pub pruned_support: u64,
    /// Distinct rule groups (antecedent support sets) encountered.
    pub groups_found: u64,
}

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
    /// Search counters.
    pub stats: ColumnEStats,
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
    let m = data.class_count(params.target_class);
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
        stats: ColumnEStats::default(),
        by_rows: HashMap::new(),
    };
    let full = RowSet::full(n);
    if ctx.walk(&[], &full, 0).is_err() {
        return Budgeted::BudgetExhausted {
            nodes: ctx.stats.nodes_visited,
        };
    }
    let obs = ctx.obs;

    // assemble rule groups and apply the FARMER interestingness filter
    let mut found: Vec<(IdList, IdList, RowSet, usize)> = ctx
        .by_rows
        .into_iter()
        .map(|(key, rep)| {
            let rows = RowSet::from_ids(n, key.iter().copied());
            let upper = data.items_common_to(&rows);
            let sup_p = rows.intersection_len(&class_rows);
            (upper, rep, rows, sup_p)
        })
        .collect();
    let stats = ColumnEStats {
        groups_found: found.len() as u64,
        ..ctx.stats
    };
    // generality order, as in FARMER's step 7 / the naive oracle
    found.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then(a.0.cmp(&b.0)));

    let mut groups: Vec<RuleGroup> = Vec::new();
    for (upper, rep, rows, sup_p) in found {
        if sup_p < params.min_sup {
            continue;
        }
        let sup_n = rows.len() - sup_p;
        let conf = sup_p as f64 / (sup_p + sup_n) as f64;
        if conf < params.min_conf {
            continue;
        }
        if params.min_chi > 0.0
            && chi_square(Contingency::new(sup_p + sup_n, sup_p, n, m)) < params.min_chi
        {
            continue;
        }
        let t = Contingency::new(sup_p + sup_n, sup_p, n, m);
        let extras_ok = params.extra.iter().all(|c| match *c {
            ExtraConstraint::MinLift(v) => measures::lift(t) >= v,
            ExtraConstraint::MinConviction(v) => measures::conviction(t) >= v,
            ExtraConstraint::MinEntropyGain(v) => measures::entropy_gain(t) >= v,
            ExtraConstraint::MinGiniGain(v) => measures::gini_gain(t) >= v,
            ExtraConstraint::MinCorrelation(v) => measures::correlation(t) >= v,
        });
        if !extras_ok {
            continue;
        }
        let dominated = groups.iter().any(|g| {
            g.upper.len() < upper.len() && g.upper.is_subset(&upper) && g.confidence() >= conf
        });
        if dominated {
            obs.pruned(PruneReason::NotInteresting);
            continue;
        }
        obs.group_emitted(sup_p, sup_n);
        groups.push(RuleGroup {
            upper,
            lower: vec![rep],
            support_set: rows,
            sup: sup_p,
            neg_sup: sup_n,
            class: params.target_class,
            n_rows: n,
            n_class: m,
        });
    }
    Budgeted::Done(ColumnEResult { groups, stats })
}

struct WalkCtx<'a, O: MineObserver + ?Sized> {
    data: &'a Dataset,
    class_rows: &'a RowSet,
    min_sup: usize,
    st: ControlState<'a>,
    obs: &'a mut O,
    frequent: &'a [u32],
    stats: ColumnEStats,
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
                self.stats.pruned_support += 1;
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
