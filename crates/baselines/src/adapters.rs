//! [`Miner`] adapters: every baseline behind the unified session API.
//!
//! Each adapter runs its algorithm under a [`MineControl`], reports
//! observer events, and post-processes the raw output into the same
//! interesting-rule-group answer FARMER gives, so the CLI and benches
//! can dispatch any engine through one `Box<dyn Miner>`.
//!
//! The closed-set miners (CHARM, CLOSET+) and Apriori share one
//! reduction: the closed itemsets of the dataset at *itemset* support
//! `>= min_sup` are a superset of the rule-group upper bounds at *rule*
//! support `>= min_sup` (rule support never exceeds itemset support),
//! and each rule group's antecedent support set appears as exactly one
//! closed set. Applying FARMER's step 7 to those candidates therefore
//! reproduces FARMER's output exactly; tests pin the agreement.
//! `irg_filter`, which ColumnE uses too, applies step 7 from its one
//! home in `farmer_core`: [`Thresholds`], [`generality_order`] and
//! [`keep_interesting`].
//!
//! A control-triggered stop ends the run with **no** groups — the
//! subsumption and dominance checks are global, so a truncated
//! column-enumeration answer would not be a prefix of anything useful.
//! The returned [`MineStats`] still carries the stop cause and node
//! count.

use crate::Budgeted;
use farmer_core::session::{MineControl, MineObserver, StopCause};
use farmer_core::{
    generality_order, keep_interesting, minelb, MineResult, MineStats, Miner, MiningParams,
    RuleGroup, SchedStats, Thresholds,
};
use farmer_dataset::Dataset;
use rowset::{IdList, RowSet};
use std::collections::HashMap;
use std::time::Instant;

/// Attributes an early stop observed through `Budgeted::BudgetExhausted`
/// to the control condition that caused it (the `Budgeted` enum predates
/// [`StopCause`] and only records *that* the run stopped).
fn stop_cause(ctl: &MineControl) -> StopCause {
    if ctl.is_cancelled() {
        StopCause::Cancelled
    } else if ctl.deadline.is_some_and(|d| Instant::now() >= d) {
        StopCause::Deadline
    } else {
        StopCause::Budget
    }
}

/// FARMER's step 7 over candidate rule groups given as `(upper bound,
/// antecedent support set, lower list)`: `farmer_core`'s own
/// [`Thresholds`], [`generality_order`] and [`keep_interesting`], so
/// every engine answers FARMER's question with FARMER's code. Each
/// dominated candidate is counted in `stats` and reported to `obs`.
/// Empty upper bounds, which FARMER never reports, are dropped.
pub(crate) fn irg_filter<O: MineObserver + ?Sized>(
    data: &Dataset,
    params: &MiningParams,
    candidates: Vec<(IdList, RowSet, Vec<IdList>)>,
    obs: &mut O,
    stats: &mut MineStats,
) -> Vec<RuleGroup> {
    let n = data.n_rows();
    let m = data.class_count(params.target_class);
    let class_rows = data.class_rows(params.target_class);
    let thresholds = Thresholds::new(params, n, m);
    let mut cands: Vec<_> = candidates
        .into_iter()
        .filter_map(|(upper, rows, lower)| {
            let sup_p = rows.intersection_len(&class_rows);
            let sup_n = rows.len() - sup_p;
            let passes = !upper.is_empty() && thresholds.accept(sup_p, sup_n).is_some();
            passes.then_some((upper, rows, lower, sup_p, sup_n))
        })
        .collect();
    cands.sort_by(|a, b| generality_order(&a.0, &b.0));
    keep_interesting(cands, |c| (&c.0, c.3, c.4), stats, obs)
        .into_iter()
        .map(|(upper, rows, lower, sup, neg_sup)| RuleGroup {
            upper,
            lower,
            support_set: rows,
            sup,
            neg_sup,
            class: params.target_class,
            n_rows: n,
            n_class: m,
        })
        .collect()
}

/// Builds the [`MineResult`] for a run the control stopped early: empty
/// group list, stop cause attributed via [`stop_cause`].
fn halted(data: &Dataset, params: &MiningParams, ctl: &MineControl, nodes: u64) -> MineResult {
    MineResult {
        groups: Vec::new(),
        stats: MineStats {
            nodes_visited: nodes,
            budget_exhausted: true,
            stop: stop_cause(ctl),
            ..MineStats::default()
        },
        sched: SchedStats::default(),
        n_rows: data.n_rows(),
        n_class: data.class_count(params.target_class),
    }
}

/// Builds the [`MineResult`] for a completed run from closed-set
/// candidates, with MineLB lower bounds when `params` asks for them.
fn completed<O: MineObserver + ?Sized>(
    data: &Dataset,
    params: &MiningParams,
    candidates: Vec<(IdList, RowSet)>,
    nodes: u64,
    obs: &mut O,
) -> MineResult {
    let mut stats = MineStats {
        nodes_visited: nodes,
        ..MineStats::default()
    };
    let cands = candidates
        .into_iter()
        .map(|(u, r)| (u, r, Vec::new()))
        .collect();
    let mut groups = irg_filter(data, params, cands, obs, &mut stats);
    if params.lower_bounds {
        for g in &mut groups {
            g.lower = minelb::mine_lower_bounds(&g.upper, &g.support_set, data);
        }
    }
    MineResult {
        groups,
        stats,
        sched: SchedStats::default(),
        n_rows: data.n_rows(),
        n_class: data.class_count(params.target_class),
    }
}

/// CHARM behind the [`Miner`] interface: closed sets by column
/// enumeration with diffset-free tidsets, then the FARMER filter.
#[derive(Clone, Debug)]
pub struct CharmMiner {
    /// Thresholds and target class for the interestingness filter.
    pub params: MiningParams,
}

impl Miner for CharmMiner {
    fn name(&self) -> &'static str {
        "charm"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        match crate::charm::charm_with(data, self.params.min_sup, ctl, &mut *obs) {
            Budgeted::Done(r) => {
                let cands = r.closed.into_iter().map(|c| (c.items, c.rows)).collect();
                completed(data, &self.params, cands, r.stats.pairs_examined, obs)
            }
            Budgeted::BudgetExhausted { nodes } => halted(data, &self.params, ctl, nodes),
        }
    }
}

/// CLOSET+ behind the [`Miner`] interface: closed sets over conditional
/// FP-trees, then the FARMER filter. CLOSET+ reports supports but not
/// tidsets, so each closed set's rows are recomputed from the dataset.
#[derive(Clone, Debug)]
pub struct ClosetMiner {
    /// Thresholds and target class for the interestingness filter.
    pub params: MiningParams,
}

impl Miner for ClosetMiner {
    fn name(&self) -> &'static str {
        "closet"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        match crate::closet::closet_with(data, self.params.min_sup, ctl, &mut *obs) {
            Budgeted::Done(r) => {
                let cands = r
                    .closed
                    .into_iter()
                    .map(|c| {
                        let rows = data.rows_supporting(&c.items);
                        (c.items, rows)
                    })
                    .collect();
                completed(data, &self.params, cands, r.stats.trees_built, obs)
            }
            Budgeted::BudgetExhausted { nodes } => halted(data, &self.params, ctl, nodes),
        }
    }
}

/// Apriori behind the [`Miner`] interface: levelwise frequent itemsets,
/// deduplicated to closed sets by closure of each support set, then the
/// FARMER filter.
#[derive(Clone, Debug)]
pub struct AprioriMiner {
    /// Thresholds and target class for the interestingness filter.
    pub params: MiningParams,
}

impl Miner for AprioriMiner {
    fn name(&self) -> &'static str {
        "apriori"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        match crate::apriori::apriori_with(data, self.params.min_sup, ctl, &mut *obs) {
            Budgeted::Done(frequent) => {
                let nodes = frequent.len() as u64;
                let mut by_rows: HashMap<Vec<usize>, (IdList, RowSet)> = HashMap::new();
                for f in frequent {
                    let rows = data.rows_supporting(&f.items);
                    by_rows.entry(rows.to_vec()).or_insert_with(|| {
                        let upper = data.items_common_to(&rows);
                        (upper, rows)
                    });
                }
                let cands = by_rows.into_values().collect();
                completed(data, &self.params, cands, nodes, obs)
            }
            Budgeted::BudgetExhausted { nodes } => halted(data, &self.params, ctl, nodes),
        }
    }
}

/// ColumnE behind the [`Miner`] interface. ColumnE applies the FARMER
/// filter itself, so this adapter only repackages the result and its
/// counters. Its groups carry the *representative* itemset in `lower`,
/// not MineLB lower bounds.
#[derive(Clone, Debug)]
pub struct ColumnEMiner {
    /// Full mining parameters (ColumnE honors all of them directly).
    pub params: MiningParams,
}

impl Miner for ColumnEMiner {
    fn name(&self) -> &'static str {
        "column-e"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        match crate::column_e::column_e_with(data, &self.params, ctl, &mut *obs) {
            Budgeted::Done(r) => MineResult {
                groups: r.groups,
                stats: r.stats,
                sched: SchedStats::default(),
                n_rows: data.n_rows(),
                n_class: data.class_count(self.params.target_class),
            },
            Budgeted::BudgetExhausted { nodes } => halted(data, &self.params, ctl, nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{CountingObserver, Farmer, NoOpObserver};
    use farmer_dataset::paper_example;

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

    fn all_miners(params: &MiningParams) -> Vec<Box<dyn Miner>> {
        vec![
            Box::new(CharmMiner {
                params: params.clone(),
            }),
            Box::new(ClosetMiner {
                params: params.clone(),
            }),
            Box::new(AprioriMiner {
                params: params.clone(),
            }),
            Box::new(ColumnEMiner {
                params: params.clone(),
            }),
        ]
    }

    #[test]
    fn adapters_agree_with_farmer_on_paper_example() {
        use farmer_core::ExtraConstraint::*;
        let d = paper_example();
        // lift and conviction raise the effective min_conf (to 0.72 and
        // 0.73 for class 0, 0.48 and 0.6 for class 1); the others are
        // checked at emission only
        let extras = [
            None,
            Some(MinLift(1.2)),
            Some(MinConviction(1.5)),
            Some(MinEntropyGain(0.05)),
            Some(MinGiniGain(0.02)),
            Some(MinCorrelation(0.3)),
        ];
        for class in [0u32, 1] {
            for (min_sup, min_conf, min_chi) in [
                (1, 0.0, 0.0),
                (2, 0.0, 0.0),
                (1, 0.7, 0.0),
                (2, 0.6, 0.0),
                (1, 0.0, 1.0),
                (1, 0.5, 0.5),
            ] {
                for extra in extras {
                    let mut params = MiningParams::new(class)
                        .min_sup(min_sup)
                        .min_conf(min_conf)
                        .min_chi(min_chi)
                        .lower_bounds(false);
                    params.extra.extend(extra);
                    let want = canon(&Farmer::new(params.clone()).mine(&d).groups);
                    for miner in all_miners(&params) {
                        let got = miner.mine_unobserved(&d);
                        assert_eq!(
                            canon(&got.groups),
                            want,
                            "{} class={class} min_sup={min_sup} min_conf={min_conf} \
                             min_chi={min_chi} extra={extra:?}",
                            miner.name()
                        );
                        assert!(got.stats.stop.is_complete(), "{}", miner.name());
                    }
                }
            }
        }
    }

    #[test]
    fn adapters_honor_cancellation() {
        let d = paper_example();
        let params = MiningParams::new(0).min_sup(1).lower_bounds(false);
        let ctl = MineControl::new();
        ctl.cancel();
        for miner in all_miners(&params) {
            let r = miner.mine_with(&d, &ctl, &mut NoOpObserver);
            assert!(r.stats.budget_exhausted, "{}", miner.name());
            assert_eq!(r.stats.stop, StopCause::Cancelled, "{}", miner.name());
            assert!(r.groups.is_empty(), "{}", miner.name());
        }
    }

    #[test]
    fn adapters_honor_tiny_budget() {
        let d = paper_example();
        let params = MiningParams::new(0).min_sup(1).lower_bounds(false);
        let ctl = MineControl::new().with_node_budget(Some(2));
        for miner in all_miners(&params) {
            let r = miner.mine_with(&d, &ctl, &mut NoOpObserver);
            assert!(r.stats.budget_exhausted, "{}", miner.name());
            assert_eq!(r.stats.stop, StopCause::Budget, "{}", miner.name());
        }
    }

    #[test]
    fn adapter_observer_counts_match_emitted_groups() {
        let d = paper_example();
        let params = MiningParams::new(0).min_sup(1).lower_bounds(false);
        for miner in all_miners(&params) {
            let mut obs = CountingObserver::default();
            let r = miner.mine_with(&d, &MineControl::new(), &mut obs);
            assert_eq!(obs.emitted as usize, r.groups.len(), "{}", miner.name());
            assert!(obs.nodes > 0, "{}", miner.name());
            assert!(obs.rejected_not_interesting > 0, "{}", miner.name());
            assert_eq!(
                r.stats.rejected_not_interesting,
                obs.rejected_not_interesting,
                "{}",
                miner.name()
            );
        }
    }
}
