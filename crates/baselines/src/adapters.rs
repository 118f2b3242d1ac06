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
//! closed set. Applying FARMER's interestingness filter
//! (`irg_filter`) to those candidates therefore reproduces FARMER's
//! output exactly; tests pin the agreement.
//!
//! A control-triggered stop ends the run with **no** groups — the
//! subsumption and dominance checks are global, so a truncated
//! column-enumeration answer would not be a prefix of anything useful.
//! The returned [`MineStats`] still carries the stop cause and node
//! count.

use crate::Budgeted;
use farmer_core::measures::{self, chi_square, Contingency};
use farmer_core::session::{MineControl, MineObserver, PruneReason, StopCause};
use farmer_core::{
    minelb, ExtraConstraint, MineResult, MineStats, Miner, MiningParams, RuleGroup, SchedStats,
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

/// FARMER's step-7 interestingness filter over candidate rule groups
/// given as `(upper bound, antecedent support set)` pairs.
///
/// Candidates are ordered by generality (fewer items first, ties by
/// itemset order); a candidate survives iff it meets the support,
/// confidence, χ² and extra-measure thresholds and no strictly more
/// general survivor has confidence `>=` its own. Mirrors the filter in
/// `farmer_core::miner` and `column_e` so all engines answer the same
/// question.
fn irg_filter<O: MineObserver + ?Sized>(
    data: &Dataset,
    params: &MiningParams,
    candidates: Vec<(IdList, RowSet)>,
    obs: &mut O,
    stats: &mut MineStats,
) -> Vec<RuleGroup> {
    let n = data.n_rows();
    let m = data.class_count(params.target_class);
    let class_rows = data.class_rows(params.target_class);
    let mut cands: Vec<(IdList, RowSet, usize)> = candidates
        .into_iter()
        .map(|(upper, rows)| {
            let sup_p = rows.intersection_len(&class_rows);
            (upper, rows, sup_p)
        })
        .collect();
    cands.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then(a.0.cmp(&b.0)));

    let mut groups: Vec<RuleGroup> = Vec::new();
    for (upper, rows, sup_p) in cands {
        if upper.is_empty() || sup_p < params.min_sup {
            continue;
        }
        let sup_n = rows.len() - sup_p;
        let conf = sup_p as f64 / (sup_p + sup_n) as f64;
        if conf < params.min_conf {
            continue;
        }
        let t = Contingency::new(sup_p + sup_n, sup_p, n, m);
        if params.min_chi > 0.0 && chi_square(t) < params.min_chi {
            continue;
        }
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
            stats.rejected_not_interesting += 1;
            obs.pruned(PruneReason::NotInteresting);
            continue;
        }
        let lower = if params.lower_bounds {
            minelb::mine_lower_bounds(&upper, &rows, data)
        } else {
            Vec::new()
        };
        obs.group_emitted(sup_p, sup_n);
        groups.push(RuleGroup {
            upper,
            lower,
            support_set: rows,
            sup: sup_p,
            neg_sup: sup_n,
            class: params.target_class,
            n_rows: n,
            n_class: m,
        });
    }
    groups
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
/// candidates.
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
    let groups = irg_filter(data, params, candidates, obs, &mut stats);
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
/// filter itself, so this adapter only repackages the result. Its
/// groups carry the *representative* itemset in `lower`, not MineLB
/// lower bounds.
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
                stats: MineStats {
                    nodes_visited: r.stats.nodes_visited,
                    pruned_tight_support: r.stats.pruned_support,
                    ..MineStats::default()
                },
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
        let d = paper_example();
        for class in [0u32, 1] {
            for (min_sup, min_conf) in [(1, 0.0), (2, 0.0), (1, 0.7), (2, 0.6)] {
                let params = MiningParams::new(class)
                    .min_sup(min_sup)
                    .min_conf(min_conf)
                    .lower_bounds(false);
                let want = canon(&Farmer::new(params.clone()).mine(&d).groups);
                for miner in all_miners(&params) {
                    let got = miner.mine_unobserved(&d);
                    assert_eq!(
                        canon(&got.groups),
                        want,
                        "{} class={class} min_sup={min_sup} min_conf={min_conf}",
                        miner.name()
                    );
                    assert!(got.stats.stop.is_complete(), "{}", miner.name());
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
        }
    }
}
