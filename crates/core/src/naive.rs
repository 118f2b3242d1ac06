//! Brute-force oracle for rule groups and IRGs.
//!
//! This module re-derives everything FARMER computes straight from the
//! definitions of §2, with no pruning and no cleverness: enumerate every
//! row subset, take closures, group by antecedent support set, and apply
//! Definition 2.2 inductively. It is exponential in the number of rows
//! and exists solely so the test suite can check the real miner *exactly*
//! (upper bounds, supports, confidences, interestingness, and lower
//! bounds) on small inputs. [`node_scan`] and [`child_items`] do the same
//! for one node of the search: they read its conditional table from the
//! dataset's rows, not from the item columns the search scans.

use crate::cond::Inspect;
use crate::measures::{self, chi_square, Contingency};
use crate::params::{ExtraConstraint, MiningParams};
use crate::rule::{MineResult, MineStats, RuleGroup, SchedStats};
use crate::session::{
    Heartbeat, MineControl, MineObserver, Miner, NoOpObserver, PruneReason, StopCause,
};
use farmer_dataset::{ClassLabel, Dataset, ItemId, RowId};
use rowset::{IdList, RowSet};
use std::collections::HashMap;
use std::time::Instant;

/// A rule group as found by exhaustive enumeration: the unique upper
/// bound together with its support set and class counts.
#[derive(Clone, Debug)]
pub struct NaiveGroup {
    /// Upper bound antecedent `I(R)`.
    pub upper: IdList,
    /// Antecedent support set `R`.
    pub rows: RowSet,
    /// `|R ∩ R(C)|`.
    pub sup_p: usize,
    /// `|R \ R(C)|`.
    pub sup_n: usize,
}

impl NaiveGroup {
    /// Rule confidence.
    pub fn confidence(&self) -> f64 {
        self.sup_p as f64 / (self.sup_p + self.sup_n) as f64
    }
}

/// Enumerates **all** rule groups with consequent `class` by brute force
/// (all `2^n - 1` row subsets). Panics if the dataset has more than 20
/// rows — this is strictly a test oracle.
pub fn enumerate_rule_groups(data: &Dataset, class: ClassLabel) -> Vec<NaiveGroup> {
    let n = data.n_rows();
    assert!(n <= 20, "naive enumeration is exponential; got {n} rows");
    let class_rows = data.class_rows(class);
    let mut by_support: HashMap<Vec<usize>, NaiveGroup> = HashMap::new();
    for mask in 1u32..(1u32 << n) {
        let rows = RowSet::from_ids(n, (0..n).filter(|&r| mask & (1 << r) != 0));
        let items = data.items_common_to(&rows);
        if items.is_empty() {
            continue;
        }
        let support = data.rows_supporting(&items);
        let key = support.to_vec();
        by_support.entry(key).or_insert_with(|| {
            // the upper bound of the group is the closure I(R(items))
            let upper = data.items_common_to(&support);
            let sup_p = support.intersection_len(&class_rows);
            NaiveGroup {
                sup_n: support.len() - sup_p,
                upper,
                rows: support,
                sup_p,
            }
        });
    }
    let mut groups: Vec<NaiveGroup> = by_support.into_values().collect();
    // deterministic order: by support-set contents
    groups.sort_by_key(|g| g.rows.to_vec());
    groups
}

/// Applies the user constraints and Definition 2.2 to the full set of
/// rule groups, returning the IRGs exactly as FARMER defines them:
/// a group is interesting iff it meets all thresholds and no *accepted*
/// more-general group has confidence ≥ its own.
pub fn mine_naive(data: &Dataset, params: &MiningParams) -> Vec<RuleGroup> {
    mine_naive_session(data, params, &MineControl::new(), &mut NoOpObserver).groups
}

/// [`mine_naive`] under a [`MineControl`], reporting to a
/// [`MineObserver`]. One control tick is spent per enumerated row
/// subset; a halted run filters only the groups enumerated so far
/// (every returned group meets the thresholds, but an undiscovered
/// more-general group may dominate one of them — the same caveat as any
/// truncated run).
pub fn mine_naive_session<O: MineObserver + ?Sized>(
    data: &Dataset,
    params: &MiningParams,
    ctl: &MineControl,
    obs: &mut O,
) -> MineResult {
    let n = data.n_rows();
    assert!(n <= 20, "naive enumeration is exponential; got {n} rows");
    let m = data.class_count(params.target_class);
    let class_rows = data.class_rows(params.target_class);
    let start = Instant::now();
    let mut st = ctl.state();
    let mut stop = StopCause::Completed;

    let mut by_support: HashMap<Vec<usize>, NaiveGroup> = HashMap::new();
    for mask in 1u32..(1u32 << n) {
        obs.node_entered(mask.count_ones() as usize);
        if let Some(cause) = st.tick() {
            stop = cause;
            break;
        }
        if MineControl::heartbeat_due(ctl.heartbeat_every, st.ticks()) {
            obs.heartbeat(&Heartbeat {
                nodes_visited: st.ticks(),
                groups_found: by_support.len(),
                elapsed: start.elapsed(),
            });
        }
        let rows = RowSet::from_ids(n, (0..n).filter(|&r| mask & (1 << r) != 0));
        let items = data.items_common_to(&rows);
        if items.is_empty() {
            continue;
        }
        let support = data.rows_supporting(&items);
        let key = support.to_vec();
        by_support.entry(key).or_insert_with(|| {
            let upper = data.items_common_to(&support);
            let sup_p = support.intersection_len(&class_rows);
            NaiveGroup {
                sup_n: support.len() - sup_p,
                upper,
                rows: support,
                sup_p,
            }
        });
    }
    let mut groups: Vec<NaiveGroup> = by_support.into_values().collect();
    // generality order: smaller antecedents first, so every potential
    // generalization is judged before its specializations
    groups.sort_by_key(|g| (g.upper.len(), g.upper.as_slice().to_vec()));

    let mut stats = MineStats {
        nodes_visited: st.ticks(),
        budget_exhausted: !stop.is_complete(),
        stop,
        ..Default::default()
    };
    let mut accepted: Vec<NaiveGroup> = Vec::new();
    for g in groups {
        if g.sup_p < params.min_sup {
            continue;
        }
        let conf = g.confidence();
        if conf < params.min_conf {
            continue;
        }
        if params.min_chi > 0.0 {
            let chi = chi_square(Contingency::new(g.sup_p + g.sup_n, g.sup_p, n, m));
            if chi < params.min_chi {
                continue;
            }
        }
        let t = Contingency::new(g.sup_p + g.sup_n, g.sup_p, n, m);
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
        let dominated = accepted.iter().any(|a| {
            a.upper.len() < g.upper.len() && a.upper.is_subset(&g.upper) && a.confidence() >= conf
        });
        if dominated {
            stats.rejected_not_interesting += 1;
            obs.pruned(PruneReason::NotInteresting);
        } else {
            obs.group_emitted(g.sup_p, g.sup_n);
            accepted.push(g);
        }
    }

    let groups = accepted
        .into_iter()
        .map(|g| RuleGroup {
            lower: if params.lower_bounds {
                naive_lower_bounds(&g.upper, &g.rows, data)
            } else {
                Vec::new()
            },
            support_set: g.rows.clone(),
            sup: g.sup_p,
            neg_sup: g.sup_n,
            upper: g.upper,
            class: params.target_class,
            n_rows: n,
            n_class: m,
        })
        .collect();
    MineResult {
        groups,
        stats,
        sched: SchedStats::default(),
        n_rows: n,
        n_class: m,
    }
}

/// [`Miner`]-trait adapter over [`mine_naive_session`] — the exhaustive
/// oracle behind the unified interface (tiny datasets only).
#[derive(Clone, Debug)]
pub struct NaiveMiner {
    /// Thresholds and target class.
    pub params: MiningParams,
}

impl Miner for NaiveMiner {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        mine_naive_session(data, &self.params, ctl, obs)
    }
}

/// Brute-force lower bounds: minimal `l ⊆ upper` with
/// `R(l) = support_set`, by subset enumeration over `upper`
/// (≤ 20 items).
pub fn naive_lower_bounds(upper: &IdList, support_set: &RowSet, data: &Dataset) -> Vec<IdList> {
    let items: Vec<u32> = upper.iter().collect();
    let w = items.len();
    assert!(w <= 20, "naive lower bounds are exponential; got {w} items");
    let mut found: Vec<u32> = Vec::new(); // masks of accepted bounds
    let mut masks: Vec<u32> = (1..(1u32 << w)).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        // subset test, not membership: f ⊆ mask iff f & mask == f
        #[allow(clippy::manual_contains)]
        if found.iter().any(|&f| f & mask == f) {
            continue; // a smaller bound is contained in this subset
        }
        let l = IdList::from_iter((0..w).filter(|&p| mask & (1 << p) != 0).map(|p| items[p]));
        if &data.rows_supporting(&l) == support_set {
            found.push(mask);
        }
    }
    found
        .into_iter()
        .map(|mask| IdList::from_iter((0..w).filter(|&p| mask & (1 << p) != 0).map(|p| items[p])))
        .collect()
}

/// The items of `items` that row `r` holds: the child table
/// `TT|X ∪ {r}` ([`BitsetNode::child_into`]) by definition, read from the
/// dataset's rows.
///
/// [`BitsetNode::child_into`]: crate::cond::BitsetNode::child_into
pub fn child_items(data: &Dataset, items: &[ItemId], r: RowId) -> Vec<ItemId> {
    let row = data.row(r);
    items.iter().copied().filter(|&i| row.contains(i)).collect()
}

/// A node scan ([`BitsetNode::inspect_into`]) by definition, read from the
/// dataset's rows rather than its item columns: `z` holds the rows that
/// hold every item of `items` (all rows when `items` is empty), `u_p` and
/// `u_n` the candidates of `e_p` and `e_n` that hold at least one item,
/// and `max_ep_tuple` is the largest `|e_p ∩ R(i)|` over the items.
///
/// [`BitsetNode::inspect_into`]: crate::cond::BitsetNode::inspect_into
pub fn node_scan(data: &Dataset, items: &[ItemId], e_p: &RowSet, e_n: &RowSet) -> Inspect {
    let holds = |r: usize, i: ItemId| data.row(r as RowId).contains(i);
    let mut out = Inspect::new(data.n_rows());
    for r in 0..data.n_rows() {
        if items.iter().all(|&i| holds(r, i)) {
            out.z.insert(r);
        }
        if items.iter().any(|&i| holds(r, i)) {
            if e_p.contains(r) {
                out.u_p.insert(r);
            }
            if e_n.contains(r) {
                out.u_n.insert(r);
            }
        }
    }
    out.max_ep_tuple = items
        .iter()
        .map(|&i| e_p.iter().filter(|&r| holds(r, i)).count())
        .max()
        .unwrap_or(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_dataset::paper_example;

    #[test]
    fn finds_the_aeh_group() {
        let d = paper_example();
        let groups = enumerate_rule_groups(&d, 0);
        let aeh: Vec<u32> = ["a", "e", "h"]
            .iter()
            .map(|n| d.item_by_name(n).unwrap())
            .collect();
        let aeh = IdList::from_iter(aeh);
        let g = groups
            .iter()
            .find(|g| g.upper == aeh)
            .expect("aeh group exists");
        assert_eq!(g.rows.to_vec(), vec![1, 2, 3]);
        assert_eq!(g.sup_p, 2);
        assert_eq!(g.sup_n, 1);
        assert!((g.confidence() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn groups_have_distinct_support_sets_and_closed_uppers() {
        let d = paper_example();
        let groups = enumerate_rule_groups(&d, 0);
        for (i, g) in groups.iter().enumerate() {
            // upper bound is its own closure
            assert_eq!(d.items_common_to(&g.rows), g.upper);
            assert_eq!(d.rows_supporting(&g.upper), g.rows);
            for h in &groups[i + 1..] {
                assert_ne!(g.rows, h.rows, "duplicate support set");
            }
        }
    }

    #[test]
    fn irg_rejects_dominated_groups() {
        let d = paper_example();
        let params = MiningParams::new(0)
            .min_sup(1)
            .min_conf(0.0)
            .lower_bounds(false);
        let irgs = mine_naive(&d, &params);
        // every IRG must not be dominated by a more general IRG
        for g in &irgs {
            for h in &irgs {
                if h.upper.len() < g.upper.len() && h.upper.is_subset(&g.upper) {
                    assert!(
                        h.confidence() < g.confidence(),
                        "{:?} dominated by {:?}",
                        g.upper,
                        h.upper
                    );
                }
            }
        }
        assert!(!irgs.is_empty());
    }

    #[test]
    fn naive_lower_bounds_example_7() {
        let mut b = farmer_dataset::DatasetBuilder::new(1);
        b.add_row_named(&["a", "b", "c", "d", "e"], 0);
        b.add_row_named(&["a", "b", "c", "f"], 0);
        b.add_row_named(&["c", "d", "e", "g"], 0);
        let d = b.build();
        let upper = IdList::from_iter(
            ["a", "b", "c", "d", "e"]
                .iter()
                .map(|n| d.item_by_name(n).unwrap()),
        );
        let mut names: Vec<String> = naive_lower_bounds(&upper, &RowSet::from_ids(3, [0]), &d)
            .into_iter()
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
}
