//! Top-k covering rule groups per sample.
//!
//! The FARMER authors' follow-up work (RCBT, SIGMOD 2005) replaces the
//! global `minconf` threshold with a *per-row* criterion: for every row,
//! find the `k` best rule groups covering it. That removes the hardest
//! parameter to choose (a global confidence cutoff that starves some
//! samples of rules while drowning others) and is the natural input for
//! rule-based classifiers.
//!
//! This module implements that problem on top of the same
//! row-enumeration machinery as [`crate::Farmer`], with the dynamic
//! pruning the formulation invites: as the per-row top-k heaps fill up,
//! the worst `k`-th confidence across rows becomes a rising global
//! confidence floor for the remaining search. "Best" means higher
//! confidence, then higher support, then the more general (shorter)
//! upper bound.

use crate::cond::{BitsetNode, Table};
use crate::miner::{Frame, NodeScratch};
use crate::rule::{MineResult, MineStats, RuleGroup, SchedStats};
use crate::session::{
    ControlState, Heartbeat, MineControl, MineObserver, Miner, NoOpObserver, PruneReason, StopCause,
};
use crate::trace::{self, NoopTracer, TraceSink};
use farmer_dataset::{ClassLabel, Dataset, RowId};
use rowset::{IdList, RowSet};
use std::time::Instant;

/// One rule group as ranked by the top-k criterion.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKGroup {
    /// Upper bound antecedent.
    pub upper: IdList,
    /// `R(upper)` in original row ids.
    pub support_set: RowSet,
    /// `|R(upper ∪ C)|`.
    pub sup: usize,
    /// `|R(upper ∪ ¬C)|`.
    pub neg_sup: usize,
}

impl TopKGroup {
    /// Rule confidence.
    pub fn confidence(&self) -> f64 {
        self.sup as f64 / (self.sup + self.neg_sup) as f64
    }

    /// The ranking key: confidence desc, support desc, shorter upper.
    fn rank_key(&self) -> (f64, usize, std::cmp::Reverse<usize>) {
        (
            self.confidence(),
            self.sup,
            std::cmp::Reverse(self.upper.len()),
        )
    }
}

/// Result of [`mine_top_k`]: for every row of the dataset, its best `k`
/// covering rule groups (possibly fewer when the row participates in
/// fewer groups meeting `min_sup`).
#[derive(Clone, Debug)]
pub struct TopKResult {
    /// `per_row[r]` = the top groups covering original row `r`, best
    /// first.
    pub per_row: Vec<Vec<TopKGroup>>,
    /// Enumeration nodes visited.
    pub nodes_visited: u64,
    /// Subtrees cut by the rising confidence floor.
    pub pruned_floor: u64,
    /// `true` iff the search stopped early (budget, deadline, or
    /// cancellation) — per-row lists are then best-effort (still valid
    /// groups, rankings may miss undiscovered better ones).
    pub budget_exhausted: bool,
    /// What ended the run.
    pub stop: StopCause,
}

/// Mines, for each row of `data`, the `k` best rule groups with
/// consequent `class` and support ≥ `min_sup` that cover the row.
///
/// Rows not containing the consequent class still receive groups (any
/// group whose antecedent they match covers them) — the classifier
/// decides what to do with them.
///
/// ```
/// use farmer_core::topk::mine_top_k;
/// let data = farmer_dataset::paper_example();
/// let result = mine_top_k(&data, 0, 2, 1);
/// // every row gets its own best-first list
/// assert_eq!(result.per_row.len(), data.n_rows());
/// for groups in &result.per_row {
///     assert!(groups.len() <= 2);
/// }
/// ```
pub fn mine_top_k(data: &Dataset, class: ClassLabel, k: usize, min_sup: usize) -> TopKResult {
    mine_top_k_session(
        data,
        class,
        k,
        min_sup,
        &MineControl::new(),
        &mut NoOpObserver,
    )
}

/// [`mine_top_k`] under a [`MineControl`] (budget / deadline /
/// cancellation), reporting progress to a [`MineObserver`]. Once the
/// control halts the run, no further groups are offered to the per-row
/// heaps; the lists returned are best-effort and
/// [`TopKResult::stop`] records why the run ended.
pub fn mine_top_k_session<O: MineObserver + ?Sized>(
    data: &Dataset,
    class: ClassLabel,
    k: usize,
    min_sup: usize,
    ctl: &MineControl,
    obs: &mut O,
) -> TopKResult {
    mine_top_k_session_traced(data, class, k, min_sup, ctl, obs, &NoopTracer)
}

/// [`mine_top_k_session`] while recording phase spans and latency
/// histograms into `tracer` (lane 0; the top-k search is sequential).
/// Statically dispatched like the observer: passing [`NoopTracer`]
/// compiles to the untraced search.
pub fn mine_top_k_session_traced<O, T>(
    data: &Dataset,
    class: ClassLabel,
    k: usize,
    min_sup: usize,
    ctl: &MineControl,
    obs: &mut O,
    tracer: &T,
) -> TopKResult
where
    O: MineObserver + ?Sized,
    T: TraceSink + ?Sized,
{
    assert!(k >= 1, "k must be >= 1");
    let (reordered, order, table) = {
        let _transpose = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_TRANSPOSE);
        let (reordered, order) = data.reordered_for_class(class);
        let table = Table::new(&reordered);
        (reordered, order, table)
    };
    let n = reordered.n_rows();
    let m = reordered.class_count(class);
    let mut ctx = TopKCtx {
        k,
        min_sup: min_sup.max(1),
        n,
        m,
        pos_mask: RowSet::from_ids(n, 0..m),
        order: &order,
        heaps: vec![Vec::new(); n],
        ctl: ctl.state(),
        heartbeat_every: ctl.heartbeat_every,
        start: Instant::now(),
        obs,
        tracer,
        stop: StopCause::Completed,
        nodes_visited: 0,
        pruned_floor: 0,
        groups_offered: 0,
    };
    let root = BitsetNode::root(&table);
    let e_p = RowSet::from_ids(n, 0..m);
    let e_n = RowSet::from_ids(n, m..n);
    let mut scratch = NodeScratch::new(n);
    {
        let _enumerate = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_ENUMERATE);
        ctx.visit(
            &mut scratch,
            &root,
            None,
            &RowSet::empty(n),
            &e_p,
            &e_n,
            0,
            0,
        );
    }

    // order original-row-major, best first
    let mut per_row: Vec<Vec<TopKGroup>> = vec![Vec::new(); n];
    for (new_id, heap) in ctx.heaps.into_iter().enumerate() {
        let orig = order[new_id] as usize;
        let mut groups = heap;
        groups.sort_by(|a, b| b.rank_key().partial_cmp(&a.rank_key()).expect("finite"));
        per_row[orig] = groups;
    }
    TopKResult {
        per_row,
        nodes_visited: ctx.nodes_visited,
        pruned_floor: ctx.pruned_floor,
        budget_exhausted: !ctx.stop.is_complete(),
        stop: ctx.stop,
    }
}

struct TopKCtx<'a, O: MineObserver + ?Sized, T: TraceSink + ?Sized> {
    k: usize,
    min_sup: usize,
    n: usize,
    m: usize,
    pos_mask: RowSet,
    order: &'a [RowId],
    /// Per reordered row: its current best groups (≤ k, unsorted).
    heaps: Vec<Vec<TopKGroup>>,
    ctl: ControlState<'a>,
    heartbeat_every: u64,
    start: Instant,
    obs: &'a mut O,
    /// Statically dispatched trace sink ([`NoopTracer`] = untraced).
    tracer: &'a T,
    stop: StopCause,
    nodes_visited: u64,
    pruned_floor: u64,
    groups_offered: usize,
}

impl<O: MineObserver + ?Sized, T: TraceSink + ?Sized> TopKCtx<'_, O, T> {
    /// The global confidence floor: the smallest `k`-th-best confidence
    /// over all rows (0 while any row's heap is unfilled). A subtree
    /// whose confidence upper bound is below the floor cannot improve
    /// any row's top-k.
    fn floor(&self) -> f64 {
        let mut floor = f64::INFINITY;
        for heap in &self.heaps {
            if heap.len() < self.k {
                return 0.0;
            }
            let worst = heap
                .iter()
                .map(|g| g.confidence())
                .fold(f64::INFINITY, f64::min);
            floor = floor.min(worst);
        }
        floor
    }

    fn offer(&mut self, group: &TopKGroup, row: usize) {
        let heap = &mut self.heaps[row];
        if heap.len() < self.k {
            heap.push(group.clone());
            return;
        }
        // replace the worst if the newcomer ranks higher
        let (worst_idx, _) = heap
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.rank_key().partial_cmp(&b.rank_key()).expect("finite"))
            .expect("heap nonempty");
        if group.rank_key() > heap[worst_idx].rank_key() {
            heap[worst_idx] = group.clone();
        }
    }

    /// Split like `Farmer`'s visit: the wrapper runs the cheap per-node
    /// accounting, borrows a [`Frame`] holding the node's table (built
    /// from `parent`; at the root, `parent` is the root itself) from the
    /// scratch arena, and releases it when
    /// [`visit_scanned`](Self::visit_scanned) returns, so steady-state
    /// enumeration reuses pooled buffers instead of allocating per node.
    #[allow(clippy::too_many_arguments)]
    fn visit<'t>(
        &mut self,
        scratch: &mut NodeScratch<'t>,
        parent: &BitsetNode<'t>,
        last: Option<RowId>,
        counted: &RowSet,
        e_p: &RowSet,
        e_n: &RowSet,
        parent_sup_p: usize,
        depth: usize,
    ) {
        // compile-time branch: NoopTracer keeps the hot path clock-free
        if self.tracer.enabled() {
            let t0 = self.tracer.now_ns();
            self.visit_inner(
                scratch,
                parent,
                last,
                counted,
                e_p,
                e_n,
                parent_sup_p,
                depth,
            );
            self.tracer.duration_ns(
                trace::LANE_MAIN,
                trace::HIST_NODE_VISIT,
                self.tracer.now_ns().saturating_sub(t0),
            );
        } else {
            self.visit_inner(
                scratch,
                parent,
                last,
                counted,
                e_p,
                e_n,
                parent_sup_p,
                depth,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_inner<'t>(
        &mut self,
        scratch: &mut NodeScratch<'t>,
        parent: &BitsetNode<'t>,
        last: Option<RowId>,
        counted: &RowSet,
        e_p: &RowSet,
        e_n: &RowSet,
        parent_sup_p: usize,
        depth: usize,
    ) {
        if !self.stop.is_complete() {
            return;
        }
        self.nodes_visited += 1;
        self.obs.node_entered(depth);
        if let Some(cause) = self.ctl.tick() {
            self.stop = cause;
            return;
        }
        if MineControl::heartbeat_due(self.heartbeat_every, self.nodes_visited) {
            self.obs.heartbeat(&Heartbeat {
                nodes_visited: self.nodes_visited,
                groups_found: self.groups_offered,
                elapsed: self.start.elapsed(),
            });
        }
        let mut frame = scratch.acquire(parent, last);
        self.visit_scanned(
            scratch,
            &mut frame,
            last,
            counted,
            e_p,
            e_n,
            parent_sup_p,
            depth,
        );
        scratch.release(frame);
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_scanned<'t>(
        &mut self,
        scratch: &mut NodeScratch<'t>,
        f: &mut Frame<'t>,
        last: Option<RowId>,
        counted: &RowSet,
        e_p: &RowSet,
        e_n: &RowSet,
        parent_sup_p: usize,
        depth: usize,
    ) {
        let is_root = last.is_none();
        let last_is_pos = last.is_none_or(|r| (r as usize) < self.m);

        if self.tracer.enabled() {
            let t0 = self.tracer.now_ns();
            f.node.inspect_into(e_p, e_n, &mut f.ins);
            self.tracer.duration_ns(
                trace::LANE_MAIN,
                trace::HIST_FUSED_SCAN,
                self.tracer.now_ns().saturating_sub(t0),
            );
        } else {
            f.node.inspect_into(e_p, e_n, &mut f.ins);
        }

        // duplicate-subtree pruning, as in FARMER strategy 2
        if !is_root {
            let last = last.expect("non-root") as usize;
            if f.ins
                .z
                .iter()
                .take_while(|&r| r < last)
                .any(|r| !counted.contains(r))
            {
                self.obs.pruned(PruneReason::Duplicate);
                return;
            }
        }

        let sup_p = f.ins.z.intersection_len(&self.pos_mask);
        let sup_n = f.ins.z.len() - sup_p;

        // support bound (Us1) and the rising confidence floor
        if !is_root {
            let us1 = if last_is_pos {
                parent_sup_p + 1 + f.ins.max_ep_tuple
            } else {
                parent_sup_p
            };
            if us1 < self.min_sup {
                self.obs.pruned(PruneReason::TightSupport);
                return;
            }
            let floor = self.floor();
            if floor > 0.0 {
                let uc1 = us1 as f64 / (us1 + sup_n) as f64;
                if uc1 < floor {
                    self.pruned_floor += 1;
                    self.obs.pruned(PruneReason::ConfidenceFloor);
                    return;
                }
            }
        }

        // compression (strategy 1), in frame buffers: u ⊆ e makes
        // `u \ z` equal `u \ (z ∩ e)`, and the counted update is
        // counted ∪ (z ∩ (e_p ∪ e_n))
        if is_root {
            f.next_e_p.copy_from(&f.ins.u_p);
            f.next_e_n.copy_from(&f.ins.u_n);
            f.counted_next.copy_from(counted);
        } else {
            f.ins.u_p.difference_into(&f.ins.z, &mut f.next_e_p);
            f.ins.u_n.difference_into(&f.ins.z, &mut f.next_e_n);
            e_p.union_into(e_n, &mut f.counted_next);
            f.counted_next.intersect_with(&f.ins.z);
            f.counted_next.union_with(counted);
        }

        f.remaining_p.copy_from(&f.next_e_p);
        for r in f.next_e_p.iter() {
            if !self.stop.is_complete() {
                break;
            }
            f.remaining_p.remove(r);
            debug_assert!(!f.counted_next.contains(r));
            f.counted_next.insert(r);
            self.visit(
                scratch,
                &f.node,
                Some(r as RowId),
                &f.counted_next,
                &f.remaining_p,
                &f.next_e_n,
                sup_p,
                depth + 1,
            );
            f.counted_next.remove(r);
        }
        // `remaining_p` is drained by the positive sweep (or the stop
        // check cuts the loop below first), so it serves as the negative
        // children's empty positive candidate list
        f.remaining_n.copy_from(&f.next_e_n);
        for r in f.next_e_n.iter() {
            if !self.stop.is_complete() {
                break;
            }
            f.remaining_n.remove(r);
            debug_assert!(!f.counted_next.contains(r));
            f.counted_next.insert(r);
            self.visit(
                scratch,
                &f.node,
                Some(r as RowId),
                &f.counted_next,
                &f.remaining_p,
                &f.remaining_n,
                sup_p,
                depth + 1,
            );
            f.counted_next.remove(r);
        }

        // offer this node's group to every covered row; a halted search
        // offers nothing further (same no-emission-after-stop contract as
        // the IRG miner)
        if !is_root && self.stop.is_complete() && sup_p >= self.min_sup {
            let mut support_set = RowSet::empty(self.n);
            for r in f.ins.z.iter() {
                support_set.insert(self.order[r] as usize);
            }
            let group = TopKGroup {
                upper: IdList::from_iter(f.node.items().iter().copied()),
                support_set,
                sup: sup_p,
                neg_sup: sup_n,
            };
            self.groups_offered += 1;
            self.obs.group_emitted(sup_p, sup_n);
            for r in f.ins.z.iter() {
                self.offer(&group, r);
            }
        }
    }
}

/// [`Miner`]-trait adapter over [`mine_top_k_session`]: the distinct
/// groups appearing in any per-row top-k list, deduplicated by upper
/// bound and sorted by `(|upper|, upper)`, reported as a [`MineResult`].
#[derive(Clone, Debug)]
pub struct TopKMiner {
    /// The consequent class.
    pub class: ClassLabel,
    /// Per-row list length.
    pub k: usize,
    /// Minimum rule support.
    pub min_sup: usize,
}

impl TopKMiner {
    /// Converts a [`TopKResult`] into the [`MineResult`] shape of the
    /// `Miner` trait (shared by the plain and traced entry points).
    fn package(&self, data: &Dataset, res: TopKResult) -> MineResult {
        let n = data.n_rows();
        let m = data.class_count(self.class);
        let mut by_upper: std::collections::BTreeMap<Vec<u32>, &TopKGroup> =
            std::collections::BTreeMap::new();
        for g in res.per_row.iter().flatten() {
            by_upper.entry(g.upper.as_slice().to_vec()).or_insert(g);
        }
        let mut groups: Vec<&TopKGroup> = by_upper.into_values().collect();
        groups.sort_by(|a, b| {
            a.upper
                .len()
                .cmp(&b.upper.len())
                .then_with(|| a.upper.cmp(&b.upper))
        });
        MineResult {
            groups: groups
                .into_iter()
                .map(|g| RuleGroup {
                    upper: g.upper.clone(),
                    lower: Vec::new(),
                    support_set: g.support_set.clone(),
                    sup: g.sup,
                    neg_sup: g.neg_sup,
                    class: self.class,
                    n_rows: n,
                    n_class: m,
                })
                .collect(),
            stats: MineStats {
                nodes_visited: res.nodes_visited,
                pruned_floor: res.pruned_floor,
                budget_exhausted: res.budget_exhausted,
                stop: res.stop,
                ..Default::default()
            },
            sched: SchedStats {
                steals: 0,
                worker_nodes: vec![res.nodes_visited],
                peak_arena_depth: 0,
            },
            n_rows: n,
            n_class: m,
        }
    }
}

impl Miner for TopKMiner {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        let res = mine_top_k_session(data, self.class, self.k, self.min_sup, ctl, obs);
        self.package(data, res)
    }

    fn mine_traced(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
        tracer: &dyn TraceSink,
    ) -> MineResult {
        let _session = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_SESSION);
        let res =
            mine_top_k_session_traced(data, self.class, self.k, self.min_sup, ctl, obs, tracer);
        self.package(data, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::enumerate_rule_groups;
    use farmer_dataset::{paper_example, DatasetBuilder};

    /// Oracle: per-row top-k from the exhaustive group list. Compares
    /// rank keys only (ties between equal-ranked groups are arbitrary).
    fn naive_top_k(
        data: &Dataset,
        class: ClassLabel,
        k: usize,
        min_sup: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        type Entry = (f64, usize, std::cmp::Reverse<usize>, usize, usize);
        let groups = enumerate_rule_groups(data, class);
        let mut per_row: Vec<Vec<Entry>> = vec![Vec::new(); data.n_rows()];
        for g in &groups {
            if g.sup_p < min_sup {
                continue;
            }
            for r in g.rows.iter() {
                per_row[r].push((
                    g.confidence(),
                    g.sup_p,
                    std::cmp::Reverse(g.upper.len()),
                    g.sup_p,
                    g.sup_n,
                ));
            }
        }
        per_row
            .into_iter()
            .map(|mut v| {
                v.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
                v.truncate(k);
                v.into_iter().map(|(_, _, _, sp, sn)| (sp, sn)).collect()
            })
            .collect()
    }

    fn got_keys(res: &TopKResult) -> Vec<Vec<(usize, usize)>> {
        res.per_row
            .iter()
            .map(|v| v.iter().map(|g| (g.sup, g.neg_sup)).collect())
            .collect()
    }

    #[test]
    fn matches_oracle_on_paper_example() {
        let d = paper_example();
        for class in [0u32, 1] {
            for k in [1usize, 2, 3] {
                for min_sup in [1usize, 2] {
                    let got = mine_top_k(&d, class, k, min_sup);
                    let want = naive_top_k(&d, class, k, min_sup);
                    // compare (sup, neg_sup) multisets row by row — rank
                    // keys are derived from them
                    let mut g = got_keys(&got);
                    let mut w = want;
                    for (a, b) in g.iter_mut().zip(w.iter_mut()) {
                        a.sort_unstable();
                        b.sort_unstable();
                    }
                    assert_eq!(g, w, "class={class} k={k} min_sup={min_sup}");
                }
            }
        }
    }

    #[test]
    fn groups_cover_their_rows() {
        let d = paper_example();
        let res = mine_top_k(&d, 0, 2, 1);
        for (r, groups) in res.per_row.iter().enumerate() {
            for g in groups {
                assert!(
                    g.support_set.contains(r),
                    "row {r} not covered by {:?}",
                    g.upper
                );
                assert_eq!(d.rows_supporting(&g.upper), g.support_set);
            }
        }
    }

    #[test]
    fn results_sorted_best_first() {
        let d = paper_example();
        let res = mine_top_k(&d, 0, 3, 1);
        for groups in &res.per_row {
            for w in groups.windows(2) {
                assert!(w[0].rank_key() >= w[1].rank_key());
            }
        }
    }

    #[test]
    fn floor_pruning_engages() {
        // bigger dataset so heaps fill and the floor rises
        let mut b = DatasetBuilder::new(2);
        for i in 0..8u32 {
            b.add_row([0, 1, i + 2], u32::from(i >= 4));
        }
        let d = b.build();
        let res = mine_top_k(&d, 0, 1, 1);
        assert!(res.nodes_visited > 0);
        // every row has at least one covering group: items 0,1 cover all
        assert!(res.per_row.iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn k_larger_than_group_count() {
        let mut b = DatasetBuilder::new(2);
        b.add_row([0], 0);
        b.add_row([1], 1);
        let d = b.build();
        let res = mine_top_k(&d, 0, 10, 1);
        assert_eq!(res.per_row[0].len(), 1);
        // row 1's only group {1} has sup_p = 0 < min_sup -> no groups
        assert!(res.per_row[1].is_empty());
    }
}
