//! The row-enumeration search of FARMER, top-k and CARPENTER.
//!
//! FARMER (Figure 5's `MineIRGs`), top-k covering groups and CARPENTER
//! (which COBBLER calls for its row-enumeration phases) walk the same
//! tree: a node is a row combination `X` with its table `TT|X`
//! (Lemma 3.3), and every node takes the same steps — scan, strategy
//! 2's back scan, exact counts, strategy 1's compression, the
//! positive-then-negative descent, and emission once the subtree is
//! done. The miners differ only in their bounds and in what they emit,
//! which each supplies as a [`Policy`]; [`Search::visit`] is the one
//! recursive visit. The policy is a generic parameter, statically
//! dispatched like the observer and the tracer, so each miner compiles
//! to its own search with no calls through a vtable.

use crate::cond::{BitsetNode, Inspect, Table};
use crate::rule::MineStats;
use crate::session::{ControlState, Heartbeat, MineControl, MineObserver, PruneReason};
use crate::trace::{self, HistId, TraceSink};
use farmer_dataset::{ItemId, RowId};
use rowset::RowSet;
use std::time::Instant;

/// One recursion frame's worth of buffers: everything a node of the
/// enumeration needs beyond its inputs. Pooled by [`NodeScratch`].
pub(crate) struct Frame<'a> {
    /// The node's own table `TT|X`, built from its parent's
    /// ([`BitsetNode::child_into`]) once the node has passed the loose
    /// bounds.
    pub(crate) node: BitsetNode<'a>,
    /// Buffer for the node's scan results.
    pub(crate) ins: Inspect,
    /// Positive candidates passed to children (post-compression).
    pub(crate) next_e_p: RowSet,
    /// Negative candidates passed to children (post-compression).
    pub(crate) next_e_n: RowSet,
    /// `next_e_p` minus the candidates already descended into; after the
    /// positive sweep it is empty and doubles as the negative children's
    /// (empty) `e_p`.
    pub(crate) remaining_p: RowSet,
    /// `next_e_n` minus the candidates already descended into.
    pub(crate) remaining_n: RowSet,
    /// `counted` for the children; the current child's row is inserted
    /// before descending and removed after, so one buffer serves all.
    pub(crate) counted_next: RowSet,
}

impl Frame<'_> {
    /// Step 5: the children's candidates and `counted` from this frame's
    /// scan of a node entered with `counted`, `e_p` and `e_n`. With
    /// `fold` (pruning strategy 1), rows in every tuple join `counted`
    /// and leave the candidate lists; `u_p ⊆ e_p` and `u_n ⊆ e_n`, so
    /// subtracting `z` is subtracting the folded rows `z ∩ (e_p ∪ e_n)`.
    /// Without it the lists are the scan's `u_p`/`u_n` as they stand.
    #[inline]
    pub(crate) fn step5(&mut self, fold: bool, counted: &RowSet, e_p: &RowSet, e_n: &RowSet) {
        if fold {
            self.ins
                .u_p
                .difference_into(&self.ins.z, &mut self.next_e_p);
            self.ins
                .u_n
                .difference_into(&self.ins.z, &mut self.next_e_n);
            e_p.union_into(e_n, &mut self.counted_next);
            self.counted_next.intersect_with(&self.ins.z);
            self.counted_next.union_with(counted);
        } else {
            self.next_e_p.copy_from(&self.ins.u_p);
            self.next_e_n.copy_from(&self.ins.u_n);
            self.counted_next.copy_from(counted);
        }
    }
}

/// A pool of recursion [`Frame`]s, one arena per worker.
///
/// `acquire` pops a recycled frame (or builds one — this only happens
/// the first time the search reaches a given depth, so after a warm-up
/// descent the steady state performs **zero heap allocations per node**;
/// the allocation-guard test in `crates/core/tests` enforces this).
/// `release` pushes the frame back on unwind, buffers intact, for the
/// next sibling at that depth to reuse.
pub(crate) struct NodeScratch<'a> {
    pool: Vec<Frame<'a>>,
    n_rows: usize,
    in_flight: usize,
    peak: usize,
}

impl<'a> NodeScratch<'a> {
    /// An empty arena for a dataset of `n_rows` rows.
    pub(crate) fn new(n_rows: usize) -> Self {
        NodeScratch {
            pool: Vec::new(),
            n_rows,
            in_flight: 0,
            peak: 0,
        }
    }

    /// Deepest number of simultaneously live frames seen — the arena's
    /// steady-state footprint in frames.
    pub(crate) fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Pops a frame (building a fresh one if the pool is dry, i.e. this
    /// is the deepest the search has been) and builds the entered node's
    /// table into it: `parent`'s child on row `last` (Lemma 3.3), or a
    /// copy of `parent` at the root (`last` is `None`).
    pub(crate) fn acquire(&mut self, parent: &BitsetNode<'a>, last: Option<RowId>) -> Frame<'a> {
        self.in_flight += 1;
        self.peak = self.peak.max(self.in_flight);
        let n = self.n_rows;
        let mut frame = self.pool.pop().unwrap_or_else(|| Frame {
            node: parent.clone_shell(),
            ins: Inspect::new(n),
            next_e_p: RowSet::empty(n),
            next_e_n: RowSet::empty(n),
            remaining_p: RowSet::empty(n),
            remaining_n: RowSet::empty(n),
            counted_next: RowSet::empty(n),
        });
        match last {
            Some(r) => parent.child_into(r, &mut frame.node),
            None => frame.node.clone_from(parent),
        }
        frame
    }

    /// Returns a frame to the pool for reuse by a sibling node.
    pub(crate) fn release(&mut self, frame: Frame<'a>) {
        self.in_flight -= 1;
        self.pool.push(frame);
    }
}

/// What a policy's [`emit`](Policy::emit) made of a node's group.
pub(crate) enum Emit {
    /// The group misses a threshold (or repeats one already kept).
    Skip,
    /// The group joined the result.
    Accept,
    /// The group met the thresholds but was cut for this reason.
    Reject(PruneReason),
}

/// A miner's part of the search: its bounds and its emission. A bound
/// returns the reason it cuts the node, or `None` to go on. The search
/// counts the cut in its [`MineStats`] and reports it to the observer.
pub(crate) trait Policy {
    /// The bound checked before a node's table is built and scanned. It
    /// sees the parent's exact counts, whether the node's row `last` is
    /// positive, and the node's `counted` rows and positive candidates.
    fn loose(
        &self,
        _is_root: bool,
        _last_is_pos: bool,
        _parent_sup_p: usize,
        _parent_sup_n: usize,
        _counted: &RowSet,
        _e_p: &RowSet,
    ) -> Option<PruneReason> {
        None
    }

    /// The bound checked after the scan at a non-root node, from the
    /// tight support bound `us1` (`Us1`) and the node's exact counts.
    fn tight(&self, _us1: usize, _sup_p: usize, _sup_n: usize) -> Option<PruneReason> {
        None
    }

    /// Offered each child row of a depth-1 node before descending into
    /// it; `true` means the child was handed off and the search skips
    /// it (FARMER's parallel split).
    fn split(&mut self, _child: usize) -> bool {
        false
    }

    /// Step 7 at a non-root node whose subtree is done: the group with
    /// upper bound `items`, support set `z` and exact counts.
    fn emit(&mut self, items: &[ItemId], z: &RowSet, sup_p: usize, sup_n: usize) -> Emit;
}

/// One run of the search: the common per-node machinery — control
/// checks, counters, observer and tracer — around a miner's [`Policy`].
pub(crate) struct Search<'a, P, O: ?Sized, T: ?Sized> {
    pub(crate) policy: P,
    /// Positive rows are `0..m`: the data is in `ORD` order (CARPENTER,
    /// which ignores classes, takes every row as positive).
    m: usize,
    pos_mask: RowSet,
    /// Pruning strategy 2, the duplicate back scan.
    pub(crate) strategy2: bool,
    /// Pruning strategy 1, compression.
    pub(crate) strategy1: bool,
    /// Delta-restricted remine: prune subtrees that cannot reach these
    /// rows and emit only groups whose support set touches them, in
    /// `ORD` id space. `None` = unrestricted.
    pub(crate) frontier: Option<&'a RowSet>,
    /// Budget / deadline / stop-flag checks, one tick per node.
    pub(crate) ctl: ControlState<'a>,
    /// Nodes between observer heartbeats (0 = off).
    pub(crate) heartbeat_every: u64,
    start: Instant,
    obs: &'a mut O,
    /// Statically dispatched trace sink (`NoopTracer` = untraced).
    tracer: &'a T,
    /// The trace lane this search records on.
    pub(crate) lane: usize,
    pub(crate) stats: MineStats,
    /// Groups accepted so far, for heartbeats.
    found: usize,
}

impl<'a, P: Policy, O: MineObserver + ?Sized, T: TraceSink + ?Sized> Search<'a, P, O, T> {
    /// A search of `n` rows, the first `m` positive, under `ctl`, with
    /// pruning strategies 1 and 2 on, no frontier, recording on the main
    /// trace lane.
    pub(crate) fn new(
        policy: P,
        n: usize,
        m: usize,
        ctl: &'a MineControl,
        obs: &'a mut O,
        tracer: &'a T,
    ) -> Self {
        Search {
            policy,
            m,
            pos_mask: RowSet::from_ids(n, 0..m),
            strategy2: true,
            strategy1: true,
            frontier: None,
            ctl: ctl.state(),
            heartbeat_every: ctl.heartbeat_every,
            start: Instant::now(),
            obs,
            tracer,
            lane: trace::LANE_MAIN,
            stats: MineStats::default(),
            found: 0,
        }
    }

    /// Searches the whole tree of `table` from its root, inside an
    /// `enumerate` span; returns the frame arena's peak depth.
    pub(crate) fn run(&mut self, table: &Table) -> usize {
        let _enumerate = trace::span(self.tracer, self.lane, trace::SPAN_ENUMERATE);
        let n = table.n_rows();
        let mut scratch = NodeScratch::new(n);
        self.visit(
            &mut scratch,
            &BitsetNode::root(table),
            None,
            &RowSet::empty(n),
            &RowSet::from_ids(n, 0..self.m),
            &RowSet::from_ids(n, self.m..n),
            0,
            0,
            0,
        );
        scratch.peak_depth()
    }

    /// The exact support counts `(sup_p, sup_n)` of a node with closed
    /// support set `z`.
    #[inline]
    pub(crate) fn counts(&self, z: &RowSet) -> (usize, usize) {
        let sup_p = z.intersection_len(&self.pos_mask);
        (sup_p, z.len() - sup_p)
    }

    /// The start of a timed section: a clock read on traced runs only.
    #[inline]
    fn clock(&self) -> Option<u64> {
        self.tracer.enabled().then(|| self.tracer.now_ns())
    }

    /// Records the time since `t0` into `hist` (traced runs only).
    #[inline]
    fn lap(&self, hist: HistId, t0: Option<u64>) {
        if let Some(t0) = t0 {
            let ns = self.tracer.now_ns().saturating_sub(t0);
            self.tracer.duration_ns(self.lane, hist, ns);
        }
    }

    /// Tallies a cut node and reports it to the observer.
    fn cut(&mut self, reason: PruneReason) {
        let s = &mut self.stats;
        *match reason {
            PruneReason::Duplicate => &mut s.pruned_duplicate,
            PruneReason::LooseBound => &mut s.pruned_loose,
            PruneReason::TightSupport => &mut s.pruned_tight_support,
            PruneReason::TightConfidence => &mut s.pruned_tight_confidence,
            PruneReason::ChiBound => &mut s.pruned_chi,
            PruneReason::NotInteresting => &mut s.rejected_not_interesting,
            PruneReason::ConfidenceFloor => &mut s.pruned_floor,
        } += 1;
        self.obs.pruned(reason);
    }

    /// One node of the enumeration tree (Figure 5's `MineIRGs`).
    ///
    /// `last` is the row whose addition created this node and `parent`
    /// the node it was added to; at the root `last` is `None` and
    /// `parent` is the root itself. `counted` is `X` plus every row
    /// folded away by pruning strategy 1 at ancestors;
    /// `parent_sup_p`/`parent_sup_n` are the parent rule's exact support
    /// counts (for the bounds).
    ///
    /// Only nodes that pass the loose bound pay for a frame and a
    /// table: the bound reads only the parent's counts and the node's
    /// candidates, so building the table after it changes no count, tick
    /// or event. In steady state (warm pool) a visit does not
    /// heap-allocate; only a policy's emission does.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn visit<'t>(
        &mut self,
        scratch: &mut NodeScratch<'t>,
        parent: &BitsetNode<'t>,
        last: Option<RowId>,
        counted: &RowSet,
        e_p: &RowSet,
        e_n: &RowSet,
        parent_sup_p: usize,
        parent_sup_n: usize,
        depth: usize,
    ) {
        // Traced runs time the whole (inclusive) visit; the branch is
        // resolved at compile time for `NoopTracer`, leaving the
        // untraced hot path clock-free.
        let t0 = self.clock();
        self.enter(
            scratch,
            parent,
            last,
            counted,
            e_p,
            e_n,
            parent_sup_p,
            parent_sup_n,
            depth,
        );
        self.lap(trace::HIST_NODE_VISIT, t0);
    }

    /// [`visit`](Self::visit) without the timing: the per-node
    /// accounting and the loose bound, then the rest of the node in a
    /// frame borrowed from `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn enter<'t>(
        &mut self,
        scratch: &mut NodeScratch<'t>,
        parent: &BitsetNode<'t>,
        last: Option<RowId>,
        counted: &RowSet,
        e_p: &RowSet,
        e_n: &RowSet,
        parent_sup_p: usize,
        parent_sup_n: usize,
        depth: usize,
    ) {
        if self.stats.budget_exhausted {
            return;
        }
        self.stats.nodes_visited += 1;
        self.obs.node_entered(depth);
        if let Some(cause) = self.ctl.tick() {
            self.stats.budget_exhausted = true;
            self.stats.stop = cause;
            return;
        }
        if MineControl::heartbeat_due(self.heartbeat_every, self.stats.nodes_visited) {
            self.obs.heartbeat(&Heartbeat {
                nodes_visited: self.stats.nodes_visited,
                groups_found: self.found,
                elapsed: self.start.elapsed(),
            });
        }
        if self.tracer.enabled() && self.stats.nodes_visited & trace::NODE_COUNTER_MASK == 0 {
            self.tracer
                .counter(self.lane, trace::COUNTER_NODES, self.stats.nodes_visited);
        }
        let is_root = last.is_none();
        // under ORD, positives are exactly the rows below the class margin
        let last_is_pos = last.is_none_or(|r| (r as usize) < self.m);

        // ---- Loose bounds (step 2): before building and scanning.
        let loose = self.policy.loose(
            is_root,
            last_is_pos,
            parent_sup_p,
            parent_sup_n,
            counted,
            e_p,
        );
        if let Some(reason) = loose {
            self.cut(reason);
            return;
        }

        let mut frame = scratch.acquire(parent, last);
        self.scanned(
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

    /// Steps 3–7 of `MineIRGs`, working entirely inside the borrowed
    /// frame `f`, whose `node` holds this node's table. Early `return`s
    /// land back in [`enter`](Self::enter), which releases the frame to
    /// the pool.
    #[allow(clippy::too_many_arguments)]
    fn scanned<'t>(
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

        // ---- Scan TT|X (step 3).
        let t0 = self.clock();
        f.node.inspect_into(e_p, e_n, &mut f.ins);
        self.lap(trace::HIST_FUSED_SCAN, t0);

        // ---- Delta-restricted frontier: a subtree is worth entering
        // only if some descendant's support set can contain a frontier
        // row. Every row of a descendant's `z` appears in this node's
        // `z ∪ u_p ∪ u_n` (rows leave the candidate sets only by being
        // folded into `z` by compression or by being ordered before the
        // path, and the latter triggers the strategy-2 prune below), so
        // three disjointness tests prove the whole subtree frontier-free.
        // Never at the root: the root's `u` sets are the seed candidates
        // and pruning it would end the run.
        if let Some(fr) = self.frontier {
            if !is_root
                && f.ins.z.is_disjoint(fr)
                && f.ins.u_p.is_disjoint(fr)
                && f.ins.u_n.is_disjoint(fr)
            {
                self.stats.pruned_frontier += 1;
                return;
            }
        }

        // ---- Pruning strategy 2 (step 1 in the paper; our back scan is
        // part of the main scan). A row ordered before this node's deepest
        // row that occurs in every tuple — and was neither enumerated nor
        // compressed — proves every group below was discovered earlier
        // (Lemma 3.6).
        if self.strategy2 && !is_root {
            let last = last.expect("non-root has a last row") as usize;
            // z rows beyond `last` are candidates (current Y) or compressed
            // rows, both excluded by Lemma 3.6; only the back range matters.
            let has_alien_back = f
                .ins
                .z
                .iter()
                .take_while(|&r| r < last)
                .any(|r| !counted.contains(r));
            if has_alien_back {
                self.cut(PruneReason::Duplicate);
                return;
            }
        }

        // Exact support counts of the rule I(X) -> C at this node:
        // z = R(I(X)) under the empty-intersection convention.
        let (sup_p, sup_n) = self.counts(&f.ins.z);

        // ---- Tight bounds (step 4): after scanning.
        if !is_root {
            let us1 = if last_is_pos {
                parent_sup_p + 1 + f.ins.max_ep_tuple
            } else {
                parent_sup_p
            };
            if let Some(reason) = self.policy.tight(us1, sup_p, sup_n) {
                self.cut(reason);
                return;
            }
        }

        // ---- Pruning strategy 1 (step 5). Never at the root: the root
        // emits no rule, so a row contained in every tuple of the full
        // table (possible only in degenerate data) would otherwise have
        // its group silently skipped.
        let fold = self.strategy1 && !is_root;
        if fold {
            self.stats.rows_compressed +=
                (f.ins.z.intersection_len(e_p) + f.ins.z.intersection_len(e_n)) as u64;
        }
        f.step5(fold, counted, e_p, e_n);

        // ---- Descend (step 6): positive candidates first, then negative,
        // in ascending ORD order. `remaining` shrinks as we iterate so each
        // child sees exactly the candidates ordered after it. The child's
        // `counted` is this node's plus the child row alone, so toggling
        // the row around the recursive call avoids a per-child copy (the
        // row is a live candidate, never already in `counted_next`).
        f.remaining_p.copy_from(&f.next_e_p);
        for r in f.next_e_p.iter() {
            if self.stats.budget_exhausted {
                break;
            }
            f.remaining_p.remove(r);
            if depth == 1 && self.policy.split(r) {
                continue;
            }
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
                sup_n,
                depth + 1,
            );
            f.counted_next.remove(r);
        }
        // after the positive sweep `remaining_p` is drained, so it doubles
        // as the negative children's (empty) positive candidate list; when
        // the sweep was cut short the budget check below fires first.
        f.remaining_n.copy_from(&f.next_e_n);
        for r in f.next_e_n.iter() {
            if self.stats.budget_exhausted {
                break;
            }
            f.remaining_n.remove(r);
            if depth == 1 && self.policy.split(r) {
                continue;
            }
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
                sup_n,
                depth + 1,
            );
            f.counted_next.remove(r);
        }

        // ---- Emit (step 7): after the whole subtree, so that every more
        // general group has already been judged (Lemma 3.4). A halted
        // search emits nothing further — not even this node's own (valid)
        // group — so the emitted groups stay an exact prefix of the
        // sequential run's discovery order (partial-result guarantee).
        if is_root || self.stats.budget_exhausted {
            return;
        }
        // frontier-restricted runs report only groups a delta row
        // supports — anything else was already known before the delta
        if let Some(fr) = self.frontier {
            if f.ins.z.is_disjoint(fr) {
                return;
            }
        }
        match self.policy.emit(f.node.items(), &f.ins.z, sup_p, sup_n) {
            Emit::Skip => {}
            Emit::Accept => {
                self.found += 1;
                self.obs.group_emitted(sup_p, sup_n);
            }
            Emit::Reject(reason) => self.cut(reason),
        }
    }
}
