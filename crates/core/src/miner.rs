//! The FARMER search: depth-first row enumeration with pruning.

use crate::cond::{BitsetNode, Inspect, Table};
use crate::generality::GeneralityIndex;
use crate::measures::{self, chi_square, chi_square_upper_bound, convex_upper_bound, Contingency};
use crate::minelb::mine_lower_bounds;
use crate::params::{ExtraConstraint, MiningParams, PruningConfig};
use crate::rule::{MineResult, MineStats, RuleGroup, SchedStats};
use crate::session::{
    ControlState, Heartbeat, MineControl, MineObserver, Miner, NoOpObserver, PruneReason,
    SharedBudget,
};
use crate::trace::{self, NoopTracer, TraceSink};
use farmer_dataset::{Dataset, RowId};
use farmer_support::thread::WorkDeque;
use rowset::{IdList, RowSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// A pool of recursion [`Frame`]s, one arena per worker.
///
/// `acquire` pops a recycled frame (or builds one — this only happens
/// the first time the search reaches a given depth, so after a warm-up
/// descent the steady state performs **zero heap allocations per node**;
/// the allocation-guard test in `crates/core/tests` enforces this).
/// `release` pushes the frame back on unwind, buffers intact, for the
/// next sibling at that depth to reuse.
pub struct NodeScratch<'a> {
    pool: Vec<Frame<'a>>,
    n_rows: usize,
    in_flight: usize,
    peak: usize,
}

impl<'a> NodeScratch<'a> {
    /// An empty arena for a dataset of `n_rows` rows.
    pub fn new(n_rows: usize) -> Self {
        NodeScratch {
            pool: Vec::new(),
            n_rows,
            in_flight: 0,
            peak: 0,
        }
    }

    /// Deepest number of simultaneously live frames seen — the arena's
    /// steady-state footprint in frames.
    pub fn peak_depth(&self) -> usize {
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

/// The FARMER miner. Configure with [`MiningParams`] (thresholds) and
/// optionally [`PruningConfig`], then call [`mine`](Farmer::mine).
///
/// ```
/// use farmer_core::{Farmer, MiningParams};
/// let params = MiningParams::new(0).min_sup(2).min_conf(0.8);
/// let result = Farmer::new(params).mine(&farmer_dataset::paper_example());
/// assert!(result.groups.iter().all(|g| g.sup >= 2 && g.confidence() >= 0.8));
/// ```
pub struct Farmer {
    params: MiningParams,
    pruning: PruningConfig,
    threads: usize,
    harvest: bool,
    frontier: Option<RowSet>,
}

impl Farmer {
    /// A miner with default pruning (all strategies).
    pub fn new(params: MiningParams) -> Self {
        Farmer {
            params,
            pruning: PruningConfig::default(),
            threads: 1,
            harvest: false,
            frontier: None,
        }
    }

    /// Switches the search into *harvest mode*: every closed group
    /// passing the support/confidence/χ² thresholds is returned, with
    /// the step-7 interestingness comparison skipped entirely (not
    /// merely deferred to the parallel merge). The incremental remine
    /// engine needs this because interestingness is a *global* property
    /// — a group untouched by a delta can become interesting when a
    /// delta kills its dominator — so the pipeline caches the full
    /// threshold-passing set and re-runs the comparison itself at
    /// publish time.
    pub fn with_harvest(mut self, on: bool) -> Self {
        self.harvest = on;
        self
    }

    /// Restricts the search to the *delta frontier* `frontier`, a set of
    /// row ids in the **original** (un-reordered) id space of the
    /// dataset handed to [`mine`](Farmer::mine):
    ///
    /// * a non-root node is pruned when its closed support set `z` *and*
    ///   both candidate-occurrence sets `u_p`/`u_n` are disjoint from
    ///   the frontier — no descendant's support set can ever reach a
    ///   frontier row, because a row of any descendant's `z` is in
    ///   `z ∪ u_p ∪ u_n` at every ancestor (rows only leave the
    ///   candidate sets by being folded into `z` or ordered before the
    ///   path, and back-ordered rows trigger the strategy-2 prune);
    /// * a group is emitted only when `z` intersects the frontier;
    /// * the search runs on the dataset projected onto the items some
    ///   frontier row holds ([`Dataset::projected`]), which is exact
    ///   because a closed upper bound whose support holds a frontier row
    ///   is a subset of that row.
    ///
    /// Together these make the run return exactly the threshold-passing
    /// closed groups whose support set touches a frontier row — the
    /// groups an append-only delta can have created or changed.
    pub fn with_frontier(mut self, frontier: RowSet) -> Self {
        self.frontier = Some(frontier);
        self
    }

    /// Overrides the pruning strategy switchboard (for ablations).
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = pruning;
        self
    }

    /// Mines the depth-1 subtrees of the row-enumeration tree on
    /// `threads` worker threads (1 = the sequential algorithm).
    ///
    /// The subtrees are independent: pruning strategies 1–3 depend only
    /// on a node's own path, so each worker claims root candidates from
    /// a shared work-stealing queue and searches them with the full
    /// machinery, and the interestingness comparison of step 7 — the
    /// only globally ordered step — runs as a definition-equivalent
    /// post-pass over the merged groups; the accepted groups' lower
    /// bounds (MineLB) are then computed on `threads` threads as well.
    /// Results are identical to the
    /// sequential run (enforced by tests). A node budget is drawn from
    /// one shared pool, so a budgeted run expands exactly `budget` nodes
    /// in total regardless of thread count (which nodes depends on the
    /// interleaving; see `run_parallel`).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Mines all interesting rule groups of `data` for the configured
    /// target class.
    ///
    /// Row ids in the returned groups refer to `data`'s original row
    /// order regardless of the internal `ORD` permutation.
    ///
    /// Equivalent to [`mine_session`](Self::mine_session) with an
    /// unconstrained [`MineControl`] and a [`NoOpObserver`].
    pub fn mine(&self, data: &Dataset) -> MineResult {
        self.mine_session(data, &MineControl::new(), &mut NoOpObserver)
    }

    /// Mines under a [`MineControl`] (budget / deadline / cancellation),
    /// reporting progress to a [`MineObserver`].
    ///
    /// The observer is statically dispatched: with [`NoOpObserver`] this
    /// monomorphizes to the uninstrumented search. If the control stops
    /// the run early, the returned groups are exactly the prefix of the
    /// sequential run's discovery order accepted before the halting node
    /// — every group valid, none added on the unwind — and
    /// `stats.budget_exhausted` / `stats.stop` record the truncation.
    ///
    /// ```
    /// use farmer_core::{CountingObserver, Farmer, MineControl, MiningParams, StopCause};
    /// use std::time::Duration;
    ///
    /// let data = farmer_dataset::paper_example();
    /// let ctl = MineControl::new().with_timeout(Duration::from_secs(10));
    /// let handle = ctl.stop_handle(); // could cancel from another thread
    /// let mut obs = CountingObserver::default();
    ///
    /// let result = Farmer::new(MiningParams::new(0)).mine_session(&data, &ctl, &mut obs);
    ///
    /// assert_eq!(result.stats.stop, StopCause::Completed);
    /// assert_eq!(obs.nodes, result.stats.nodes_visited);
    /// assert_eq!(obs.emitted as usize, result.len());
    /// assert!(!handle.is_stopped());
    /// ```
    pub fn mine_session<O: MineObserver + ?Sized>(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut O,
    ) -> MineResult {
        self.mine_session_traced(data, ctl, obs, &NoopTracer)
    }

    /// [`mine_session`](Self::mine_session) while recording phase
    /// spans, steal instants, and latency histograms into `tracer`.
    ///
    /// Like the observer, the tracer is statically dispatched: with
    /// [`NoopTracer`] (what `mine_session` passes) every instrumentation
    /// site monomorphizes away and the search compiles to the exact
    /// untraced code. The alloc-guard test pins the zero-allocation
    /// half of that; the time half is only watched by perfbench's
    /// parent-vs-change bound on the untraced `mine_dense` mine time
    /// (`op_ms`, a 25% median regression). Sequential runs record on
    /// lane 0; parallel runs give worker `w` its own lane `w + 1` (its
    /// own track in the Chrome export).
    pub fn mine_session_traced<O, T>(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut O,
        tracer: &T,
    ) -> MineResult
    where
        O: MineObserver + ?Sized,
        T: TraceSink + ?Sized,
    {
        // A frontier run mines the dataset projected onto the items its
        // frontier rows hold. That is exact: the run reports only groups
        // whose support holds a frontier row, and a closed upper bound is
        // a subset of every row in its support. MineLB is unchanged too,
        // since its blockers are rows cut down to the upper bound.
        let projected;
        let data = match &self.frontier {
            Some(f) => {
                assert_eq!(
                    f.capacity(),
                    data.n_rows(),
                    "frontier capacity must match the dataset row count"
                );
                let mut keep = RowSet::empty(data.n_items());
                for r in f.iter() {
                    for i in data.row(r as RowId).iter() {
                        keep.insert(i as usize);
                    }
                }
                projected = data.projected(&keep);
                &projected
            }
            None => data,
        };
        let (reordered, order, table) = {
            let _transpose = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_TRANSPOSE);
            let (reordered, order) = data.reordered_for_class(self.params.target_class);
            let table = Table::new(&reordered);
            (reordered, order, table)
        };
        // the frontier arrives in original row ids; the search runs in
        // ORD space, so map it through the permutation once
        let frontier = self.frontier.as_ref().map(|f| {
            let mut fr = RowSet::empty(data.n_rows());
            for (new, &old) in order.iter().enumerate() {
                if f.contains(old as usize) {
                    fr.insert(new);
                }
            }
            fr
        });
        let frontier = frontier.as_ref();
        if self.threads > 1 {
            self.run_parallel(&reordered, &table, &order, frontier, ctl, obs, tracer)
        } else {
            self.run(&reordered, &table, &order, frontier, ctl, obs, tracer)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run<O, T>(
        &self,
        reordered: &Dataset,
        table: &Table,
        order: &[RowId],
        frontier: Option<&RowSet>,
        ctl: &MineControl,
        obs: &mut O,
        tracer: &T,
    ) -> MineResult
    where
        O: MineObserver + ?Sized,
        T: TraceSink + ?Sized,
    {
        let n = reordered.n_rows();
        let m = reordered.class_count(self.params.target_class);
        let eff_min_conf = self.effective_min_conf(n, m);
        let mut ctx = Ctx {
            params: &self.params,
            pruning: &self.pruning,
            n,
            m,
            eff_min_conf,
            pos_mask: RowSet::from_ids(n, 0..m),
            ctl: ctl.state(),
            heartbeat_every: ctl.heartbeat_every,
            start: Instant::now(),
            obs,
            tracer,
            lane: trace::LANE_MAIN,
            stats: MineStats::default(),
            irgs: Vec::new(),
            accepted: GeneralityIndex::new(),
            defer_interesting: self.harvest,
            frontier,
            split: None,
            current_root: 0,
        };
        let e_p = RowSet::from_ids(n, 0..m);
        let e_n = RowSet::from_ids(n, m..n);
        let mut scratch = NodeScratch::new(n);
        {
            let _enumerate = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_ENUMERATE);
            ctx.visit(
                &mut scratch,
                &BitsetNode::root(table),
                None,
                &RowSet::empty(n),
                &e_p,
                &e_n,
                0,
                0,
                0,
            );
        }
        let irgs = ctx.irgs;
        let stats = ctx.stats;
        let sched = SchedStats {
            steals: 0,
            worker_nodes: vec![stats.nodes_visited],
            peak_arena_depth: scratch.peak_depth(),
        };
        self.package(irgs, stats, sched, reordered, order, n, m, tracer)
    }

    /// Parallel search: the root is built and scanned **once** (it
    /// borrows the mine's [`Table`], so the root is `Sync` and shared
    /// by reference), and the depth-1 subtrees are
    /// seeded round-robin into per-worker [`WorkDeque`]s — the owner
    /// works its own deque LIFO while dry workers steal FIFO from the
    /// others, so a worker stuck in a heavy subtree sheds its queued
    /// roots to the rest. When every deque runs dry and some subtree is
    /// still grinding, its worker notices the `hungry` count and
    /// **splits**: depth-1 nodes push their not-yet-descended children
    /// as packed `(root, child)` tasks instead of recursing, and the
    /// claimant replays the child's exact recursion state from the
    /// shared root scan — the visited-node multiset is identical to the
    /// unsplit run, so [`MineStats`] stay deterministic.
    /// Threshold-passing groups are merged and the interestingness
    /// filter runs as a final pass (equivalent to step 7 by Lemma 3.4);
    /// for complete runs the merged output and [`MineStats`] are
    /// deterministic regardless of scheduling. The workers run
    /// uninstrumented (their `MineStats`
    /// already tally everything); after the join, `obs` receives each
    /// worker's counters via [`MineObserver::worker_finished`] in
    /// worker-index order, and the sequential merge pass fires the
    /// `group_emitted` / `pruned(NotInteresting)` events — a
    /// deterministic event sequence regardless of thread scheduling.
    ///
    /// All workers share the control's stop flag and deadline, and draw
    /// nodes from one [`SharedBudget`] pool, so a budgeted run expands
    /// exactly `budget` nodes in total whatever the thread count —
    /// matching the sequential truncation point. *Which* nodes those are
    /// depends on how the stealing interleaves, so a truncated parallel
    /// run's group set may vary between runs (each is still a valid
    /// partial result: every group real, none added on the unwind);
    /// complete runs are unaffected.
    #[allow(clippy::too_many_arguments)]
    fn run_parallel<O, T>(
        &self,
        reordered: &Dataset,
        table: &Table,
        order: &[RowId],
        frontier: Option<&RowSet>,
        ctl: &MineControl,
        obs: &mut O,
        tracer: &T,
    ) -> MineResult
    where
        O: MineObserver + ?Sized,
        T: TraceSink + ?Sized,
    {
        let root = &BitsetNode::root(table);
        let n = reordered.n_rows();
        let m = reordered.class_count(self.params.target_class);
        let eff_min_conf = self.effective_min_conf(n, m);
        let threads = self.threads;
        let shared_budget = ctl.node_budget.map(SharedBudget::new);
        let budget = shared_budget.as_ref();

        // replicate the sequential root step once (no compression at the
        // root, exact candidates), then queue the depth-1 subtrees
        let e_p = RowSet::from_ids(n, 0..m);
        let e_n = RowSet::from_ids(n, m..n);
        let ins = root.inspect(&e_p, &e_n);
        let pos_mask = RowSet::from_ids(n, 0..m);
        let sup_p0 = ins.z.intersection_len(&pos_mask);
        let sup_n0 = ins.z.len() - sup_p0;
        // candidates in sequential order: positives then negatives
        let cands: Vec<usize> = ins.u_p.iter().chain(ins.u_n.iter()).collect();
        let n_pos = ins.u_p.len();

        // Per-worker deques, seeded round-robin before any worker runs
        // (so the pre-spawn pushes need no synchronization). Seeds go in
        // reversed so the owner's LIFO pops claim its roots in ascending
        // (sequential) order; split pushes later ride the same deques.
        // Capacity covers the worst seed share plus a split burst —
        // overflowing pushes are simply run inline by the splitter.
        let deque_cap = (cands.len() / threads.max(1) + 2)
            .next_power_of_two()
            .max(256);
        let deques: Vec<WorkDeque> = (0..threads).map(|_| WorkDeque::new(deque_cap)).collect();
        for (w, dq) in deques.iter().enumerate() {
            let seeds: Vec<usize> = (w..cands.len()).step_by(threads).collect();
            for &idx in seeds.iter().rev() {
                assert!(dq.push(idx as u64), "deque sized to fit its seed share");
            }
        }
        // Tasks seeded or split but not yet executed. A split increments
        // *before* pushing and the claimant decrements only *after* the
        // subtree returns, so the count can't touch zero while any task
        // is pending — that makes `in_flight == 0` a safe termination
        // signal for starving workers. `halt` covers the other exit:
        // budget/deadline/cancel stops a worker with tasks still queued.
        let in_flight = AtomicUsize::new(cands.len());
        let hungry = AtomicUsize::new(0);
        let halt = AtomicBool::new(false);

        type WorkerOut = (Vec<Pending>, MineStats, u64, usize);
        let results: Vec<WorkerOut> = farmer_support::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (ins, cands, deques) = (&ins, &cands, &deques);
                    let (in_flight, hungry, halt) = (&in_flight, &hungry, &halt);
                    scope.spawn(move || {
                        let lane = trace::worker_lane(w);
                        let _enumerate = trace::span(tracer, lane, trace::SPAN_ENUMERATE);
                        let mut noop = NoOpObserver;
                        let mut ctx = Ctx {
                            params: &self.params,
                            pruning: &self.pruning,
                            n,
                            m,
                            eff_min_conf,
                            pos_mask: RowSet::from_ids(n, 0..m),
                            ctl: ctl.state_with_shared(budget),
                            heartbeat_every: 0,
                            start: Instant::now(),
                            obs: &mut noop,
                            tracer,
                            lane,
                            stats: MineStats::default(),
                            irgs: Vec::new(),
                            accepted: GeneralityIndex::new(),
                            defer_interesting: true,
                            frontier,
                            split: Some(SplitCtx {
                                deque: &deques[w],
                                hungry,
                                in_flight,
                            }),
                            current_root: 0,
                        };
                        ctx.stats.nodes_visited += 1; // the shared root
                        let mut scratch = NodeScratch::new(n);
                        // depth-1 task buffers
                        let mut counted = RowSet::empty(n);
                        let mut rem_p = RowSet::empty(n);
                        let mut rem_n = RowSet::empty(n);
                        // split-task replay buffers: the depth-1 node
                        // and its scan
                        let mut node1 = root.clone_shell();
                        let mut ins1 = Inspect::new(n);
                        let mut task_e_p = RowSet::empty(n);
                        let mut task_e_n = RowSet::empty(n);
                        let mut steals = 0u64;
                        // FIFO-steal the next victim round-robin from w
                        let try_steal = |steals: &mut u64| -> Option<u64> {
                            for off in 1..threads {
                                if let Some(t) = deques[(w + off) % threads].steal() {
                                    *steals += 1;
                                    if tracer.enabled() {
                                        tracer.instant(lane, trace::SPAN_STEAL);
                                    }
                                    return Some(t);
                                }
                            }
                            None
                        };
                        loop {
                            if ctx.stats.budget_exhausted {
                                // release anyone starving on in_flight:
                                // queued tasks will never run
                                halt.store(true, Ordering::Release);
                                break;
                            }
                            let task = match deques[w].pop().or_else(|| try_steal(&mut steals)) {
                                Some(t) => t,
                                None => {
                                    // every deque is dry: advertise the
                                    // starvation (so busy workers start
                                    // splitting) and wait for a split
                                    // task, run-out, or halt
                                    hungry.fetch_add(1, Ordering::SeqCst);
                                    let mut got = None;
                                    let mut spins = 0u32;
                                    while !halt.load(Ordering::Acquire)
                                        && in_flight.load(Ordering::SeqCst) > 0
                                    {
                                        got = try_steal(&mut steals);
                                        if got.is_some() {
                                            break;
                                        }
                                        // yield first (cheap wake-up on
                                        // real cores), then back off to
                                        // short sleeps: when workers
                                        // outnumber cores a pure yield
                                        // loop steals timeslices from
                                        // the thread doing real work
                                        spins += 1;
                                        if spins < 64 {
                                            std::thread::yield_now();
                                        } else {
                                            std::thread::sleep(std::time::Duration::from_micros(
                                                50,
                                            ));
                                        }
                                    }
                                    hungry.fetch_sub(1, Ordering::SeqCst);
                                    match got {
                                        Some(t) => t,
                                        None => break,
                                    }
                                }
                            };
                            let idx = (task & u64::from(u32::MAX)) as usize;
                            let r = cands[idx];
                            match (task >> 32) as u32 {
                                0 => {
                                    // depth-1 root task: exactly the
                                    // sequential root's descend step
                                    ctx.current_root = idx as u32;
                                    counted.clear();
                                    counted.insert(r);
                                    if idx < n_pos {
                                        // positive subtree: candidates after r
                                        rem_p.copy_from(&ins.u_p);
                                        rem_p.clear_through(r);
                                        ctx.visit(
                                            &mut scratch,
                                            root,
                                            Some(r as RowId),
                                            &counted,
                                            &rem_p,
                                            &ins.u_n,
                                            sup_p0,
                                            sup_n0,
                                            1,
                                        );
                                    } else {
                                        // negative subtree: no positive candidates
                                        rem_p.clear();
                                        rem_n.copy_from(&ins.u_n);
                                        rem_n.clear_through(r);
                                        ctx.visit(
                                            &mut scratch,
                                            root,
                                            Some(r as RowId),
                                            &counted,
                                            &rem_p,
                                            &rem_n,
                                            sup_p0,
                                            sup_n0,
                                            1,
                                        );
                                    }
                                }
                                c_plus_1 => {
                                    // split task: replay the depth-1 node
                                    // (r)'s state from the shared root scan,
                                    // then run its child c's subtree. The
                                    // replay is pure arithmetic — no tick, no
                                    // node count — because the depth-1 node
                                    // was already visited by the splitter.
                                    let c = (c_plus_1 - 1) as usize;
                                    root.child_into(r as RowId, &mut node1);
                                    if idx < n_pos {
                                        task_e_p.copy_from(&ins.u_p);
                                        task_e_p.clear_through(r);
                                        task_e_n.copy_from(&ins.u_n);
                                    } else {
                                        task_e_p.clear();
                                        task_e_n.copy_from(&ins.u_n);
                                        task_e_n.clear_through(r);
                                    }
                                    node1.inspect_into(&task_e_p, &task_e_n, &mut ins1);
                                    let sup_p1 = ins1.z.intersection_len(&ctx.pos_mask);
                                    let sup_n1 = ins1.z.len() - sup_p1;
                                    counted.clear();
                                    counted.insert(r);
                                    if self.pruning.strategy1_compression {
                                        // mirror visit_scanned's step 5
                                        ins1.u_p.difference_into(&ins1.z, &mut rem_p);
                                        ins1.u_n.difference_into(&ins1.z, &mut rem_n);
                                        task_e_p.union_with(&task_e_n);
                                        task_e_p.intersect_with(&ins1.z);
                                        counted.union_with(&task_e_p);
                                    } else {
                                        rem_p.copy_from(&ins1.u_p);
                                        rem_n.copy_from(&ins1.u_n);
                                    }
                                    debug_assert!(!counted.contains(c));
                                    counted.insert(c);
                                    if c < m {
                                        // positive child: later positives
                                        // plus the full negative list
                                        rem_p.clear_through(c);
                                    } else {
                                        // negative child: positives drained,
                                        // later negatives remain
                                        rem_p.clear();
                                        rem_n.clear_through(c);
                                    }
                                    ctx.visit(
                                        &mut scratch,
                                        &node1,
                                        Some(c as RowId),
                                        &counted,
                                        &rem_p,
                                        &rem_n,
                                        sup_p1,
                                        sup_n1,
                                        2,
                                    );
                                }
                            }
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        (ctx.irgs, ctx.stats, steals, scratch.peak_depth())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mining worker panicked"))
                .collect()
        });

        // deterministic observer delivery: per-worker tallies in
        // worker-index order, before the merge-phase events below
        for (worker, (_, s, _, _)) in results.iter().enumerate() {
            obs.worker_finished(worker, s);
        }

        // merge: combine stats, then dedupe by upper bound
        let _merge = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_MERGE);
        let mut stats = MineStats::default();
        let mut sched = SchedStats::default();
        let mut pendings: Vec<Pending> = Vec::new();
        for (worker_pendings, s, steals, peak) in results {
            stats.nodes_visited += s.nodes_visited;
            stats.pruned_duplicate += s.pruned_duplicate;
            stats.pruned_loose += s.pruned_loose;
            stats.pruned_tight_support += s.pruned_tight_support;
            stats.pruned_tight_confidence += s.pruned_tight_confidence;
            stats.pruned_chi += s.pruned_chi;
            stats.pruned_floor += s.pruned_floor;
            stats.pruned_frontier += s.pruned_frontier;
            stats.rows_compressed += s.rows_compressed;
            stats.budget_exhausted |= s.budget_exhausted;
            stats.stop = stats.stop.merge(s.stop);
            sched.steals += steals;
            sched.worker_nodes.push(s.nodes_visited);
            sched.peak_arena_depth = sched.peak_arena_depth.max(peak);
            pendings.extend(worker_pendings);
        }
        // generality order; a group found by two workers (only possible
        // with strategy 2 off) sorts next to itself, and its copies are
        // identical, so keeping any one is exact
        pendings.sort_unstable_by(|a, b| {
            a.upper
                .len()
                .cmp(&b.upper.len())
                .then_with(|| a.upper.cmp(&b.upper))
        });
        pendings.dedup_by(|a, b| a.upper == b.upper);

        // final interestingness pass: keep a group iff no accepted
        // more-general group has confidence >= its own
        let mut accepted: Vec<Pending> = Vec::new();
        let mut index = GeneralityIndex::new();
        for p in pendings {
            // harvest mode returns the full threshold-passing set; the
            // caller owns the interestingness comparison
            let dominated = !self.harvest
                && index.has_dominator(&p.upper, p.conf, |id| &accepted[id as usize].upper);
            if dominated {
                stats.rejected_not_interesting += 1;
                obs.pruned(PruneReason::NotInteresting);
            } else {
                obs.group_emitted(p.sup_p, p.sup_n);
                index.insert(accepted.len() as u32, &p.upper, p.conf);
                accepted.push(p);
            }
        }
        drop(_merge);
        self.package(accepted, stats, sched, reordered, order, n, m, tracer)
    }

    /// Folds any lift/conviction extras into the confidence threshold
    /// (see [`MiningParams::effective_min_conf`]).
    fn effective_min_conf(&self, n: usize, m: usize) -> f64 {
        self.params.effective_min_conf(n, m)
    }

    /// Maps pending groups back to original row ids, attaches lower
    /// bounds, and assembles the result.
    #[allow(clippy::too_many_arguments)]
    fn package<T: TraceSink + ?Sized>(
        &self,
        irgs: Vec<Pending>,
        stats: MineStats,
        sched: SchedStats,
        reordered: &Dataset,
        order: &[RowId],
        n: usize,
        m: usize,
        tracer: &T,
    ) -> MineResult {
        let _lb_span = if self.params.lower_bounds {
            Some(trace::span(
                tracer,
                trace::LANE_MAIN,
                trace::SPAN_LOWER_BOUNDS,
            ))
        } else {
            None
        };
        let lowers = if self.params.lower_bounds {
            self.lower_bounds(&irgs, reordered, tracer)
        } else {
            vec![Vec::new(); irgs.len()]
        };
        let groups = irgs
            .into_iter()
            .zip(lowers)
            .map(|(p, lower)| {
                let mut support_set = RowSet::empty(n);
                for r in p.rows.iter() {
                    support_set.insert(order[r] as usize);
                }
                RuleGroup {
                    upper: p.upper,
                    lower,
                    support_set,
                    sup: p.sup_p,
                    neg_sup: p.sup_n,
                    class: self.params.target_class,
                    n_rows: n,
                    n_class: m,
                }
            })
            .collect();
        MineResult {
            groups,
            stats,
            sched,
            n_rows: n,
            n_class: m,
        }
    }

    /// MineLB for every group, in `irgs` order. The calls are
    /// independent, so at `threads > 1` they run on that many scoped
    /// threads. Thread `w` takes groups `w, w + threads, …` rather than
    /// one contiguous chunk: the merge hands groups over in generality
    /// order, shortest upper bounds first, and MineLB's cost grows with
    /// the upper bound, so contiguous chunks would leave the last thread
    /// most of the work. The results are put back in `irgs` order.
    /// Traced runs record each call's latency on the lane of the thread
    /// that made it.
    fn lower_bounds<T: TraceSink + ?Sized>(
        &self,
        irgs: &[Pending],
        reordered: &Dataset,
        tracer: &T,
    ) -> Vec<Vec<IdList>> {
        let one = |p: &Pending, lane: usize| {
            if tracer.enabled() {
                let t0 = tracer.now_ns();
                let lower = mine_lower_bounds(&p.upper, &p.rows, reordered);
                tracer.duration_ns(
                    lane,
                    trace::HIST_LOWER_BOUND,
                    tracer.now_ns().saturating_sub(t0),
                );
                lower
            } else {
                mine_lower_bounds(&p.upper, &p.rows, reordered)
            }
        };
        let threads = self.threads.min(irgs.len());
        if threads <= 1 {
            return irgs.iter().map(|p| one(p, trace::LANE_MAIN)).collect();
        }
        let mut parts: Vec<_> = farmer_support::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let one = &one;
                    scope.spawn(move || {
                        let lane = trace::worker_lane(w);
                        let mine = irgs.iter().skip(w).step_by(threads);
                        mine.map(|p| one(p, lane)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lower-bound worker panicked").into_iter())
                .collect()
        });
        (0..irgs.len())
            .map(|i| parts[i % threads].next().expect("one result per group"))
            .collect()
    }
}

/// The scheduler hooks a parallel worker threads through its [`Ctx`]:
/// everything a depth-1 node needs to shed its children to starving
/// peers instead of recursing into them.
struct SplitCtx<'a> {
    /// The worker's own deque — split children are pushed here (the
    /// deque's owner side), where idle thieves steal them FIFO.
    deque: &'a WorkDeque,
    /// Workers currently starving. Splitting costs a replay rescan, so
    /// nodes only split while someone is actually idle.
    hungry: &'a AtomicUsize,
    /// Seeded + split tasks not yet executed; `0` tells starving
    /// workers the run is over. Incremented *before* every push.
    in_flight: &'a AtomicUsize,
}

/// A discovered IRG, in reordered row-id space (pending final mapping).
struct Pending {
    upper: IdList,
    /// `R(upper)` in reordered ids.
    rows: RowSet,
    sup_p: usize,
    sup_n: usize,
    conf: f64,
}

struct Ctx<'a, O: MineObserver + ?Sized, T: TraceSink + ?Sized> {
    params: &'a MiningParams,
    pruning: &'a PruningConfig,
    n: usize,
    m: usize,
    /// `min_conf` tightened by any lift/conviction extras.
    eff_min_conf: f64,
    pos_mask: RowSet,
    /// Budget / deadline / stop-flag checks, one tick per node.
    ctl: ControlState<'a>,
    /// Nodes between observer heartbeats (0 = off).
    heartbeat_every: u64,
    start: Instant,
    obs: &'a mut O,
    /// Statically dispatched trace sink ([`NoopTracer`] = untraced).
    tracer: &'a T,
    /// The trace lane this context records on.
    lane: usize,
    stats: MineStats,
    irgs: Vec<Pending>,
    /// `irgs` keyed for step 7, ids being positions in `irgs`.
    accepted: GeneralityIndex,
    /// Parallel mode: skip the step-7 interestingness comparison here
    /// and let the merge phase run it over all threads' groups.
    defer_interesting: bool,
    /// Delta-restricted remine: prune subtrees that cannot reach these
    /// rows and emit only groups whose support set touches them, in
    /// reordered (ORD) id space. `None` = unrestricted.
    frontier: Option<&'a RowSet>,
    /// Parallel mode: the deque/starvation hooks for adaptive
    /// splitting. `None` in sequential runs.
    split: Option<SplitCtx<'a>>,
    /// Index (into the parallel run's candidate list) of the depth-1
    /// root this context is currently under — split tasks carry it so
    /// the claimant can replay the path. Meaningless when `split` is
    /// `None`.
    current_root: u32,
}

impl<O: MineObserver + ?Sized, T: TraceSink + ?Sized> Ctx<'_, O, T> {
    /// Offers child row `child` of the current depth-1 node to starving
    /// peers. Returns `true` when the child was packed into the deque
    /// (caller skips the recursion — someone will replay it), `false`
    /// when nobody is hungry or the deque is full (caller recurses as
    /// usual). `in_flight` goes up before the push so the task count
    /// can never read zero while this task is claimable.
    #[inline]
    fn try_split(&mut self, child: usize) -> bool {
        let Some(sp) = &self.split else { return false };
        if sp.hungry.load(Ordering::Relaxed) == 0 {
            return false;
        }
        sp.in_flight.fetch_add(1, Ordering::SeqCst);
        if sp
            .deque
            .push(((child as u64 + 1) << 32) | u64::from(self.current_root))
        {
            true
        } else {
            sp.in_flight.fetch_sub(1, Ordering::SeqCst);
            false
        }
    }

    /// One node of the enumeration tree (Figure 5's `MineIRGs`).
    ///
    /// `last` is the row whose addition created this node and `parent`
    /// the node it was added to; at the root `last` is `None` and
    /// `parent` is the root itself. `counted` is `X` plus every row
    /// folded away by pruning strategy 1 at ancestors;
    /// `parent_sup_p`/`parent_sup_n` are the parent rule's exact support
    /// counts (for the loose bounds).
    ///
    /// Split in two so that only nodes surviving the pre-scan checks pay
    /// for a frame and a table: this wrapper runs the cheap accounting
    /// and the loose bounds, then borrows a [`Frame`] holding the node's
    /// table from `scratch`, runs [`visit_scanned`](Self::visit_scanned)
    /// and returns the frame. The loose bounds read only the parent's
    /// counts and `e_p`, so building the table after them changes no
    /// count, tick or event. In steady state (warm pool) neither half
    /// heap-allocates; only emission of a threshold-passing group does.
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
        parent_sup_n: usize,
        depth: usize,
    ) {
        // Traced runs time the whole (inclusive) visit; the branch is
        // resolved at compile time for `NoopTracer`, leaving the
        // untraced hot path clock-free.
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
                parent_sup_n,
                depth,
            );
            self.tracer.duration_ns(
                self.lane,
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
                parent_sup_n,
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
                groups_found: self.irgs.len(),
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

        // ---- Pruning strategy 3, loose bounds (step 2): before scanning.
        if self.pruning.strategy3_loose && !is_root {
            let us2 = if last_is_pos {
                parent_sup_p + 1 + e_p.len()
            } else {
                parent_sup_p
            };
            if us2 < self.params.min_sup {
                self.stats.pruned_loose += 1;
                self.obs.pruned(PruneReason::LooseBound);
                return;
            }
            if self.eff_min_conf > 0.0 {
                let supn_in = parent_sup_n + usize::from(!last_is_pos);
                let uc2 = us2 as f64 / (us2 + supn_in) as f64;
                if uc2 < self.eff_min_conf {
                    self.stats.pruned_loose += 1;
                    self.obs.pruned(PruneReason::LooseBound);
                    return;
                }
            }
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

    /// The scan-onwards half of [`visit`](Self::visit): steps 3–7 of
    /// `MineIRGs`, working entirely inside the borrowed frame `f`, whose
    /// `node` holds this node's table. Early `return`s land back in the
    /// wrapper, which releases the frame to the pool.
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

        // ---- Scan TT|X (step 3).
        if self.tracer.enabled() {
            let t0 = self.tracer.now_ns();
            f.node.inspect_into(e_p, e_n, &mut f.ins);
            self.tracer.duration_ns(
                self.lane,
                trace::HIST_FUSED_SCAN,
                self.tracer.now_ns().saturating_sub(t0),
            );
        } else {
            f.node.inspect_into(e_p, e_n, &mut f.ins);
        }

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
        if self.pruning.strategy2_duplicate && !is_root {
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
                self.stats.pruned_duplicate += 1;
                self.obs.pruned(PruneReason::Duplicate);
                return;
            }
        }

        // Exact support counts of the rule I(X) -> C at this node:
        // z = R(I(X)) under the empty-intersection convention.
        let sup_p = f.ins.z.intersection_len(&self.pos_mask);
        let sup_n = f.ins.z.len() - sup_p;

        // ---- Pruning strategy 3, tight bounds (step 4): after scanning.
        if self.pruning.strategy3_tight && !is_root {
            let us1 = if last_is_pos {
                parent_sup_p + 1 + f.ins.max_ep_tuple
            } else {
                parent_sup_p
            };
            if us1 < self.params.min_sup {
                self.stats.pruned_tight_support += 1;
                self.obs.pruned(PruneReason::TightSupport);
                return;
            }
            if self.eff_min_conf > 0.0 {
                let uc1 = us1 as f64 / (us1 + sup_n) as f64;
                if uc1 < self.eff_min_conf {
                    self.stats.pruned_tight_confidence += 1;
                    self.obs.pruned(PruneReason::TightConfidence);
                    return;
                }
            }
            if self.params.min_chi > 0.0 {
                let t = Contingency::new(sup_p + sup_n, sup_p, self.n, self.m);
                if chi_square_upper_bound(t) < self.params.min_chi {
                    self.stats.pruned_chi += 1;
                    self.obs.pruned(PruneReason::ChiBound);
                    return;
                }
            }
            // footnote-3 extras with convexity-based bounds (lift and
            // conviction already act through eff_min_conf)
            if !self.params.extra.is_empty() {
                let t = Contingency::new(sup_p + sup_n, sup_p, self.n, self.m);
                for c in &self.params.extra {
                    let prunable = match *c {
                        ExtraConstraint::MinEntropyGain(v) => {
                            convex_upper_bound(measures::entropy_gain, t) < v
                        }
                        ExtraConstraint::MinGiniGain(v) => {
                            convex_upper_bound(measures::gini_gain, t) < v
                        }
                        ExtraConstraint::MinCorrelation(v) if v > 0.0 => {
                            // φ = ±sqrt(χ²/n) pointwise, so the χ² bound
                            // caps the reachable positive correlation
                            (chi_square_upper_bound(t) / self.n.max(1) as f64).sqrt() < v
                        }
                        _ => false,
                    };
                    if prunable {
                        self.stats.pruned_chi += 1;
                        self.obs.pruned(PruneReason::ChiBound);
                        return;
                    }
                }
            }
        }

        // ---- Pruning strategy 1 (step 5): rows in every tuple are folded
        // into the counts and removed from the candidate lists. Never at
        // the root: the root emits no rule, so a row contained in every
        // tuple of the full table (possible only in degenerate data) would
        // otherwise have its group silently skipped.
        //
        // All in frame buffers: u_p ⊆ e_p and u_n ⊆ e_n, so subtracting
        // z is the same as subtracting the folded rows y = z ∩ e, and
        // counted ∪ y_p ∪ y_n = counted ∪ (z ∩ (e_p ∪ e_n)).
        if self.pruning.strategy1_compression && !is_root {
            self.stats.rows_compressed +=
                (f.ins.z.intersection_len(e_p) + f.ins.z.intersection_len(e_n)) as u64;
            f.ins.u_p.difference_into(&f.ins.z, &mut f.next_e_p);
            f.ins.u_n.difference_into(&f.ins.z, &mut f.next_e_n);
            e_p.union_into(e_n, &mut f.counted_next);
            f.counted_next.intersect_with(&f.ins.z);
            f.counted_next.union_with(counted);
        } else {
            f.next_e_p.copy_from(&f.ins.u_p);
            f.next_e_n.copy_from(&f.ins.u_n);
            f.counted_next.copy_from(counted);
        }

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
            // adaptive split: while peers starve, a depth-1 node sheds
            // this child as a replayable task instead of recursing
            if depth == 1 && self.try_split(r) {
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
            if depth == 1 && self.try_split(r) {
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
        // rule — so the accepted groups stay an exact prefix of the
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
        if sup_p < self.params.min_sup {
            return;
        }
        let conf = sup_p as f64 / (sup_p + sup_n) as f64;
        if conf < self.eff_min_conf {
            return;
        }
        if self.params.min_chi > 0.0 {
            let chi = chi_square(Contingency::new(sup_p + sup_n, sup_p, self.n, self.m));
            if chi < self.params.min_chi {
                return;
            }
        }
        if !self.params.extra.is_empty() {
            let t = Contingency::new(sup_p + sup_n, sup_p, self.n, self.m);
            for c in &self.params.extra {
                let ok = match *c {
                    ExtraConstraint::MinLift(v) => measures::lift(t) >= v,
                    ExtraConstraint::MinConviction(v) => measures::conviction(t) >= v,
                    ExtraConstraint::MinEntropyGain(v) => measures::entropy_gain(t) >= v,
                    ExtraConstraint::MinGiniGain(v) => measures::gini_gain(t) >= v,
                    ExtraConstraint::MinCorrelation(v) => measures::correlation(t) >= v,
                };
                if !ok {
                    return;
                }
            }
        }
        let upper = IdList::from_iter(f.node.items().iter().copied());
        // Both checks probe only the buckets of this upper bound's own
        // items (see `GeneralityIndex`). A repeat discovery, reachable
        // only with pruning strategy 2 disabled, is dropped silently and
        // checked first. That is exact because a duplicate and a
        // dominator are never both accepted: the first copy passed the
        // dominance check, and by Lemma 3.4 every more general group was
        // judged before it.
        let irgs = &self.irgs;
        let upper_of = |id: u32| &irgs[id as usize].upper;
        if self.accepted.contains(&upper, upper_of) {
            return;
        }
        if !self.defer_interesting && self.accepted.has_dominator(&upper, conf, upper_of) {
            self.stats.rejected_not_interesting += 1;
            self.obs.pruned(PruneReason::NotInteresting);
            return;
        }
        self.accepted.insert(self.irgs.len() as u32, &upper, conf);
        self.obs.group_emitted(sup_p, sup_n);
        self.irgs.push(Pending {
            upper,
            rows: f.ins.z.clone(),
            sup_p,
            sup_n,
            conf,
        });
    }
}

impl Miner for Farmer {
    fn name(&self) -> &'static str {
        "farmer"
    }

    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult {
        self.mine_session(data, ctl, obs)
    }

    fn mine_traced(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
        tracer: &dyn TraceSink,
    ) -> MineResult {
        let _session = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_SESSION);
        self.mine_session_traced(data, ctl, obs, tracer)
    }
}
