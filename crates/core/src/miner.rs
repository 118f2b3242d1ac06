//! The FARMER search: depth-first row enumeration with pruning.

use crate::cond::{BitsetNode, Inspect, Table};
use crate::interesting::{generality_order, keep_interesting, GeneralityIndex, Thresholds};
use crate::measures::{self, chi_square_upper_bound, convex_upper_bound, Contingency};
use crate::minelb::mine_lower_bounds;
use crate::params::{ExtraConstraint, MiningParams, PruningConfig};
use crate::rule::{MineResult, MineStats, RuleGroup, SchedStats};
use crate::search::{Emit, NodeScratch, Policy, Search};
use crate::session::{MineControl, MineObserver, Miner, NoOpObserver, PruneReason, SharedBudget};
use crate::trace::{self, NoopTracer, TraceSink};
use farmer_dataset::{Dataset, ItemId, RowId};
use farmer_support::thread::WorkDeque;
use rowset::{IdList, RowSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
    /// passing the support/confidence/χ² thresholds is returned, in
    /// generality order at every thread count, with the step-7
    /// interestingness comparison skipped entirely: neither the search
    /// nor a parallel worker rejects a group, and the merge only drops
    /// repeats. The incremental remine engine needs this because
    /// interestingness is a *global* property — a group untouched by a
    /// delta can become interesting when a delta kills its dominator —
    /// so the pipeline caches the full threshold-passing set and
    /// re-runs the comparison itself at publish time.
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
    /// machinery. Step 7's interestingness comparison is the only
    /// globally ordered step. Each worker drops the groups that a more
    /// general group it has accepted itself dominates, which is exact
    /// whatever the others find, and the merge runs the comparison
    /// again over what the workers kept, for the dominators another
    /// worker found. The accepted groups' lower bounds (MineLB) are
    /// then computed on `threads` threads as well. Groups, `MineStats`
    /// and observer totals are identical to the sequential run's
    /// (enforced by tests), except that each worker counts the shared
    /// root once. A node budget is drawn from one shared pool, so a
    /// budgeted run expands exactly `budget` nodes in total regardless
    /// of thread count (which nodes depends on the interleaving; see
    /// `run_parallel`).
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
    /// (In harvest mode or with pruning strategy 1 or 2 off, step 7 runs
    /// after the search, and the same groups come in generality order.)
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
        let mut search = self.search(n, m, frontier, ctl, obs, tracer);
        let peak_arena_depth = search.run(table);
        let sched = SchedStats {
            steals: 0,
            worker_nodes: vec![search.stats.nodes_visited],
            peak_arena_depth,
        };
        let (policy, mut stats) = (search.policy, search.stats);
        let irgs = if policy.defer_interesting {
            self.finish(policy.irgs, &mut stats, obs)
        } else {
            policy.irgs
        };
        self.package(irgs, stats, sched, reordered, order, n, m, tracer)
    }

    /// Step 7 over the groups that searches stored unjudged: a parallel
    /// run's workers, or a sequential run with
    /// [`defer_interesting`](IrgPolicy::defer_interesting) on. Sorts
    /// `stored` into [`generality_order`], where the copies of a group
    /// found more than once (only possible with pruning strategy 1 or
    /// 2 off) sit together and are identical. In harvest mode it keeps
    /// one copy of each; otherwise [`keep_interesting`] keeps the
    /// groups no more general one dominates, counting each rejection.
    /// `obs` sees a `group_emitted` per kept group and a
    /// `pruned(NotInteresting)` per rejection, in generality order.
    fn finish<O: MineObserver + ?Sized>(
        &self,
        mut stored: Vec<Pending>,
        stats: &mut MineStats,
        obs: &mut O,
    ) -> Vec<Pending> {
        stored.sort_unstable_by(|a, b| generality_order(&a.upper, &b.upper));
        if !self.harvest {
            return keep_interesting(stored, |p| (&p.upper, p.sup_p, p.sup_n), stats, obs);
        }
        // harvest mode returns the full threshold-passing set; the
        // caller owns the interestingness comparison
        stored.dedup_by(|a, b| a.upper == b.upper);
        for p in &stored {
            obs.group_emitted(p.sup_p, p.sup_n);
        }
        stored
    }

    /// The search of a sequential run, which a parallel worker adjusts
    /// to its own: FARMER's policy under this miner's pruning switches,
    /// frontier and harvest mode. Step 7's comparison runs in the
    /// search unless the run is in harvest mode, which wants every
    /// threshold-passing group, or the search can find a group more
    /// than once, when a group rejected at each discovery would be
    /// counted at each. Strategies 1 and 2 together find each closed
    /// group once (Lemmas 3.5 and 3.6). Without strategy 2 a duplicate
    /// subtree is searched again; without strategy 1 a candidate row in
    /// every tuple of a node leads to a child with the node's own upper
    /// bound.
    fn search<'a, O, T>(
        &'a self,
        n: usize,
        m: usize,
        frontier: Option<&'a RowSet>,
        ctl: &'a MineControl,
        obs: &'a mut O,
        tracer: &'a T,
    ) -> Search<'a, IrgPolicy<'a>, O, T>
    where
        O: MineObserver + ?Sized,
        T: TraceSink + ?Sized,
    {
        let policy = IrgPolicy {
            pruning: &self.pruning,
            thresholds: Thresholds::new(&self.params, n, m),
            irgs: Vec::new(),
            accepted: GeneralityIndex::new(),
            defer_interesting: self.harvest
                || !(self.pruning.strategy1_compression && self.pruning.strategy2_duplicate),
            split: None,
            current_root: 0,
        };
        let mut search = Search::new(policy, n, m, ctl, obs, tracer);
        search.strategy1 = self.pruning.strategy1_compression;
        search.strategy2 = self.pruning.strategy2_duplicate;
        search.frontier = frontier;
        search
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
    ///
    /// Each worker runs step 7 as the sequential search does, against
    /// the groups it has accepted itself, unless the run defers it
    /// (harvest mode, or pruning strategy 1 or 2 off; see
    /// [`search`](Self::search)). A group it rejects has a more general,
    /// at least as confident, threshold-passing group, and then the most
    /// general such group is interesting and dominates it too, so the
    /// rejection is final. The merge runs step 7 again over the groups
    /// the workers kept ([`finish`](Self::finish)), for the dominators
    /// another worker found, so each group that is not interesting is
    /// rejected exactly once, by its worker or by the merge, and the
    /// rejections add up to the sequential run's. For complete runs the
    /// merged output and [`MineStats`] are deterministic regardless of
    /// scheduling, although the split of the rejections between the
    /// workers and the merge is not. The workers run uninstrumented
    /// (their `MineStats` already tally everything, their rejections
    /// included); after the join, `obs` receives each worker's counters
    /// via [`MineObserver::worker_finished`] in worker-index order, and
    /// the sequential merge pass then fires the `group_emitted` /
    /// `pruned(NotInteresting)` events, so the observer's totals equal
    /// the run's `MineStats`.
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
        let threads = self.threads;
        let shared_budget = ctl.node_budget.map(SharedBudget::new);
        let budget = shared_budget.as_ref();

        // replicate the sequential root step once (no compression at the
        // root, exact candidates), then queue the depth-1 subtrees
        let e_p = RowSet::from_ids(n, 0..m);
        let e_n = RowSet::from_ids(n, m..n);
        let mut ins = Inspect::new(n);
        root.inspect_into(&e_p, &e_n, &mut ins);
        let sup_p0 = ins.z.intersection_len(&e_p);
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
                        let mut search = self.search(n, m, frontier, ctl, &mut noop, tracer);
                        search.ctl = ctl.state_with_shared(budget);
                        search.heartbeat_every = 0;
                        search.lane = lane;
                        search.policy.split = Some(SplitCtx {
                            deque: &deques[w],
                            hungry,
                            in_flight,
                        });
                        search.stats.nodes_visited += 1; // the shared root
                        let mut scratch = NodeScratch::new(n);
                        // the depth-1 node's `counted` and candidates
                        let mut counted = RowSet::empty(n);
                        let mut e_p = RowSet::empty(n);
                        let mut e_n = RowSet::empty(n);
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
                            if search.stats.budget_exhausted {
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
                            // depth-1 node r, as the sequential root's
                            // descent enters it: a positive r keeps the
                            // later positives and every negative, a
                            // negative r only the later negatives
                            counted.clear();
                            counted.insert(r);
                            e_p.copy_from(&ins.u_p);
                            e_n.copy_from(&ins.u_n);
                            if idx < n_pos {
                                e_p.clear_through(r);
                            } else {
                                e_p.clear();
                                e_n.clear_through(r);
                            }
                            match (task >> 32) as u32 {
                                0 => {
                                    // depth-1 root task: exactly the
                                    // sequential root's descend step
                                    search.policy.current_root = idx as u32;
                                    search.visit(
                                        &mut scratch,
                                        root,
                                        Some(r as RowId),
                                        &counted,
                                        &e_p,
                                        &e_n,
                                        sup_p0,
                                        sup_n0,
                                        1,
                                    );
                                }
                                c_plus_1 => {
                                    // split task: replay the depth-1 node
                                    // (r)'s scan and step 5 from the shared
                                    // root, then run its child c's subtree.
                                    // The replay is pure arithmetic — no
                                    // tick, no node count — because the
                                    // splitter already visited the node.
                                    let c = (c_plus_1 - 1) as usize;
                                    let mut f = scratch.acquire(root, Some(r as RowId));
                                    f.node.inspect_into(&e_p, &e_n, &mut f.ins);
                                    let (sup_p1, sup_n1) = search.counts(&f.ins.z);
                                    let fold = self.pruning.strategy1_compression;
                                    f.step5(fold, &counted, &e_p, &e_n);
                                    // child c's candidates, as the descent
                                    // builds them
                                    debug_assert!(!f.counted_next.contains(c));
                                    f.counted_next.insert(c);
                                    f.remaining_p.copy_from(&f.next_e_p);
                                    f.remaining_n.copy_from(&f.next_e_n);
                                    if c < m {
                                        f.remaining_p.clear_through(c);
                                    } else {
                                        f.remaining_p.clear();
                                        f.remaining_n.clear_through(c);
                                    }
                                    search.visit(
                                        &mut scratch,
                                        &f.node,
                                        Some(c as RowId),
                                        &f.counted_next,
                                        &f.remaining_p,
                                        &f.remaining_n,
                                        sup_p1,
                                        sup_n1,
                                        2,
                                    );
                                    scratch.release(f);
                                }
                            }
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        let peak = scratch.peak_depth();
                        (search.policy.irgs, search.stats, steals, peak)
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

        // merge: sum the tallies, then step 7 over every worker's groups
        let _merge = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_MERGE);
        let mut stats = MineStats::default();
        let mut sched = SchedStats::default();
        let mut pendings: Vec<Pending> = Vec::new();
        for (worker_pendings, s, steals, peak) in results {
            stats.absorb(&s);
            sched.steals += steals;
            sched.worker_nodes.push(s.nodes_visited);
            sched.peak_arena_depth = sched.peak_arena_depth.max(peak);
            pendings.extend(worker_pendings);
        }
        let accepted = self.finish(pendings, &mut stats, obs);
        drop(_merge);
        self.package(accepted, stats, sched, reordered, order, n, m, tracer)
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

/// The scheduler hooks a parallel worker threads through its policy:
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
}

/// FARMER's part of the search: the loose and tight bounds of pruning
/// strategy 3, step 7's interestingness check, and the parallel split.
struct IrgPolicy<'a> {
    pruning: &'a PruningConfig,
    /// Step 7's thresholds, which the bounds read too.
    thresholds: Thresholds<'a>,
    irgs: Vec<Pending>,
    /// `irgs` keyed for step 7, ids being positions in `irgs`.
    accepted: GeneralityIndex,
    /// Store every new threshold-passing group unjudged, and leave the
    /// step-7 comparison to [`Farmer::finish`] after the search: set in
    /// harvest mode and with pruning strategy 1 or 2 off (see
    /// [`Farmer::search`]). When unset, a group that an accepted, more
    /// general group dominates is rejected here, in a parallel worker
    /// too: that group is not interesting whatever the other workers
    /// find, and the merge's pass judges the rest.
    defer_interesting: bool,
    /// Parallel mode: the deque/starvation hooks for adaptive
    /// splitting. `None` in sequential runs.
    split: Option<SplitCtx<'a>>,
    /// Index (into the parallel run's candidate list) of the depth-1
    /// root this worker is currently under — split tasks carry it so
    /// the claimant can replay the path. Meaningless when `split` is
    /// `None`.
    current_root: u32,
}

impl Policy for IrgPolicy<'_> {
    /// Strategy 3's loose bounds `Us2`/`Uc2` (step 2), from the parent's
    /// counts and the node's positive candidates.
    fn loose(
        &self,
        is_root: bool,
        last_is_pos: bool,
        parent_sup_p: usize,
        parent_sup_n: usize,
        _counted: &RowSet,
        e_p: &RowSet,
    ) -> Option<PruneReason> {
        if !self.pruning.strategy3_loose || is_root {
            return None;
        }
        let us2 = if last_is_pos {
            parent_sup_p + 1 + e_p.len()
        } else {
            parent_sup_p
        };
        let supn_in = parent_sup_n + usize::from(!last_is_pos);
        let t = &self.thresholds;
        let cut = us2 < t.min_sup
            || (t.min_conf > 0.0 && (us2 as f64 / (us2 + supn_in) as f64) < t.min_conf);
        cut.then_some(PruneReason::LooseBound)
    }

    /// Strategy 3's tight bounds (step 4): `Us1`, `Uc1`, the χ² upper
    /// bound, and the convexity bounds of the footnote-3 extras (lift
    /// and conviction already act through the effective `min_conf`).
    fn tight(&self, us1: usize, sup_p: usize, sup_n: usize) -> Option<PruneReason> {
        if !self.pruning.strategy3_tight {
            return None;
        }
        let th = &self.thresholds;
        if us1 < th.min_sup {
            return Some(PruneReason::TightSupport);
        }
        if th.min_conf > 0.0 && (us1 as f64 / (us1 + sup_n) as f64) < th.min_conf {
            return Some(PruneReason::TightConfidence);
        }
        if th.min_chi <= 0.0 && th.extra.is_empty() {
            return None;
        }
        let t = Contingency::new(sup_p + sup_n, sup_p, th.n, th.m);
        let chi_cut = th.min_chi > 0.0 && chi_square_upper_bound(t) < th.min_chi;
        let extra_cut = th.extra.iter().any(|c| match *c {
            ExtraConstraint::MinEntropyGain(v) => convex_upper_bound(measures::entropy_gain, t) < v,
            ExtraConstraint::MinGiniGain(v) => convex_upper_bound(measures::gini_gain, t) < v,
            // φ = ±sqrt(χ²/n) pointwise, so the χ² bound caps the
            // reachable positive correlation
            ExtraConstraint::MinCorrelation(v) if v > 0.0 => {
                (chi_square_upper_bound(t) / th.n.max(1) as f64).sqrt() < v
            }
            _ => false,
        });
        (chi_cut || extra_cut).then_some(PruneReason::ChiBound)
    }

    /// Offers child row `child` of the current depth-1 node to starving
    /// peers. Returns `true` when the child was packed into the deque
    /// (the search skips the recursion — someone will replay it), `false`
    /// when nobody is hungry or the deque is full (the search recurses
    /// as usual). `in_flight` goes up before the push so the task count
    /// can never read zero while this task is claimable.
    #[inline]
    fn split(&mut self, child: usize) -> bool {
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

    /// Step 7: the thresholds, then the interestingness comparison
    /// against every more general group accepted so far, or, when
    /// deferring, only the check for a repeat. Both ask the index about
    /// the node's own items, which ascend, so a rejected or repeated
    /// group allocates nothing.
    fn emit(&mut self, items: &[ItemId], z: &RowSet, sup_p: usize, sup_n: usize) -> Emit {
        let Some(conf) = self.thresholds.accept(sup_p, sup_n) else {
            return Emit::Skip;
        };
        let irgs = &self.irgs;
        let upper_of = |id: u32| irgs[id as usize].upper.as_slice();
        if self.defer_interesting {
            // without strategy 1 or 2 a group can be found again; its
            // first copy is already stored
            if self.accepted.contains(items, upper_of) {
                return Emit::Skip;
            }
        } else {
            // strategies 1 and 2 are on, so no group is found twice
            debug_assert!(!self.accepted.contains(items, upper_of));
            if self.accepted.has_dominator(items, conf, upper_of) {
                return Emit::Reject(PruneReason::NotInteresting);
            }
        }
        self.accepted.insert(self.irgs.len() as u32, items, conf);
        self.irgs.push(Pending {
            upper: IdList::from_sorted(items.to_vec()),
            rows: z.clone(),
            sup_p,
            sup_n,
        });
        if self.defer_interesting {
            Emit::Store
        } else {
            Emit::Accept
        }
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
