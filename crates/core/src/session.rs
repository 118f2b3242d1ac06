//! Observable, cancellable mining sessions.
//!
//! FARMER's row enumeration can run for a long time at low `minsup` on
//! real microarray data, and a production deployment needs more than a
//! post-hoc [`MineStats`]: it needs in-flight progress, deadlines, and a
//! clean cooperative stop. This module is that layer:
//!
//! * [`MineObserver`] — event hooks fired from inside the innermost
//!   search loops. The trait is *statically dispatched*: every hook has
//!   an empty default body, so a run with [`NoOpObserver`] monomorphizes
//!   to exactly the uninstrumented code and costs nothing.
//! * [`MineControl`] — the control plane of one run: an optional node
//!   budget, an optional deadline, and a cooperative stop flag shareable across threads via
//!   [`StopHandle`]. All miners in the workspace (FARMER, top-k, the
//!   naive oracle, and the column-enumeration baselines) honor the same
//!   control, checked at enumeration-node granularity so cancellation
//!   lands within milliseconds.
//! * [`Miner`] — one object-safe interface over every miner, so the CLI
//!   and the benches dispatch through a single signature.
//!
//! # Partial-result guarantee
//!
//! Whatever triggers the stop — budget, deadline, or cancellation — the
//! search stops *emitting* as well as *descending*: the returned groups
//! are exactly the groups the sequential run had accepted up to the
//! halting node (a prefix of its discovery order), every one of them a
//! real rule group meeting all thresholds. The result is superset-free
//! but possibly incomplete, flagged by [`MineStats::budget_exhausted`]
//! and [`MineStats::stop`].

use crate::rule::{MineResult, MineStats};
use crate::trace::{self, TraceSink};
use farmer_dataset::Dataset;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a search node was cut, mirroring the [`MineStats`] counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// Pruning strategy 2: the subtree's groups were discovered earlier.
    Duplicate,
    /// Loose support/confidence bounds, before scanning (`Us2`/`Uc2`).
    LooseBound,
    /// Tight support bound after the scan (`Us1`).
    TightSupport,
    /// Tight confidence bound after the scan (`Uc1`).
    TightConfidence,
    /// χ² (or convex-measure) upper bound.
    ChiBound,
    /// A threshold-passing group dominated by a more general one
    /// (step 7 of the search, in a parallel worker too, or the pass
    /// after the search).
    NotInteresting,
    /// Top-k mining only: the rising per-row confidence floor.
    ConfidenceFloor,
}

impl PruneReason {
    /// Every variant, in declaration order. Paired with the exhaustive
    /// matches in [`index`](Self::index) / [`as_str`](Self::as_str) /
    /// [`stats_key`](Self::stats_key) (and the parity test in
    /// `crates/core/tests/session.rs`), this makes adding a variant
    /// without wiring its counter, name, and stats-json key a
    /// compile/test error.
    pub const ALL: [PruneReason; 7] = [
        PruneReason::Duplicate,
        PruneReason::LooseBound,
        PruneReason::TightSupport,
        PruneReason::TightConfidence,
        PruneReason::ChiBound,
        PruneReason::NotInteresting,
        PruneReason::ConfidenceFloor,
    ];

    /// Position of the variant in [`ALL`](Self::ALL). The `match` is
    /// exhaustive on purpose: a new variant fails to compile here until
    /// it is added to `ALL` too.
    pub fn index(self) -> usize {
        match self {
            PruneReason::Duplicate => 0,
            PruneReason::LooseBound => 1,
            PruneReason::TightSupport => 2,
            PruneReason::TightConfidence => 3,
            PruneReason::ChiBound => 4,
            PruneReason::NotInteresting => 5,
            PruneReason::ConfidenceFloor => 6,
        }
    }

    /// Stable lowercase name, for reports and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            PruneReason::Duplicate => "duplicate",
            PruneReason::LooseBound => "loose bound",
            PruneReason::TightSupport => "tight support",
            PruneReason::TightConfidence => "tight confidence",
            PruneReason::ChiBound => "chi bound",
            PruneReason::NotInteresting => "not interesting",
            PruneReason::ConfidenceFloor => "confidence floor",
        }
    }

    /// The key of this counter inside the `pruned` block of the CLI's
    /// `--stats-json` report.
    pub fn stats_key(&self) -> &'static str {
        match self {
            PruneReason::Duplicate => "duplicate",
            PruneReason::LooseBound => "loose_bound",
            PruneReason::TightSupport => "tight_support",
            PruneReason::TightConfidence => "tight_confidence",
            PruneReason::ChiBound => "chi_bound",
            PruneReason::NotInteresting => "not_interesting",
            PruneReason::ConfidenceFloor => "confidence_floor",
        }
    }
}

/// What ended a mining run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopCause {
    /// The search space was exhausted; the result is complete.
    #[default]
    Completed,
    /// The node budget ran out.
    Budget,
    /// The deadline passed.
    Deadline,
    /// [`StopHandle::stop`] / [`MineControl::cancel`] was called.
    Cancelled,
}

impl StopCause {
    /// `true` iff the run finished on its own (no truncation).
    pub fn is_complete(&self) -> bool {
        matches!(self, StopCause::Completed)
    }

    /// Merges two causes (parallel workers): the most drastic one wins.
    pub fn merge(self, other: StopCause) -> StopCause {
        self.max(other)
    }

    /// Stable lowercase name, for reports and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopCause::Completed => "completed",
            StopCause::Budget => "budget",
            StopCause::Deadline => "deadline",
            StopCause::Cancelled => "cancelled",
        }
    }
}

/// A periodic progress snapshot, delivered to
/// [`MineObserver::heartbeat`] every
/// [`heartbeat_every`](MineControl::heartbeat_every) nodes.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    /// Enumeration nodes entered so far.
    pub nodes_visited: u64,
    /// Groups accepted so far; in harvest mode or with pruning strategy
    /// 1 or 2 off, groups stored for the step-7 pass at the end.
    pub groups_found: usize,
    /// Wall time since the run started.
    pub elapsed: Duration,
}

/// Event hooks fired from inside the search loops.
///
/// Every method has an empty default body and the observer is a generic
/// parameter of the mining entry points, so an uninstrumented run (a
/// [`NoOpObserver`]) compiles to the exact code that existed before this
/// layer — the hooks cost nothing unless implemented.
///
/// **Parallel runs:** per-node events are not streamed from worker
/// threads (that would either race or serialize the search). Instead
/// each worker's counters arrive through [`worker_finished`] in
/// worker-index order after the join, and the merge phase — which is
/// sequential and deterministic — then fires [`group_emitted`] /
/// [`pruned`]`(NotInteresting)` per merged group. A worker drops the
/// groups that a more general group it accepted dominates, so those
/// rejections arrive in its tally's `rejected_not_interesting`, and the
/// merge's events cover only the rest. Which worker ran which subtree,
/// and so each tally, depends on scheduling, but the totals do not:
/// tallies plus events equal the run's [`MineStats`], as they do for a
/// sequential run's events.
///
/// **Step 7 at the end:** in harvest mode, or with pruning strategy 1
/// or 2 off, the search stores groups unjudged and step 7 runs once
/// after it, at every thread count, so every `group_emitted` and
/// `pruned(NotInteresting)` event comes after the search's others.
///
/// [`worker_finished`]: MineObserver::worker_finished
/// [`group_emitted`]: MineObserver::group_emitted
/// [`pruned`]: MineObserver::pruned
pub trait MineObserver {
    /// A search node was entered, at `depth` rows below the root.
    fn node_entered(&mut self, depth: usize) {
        let _ = depth;
    }

    /// A subtree was cut, tagged by why.
    fn pruned(&mut self, reason: PruneReason) {
        let _ = reason;
    }

    /// A rule group was accepted into the result.
    fn group_emitted(&mut self, sup: usize, neg_sup: usize) {
        let _ = (sup, neg_sup);
    }

    /// Periodic progress (see [`MineControl::with_heartbeat_every`]).
    fn heartbeat(&mut self, hb: &Heartbeat) {
        let _ = hb;
    }

    /// A parallel worker's counters, delivered post-join in
    /// worker-index order (0, 1, …) — deterministic across runs.
    fn worker_finished(&mut self, worker: usize, tally: &MineStats) {
        let _ = (worker, tally);
    }
}

/// The do-nothing observer: monomorphizes the instrumented search back
/// into the uninstrumented one.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOpObserver;

impl MineObserver for NoOpObserver {}

/// An observer that counts every event — the reference consumer, used
/// by the tests to pin observer events to the final [`MineStats`] and
/// handy as a cheap progress tally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// `node_entered` events.
    pub nodes: u64,
    /// Deepest `depth` seen.
    pub max_depth: usize,
    /// `pruned(Duplicate)` events.
    pub pruned_duplicate: u64,
    /// `pruned(LooseBound)` events.
    pub pruned_loose: u64,
    /// `pruned(TightSupport)` events.
    pub pruned_tight_support: u64,
    /// `pruned(TightConfidence)` events.
    pub pruned_tight_confidence: u64,
    /// `pruned(ChiBound)` events.
    pub pruned_chi: u64,
    /// `pruned(NotInteresting)` events.
    pub rejected_not_interesting: u64,
    /// `pruned(ConfidenceFloor)` events (top-k only).
    pub pruned_floor: u64,
    /// `group_emitted` events.
    pub emitted: u64,
    /// `heartbeat` events.
    pub heartbeats: u64,
    /// `worker_finished` events.
    pub workers: u64,
}

impl CountingObserver {
    /// The tally of `pruned(reason)` events, one field per variant (the
    /// exhaustive `match` keeps the observer in lockstep with
    /// [`PruneReason`]).
    pub fn pruned_count(&self, reason: PruneReason) -> u64 {
        match reason {
            PruneReason::Duplicate => self.pruned_duplicate,
            PruneReason::LooseBound => self.pruned_loose,
            PruneReason::TightSupport => self.pruned_tight_support,
            PruneReason::TightConfidence => self.pruned_tight_confidence,
            PruneReason::ChiBound => self.pruned_chi,
            PruneReason::NotInteresting => self.rejected_not_interesting,
            PruneReason::ConfidenceFloor => self.pruned_floor,
        }
    }
}

impl MineObserver for CountingObserver {
    fn node_entered(&mut self, depth: usize) {
        self.nodes += 1;
        self.max_depth = self.max_depth.max(depth);
    }

    fn pruned(&mut self, reason: PruneReason) {
        match reason {
            PruneReason::Duplicate => self.pruned_duplicate += 1,
            PruneReason::LooseBound => self.pruned_loose += 1,
            PruneReason::TightSupport => self.pruned_tight_support += 1,
            PruneReason::TightConfidence => self.pruned_tight_confidence += 1,
            PruneReason::ChiBound => self.pruned_chi += 1,
            PruneReason::NotInteresting => self.rejected_not_interesting += 1,
            PruneReason::ConfidenceFloor => self.pruned_floor += 1,
        }
    }

    fn group_emitted(&mut self, _sup: usize, _neg_sup: usize) {
        self.emitted += 1;
    }

    fn heartbeat(&mut self, _hb: &Heartbeat) {
        self.heartbeats += 1;
    }

    fn worker_finished(&mut self, _worker: usize, tally: &MineStats) {
        self.workers += 1;
        self.nodes += tally.nodes_visited;
        self.pruned_duplicate += tally.pruned_duplicate;
        self.pruned_loose += tally.pruned_loose;
        self.pruned_tight_support += tally.pruned_tight_support;
        self.pruned_tight_confidence += tally.pruned_tight_confidence;
        self.pruned_chi += tally.pruned_chi;
        self.rejected_not_interesting += tally.rejected_not_interesting;
        self.pruned_floor += tally.pruned_floor;
    }
}

/// Deadline checks call `Instant::now()` only once per this many nodes;
/// node rates are high enough that cancellation still lands within
/// milliseconds while the uninstrumented hot path stays clock-free.
const DEADLINE_CHECK_MASK: u64 = 63;

/// The control plane of one mining run: node budget, deadline, and a
/// cooperative stop flag. `Clone` shares the stop flag (that is how
/// parallel workers — and [`StopHandle`]s — observe one cancellation).
#[derive(Clone, Debug, Default)]
pub struct MineControl {
    /// Optional cap on enumeration nodes (`None` never truncates). A
    /// truncated result is superset-free but possibly incomplete.
    pub node_budget: Option<u64>,
    /// Optional wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Nodes between [`MineObserver::heartbeat`] calls; 0 (the default)
    /// disables heartbeats.
    pub heartbeat_every: u64,
    stop: Arc<AtomicBool>,
}

impl MineControl {
    /// An unconstrained control: no budget, no deadline, no heartbeats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the node budget.
    pub fn with_node_budget(mut self, budget: Option<u64>) -> Self {
        self.node_budget = budget;
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets the heartbeat cadence (0 disables).
    pub fn with_heartbeat_every(mut self, nodes: u64) -> Self {
        self.heartbeat_every = nodes;
        self
    }

    /// The heartbeat cadence rule, shared by every miner in the
    /// workspace: a cadence of 0 means *disabled* (never due — not
    /// "every node"), otherwise a heartbeat is due every `every` nodes.
    #[inline]
    pub fn heartbeat_due(every: u64, nodes: u64) -> bool {
        every > 0 && nodes.is_multiple_of(every)
    }

    /// A handle that cancels this run (and every clone of this control)
    /// from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(Arc::clone(&self.stop))
    }

    /// Requests a cooperative stop.
    pub fn cancel(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// `true` iff a stop has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Per-run checking state using this control's own budget.
    pub fn state(&self) -> ControlState<'_> {
        ControlState {
            budget: self.node_budget.unwrap_or(u64::MAX),
            shared: None,
            deadline: self.deadline,
            stop: &self.stop,
            ticks: 0,
        }
    }

    /// Per-run checking state drawing nodes from a budget pool *shared*
    /// with other workers (parallel runs). When `shared` is `None` the
    /// state is unbudgeted — deadline and stop flag still apply.
    pub fn state_with_shared<'a>(&'a self, shared: Option<&'a SharedBudget>) -> ControlState<'a> {
        ControlState {
            budget: u64::MAX,
            shared,
            deadline: self.deadline,
            stop: &self.stop,
            ticks: 0,
        }
    }
}

/// A node budget drawn concurrently by every worker of one parallel run.
///
/// Replaces the old `budget / threads` per-worker split: with a shared
/// pool, exactly `budget` nodes are expanded *globally* no matter how the
/// subtrees are balanced, so the truncation point is independent of the
/// thread count (a 1-thread budgeted run and an 8-thread one stop after
/// the same amount of total work). Which nodes make up that prefix still
/// depends on scheduling — see `Farmer::with_parallelism` for the
/// determinism contract.
#[derive(Debug)]
pub struct SharedBudget(AtomicU64);

impl SharedBudget {
    /// A pool of `budget` node tickets.
    pub fn new(budget: u64) -> Self {
        SharedBudget(AtomicU64::new(budget))
    }

    /// Draws one ticket; `false` when the pool is dry (the caller must
    /// halt). Lock-free, one `fetch_update` per enumeration node.
    #[inline]
    pub fn take(&self) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Tickets left in the pool.
    pub fn remaining(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Cancels a run from outside: call [`stop`](StopHandle::stop) from any
/// thread and every worker sharing the originating [`MineControl`]
/// halts at its next enumeration node.
#[derive(Clone, Debug)]
pub struct StopHandle(Arc<AtomicBool>);

impl StopHandle {
    /// Requests a cooperative stop.
    pub fn stop(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` iff a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-run control-checking state: counts nodes and answers "must this
/// run halt now?" One `tick` per enumeration node is the contract every
/// miner in the workspace follows.
#[derive(Debug)]
pub struct ControlState<'a> {
    budget: u64,
    /// When set, the budget is drawn from this shared pool instead of
    /// the local `budget` counter.
    shared: Option<&'a SharedBudget>,
    deadline: Option<Instant>,
    stop: &'a AtomicBool,
    ticks: u64,
}

impl ControlState<'_> {
    /// Counts one enumeration node; returns the cause when the run must
    /// halt. Budget and stop flag are checked every node; the deadline
    /// every 64th node (clock reads are not free).
    #[inline]
    pub fn tick(&mut self) -> Option<StopCause> {
        self.ticks += 1;
        if let Some(pool) = self.shared {
            if !pool.take() {
                return Some(StopCause::Budget);
            }
        } else if self.ticks > self.budget {
            return Some(StopCause::Budget);
        }
        if self.stop.load(Ordering::Relaxed) {
            return Some(StopCause::Cancelled);
        }
        if let Some(d) = self.deadline {
            if self.ticks & DEADLINE_CHECK_MASK == 0 && Instant::now() >= d {
                return Some(StopCause::Deadline);
            }
        }
        None
    }

    /// Nodes counted so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// One interface over every miner in the workspace, so the CLI and the
/// benches dispatch through a single signature instead of five ad-hoc
/// ones. Implemented by [`Farmer`](crate::Farmer),
/// [`TopKMiner`](crate::topk::TopKMiner),
/// [`NaiveMiner`](crate::naive::NaiveMiner), and the baseline adapters
/// in `farmer-baselines`.
///
/// The trait is object-safe (`Box<dyn Miner>`); the observer crosses it
/// as `&mut dyn MineObserver`, trading per-node virtual calls for
/// runtime algorithm selection. Perf-critical callers keep the fully
/// static entry points (`Farmer::mine_session` etc.).
pub trait Miner {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;

    /// Mines `data` under `ctl`, reporting events to `obs`.
    fn mine_with(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
    ) -> MineResult;

    /// Convenience: mines with no control and no observer.
    fn mine_unobserved(&self, data: &Dataset) -> MineResult {
        self.mine_with(data, &MineControl::new(), &mut NoOpObserver)
    }

    /// Mines while recording phase spans and latency histograms into
    /// `tracer` (lane 0). The default implementation wraps the whole
    /// run in a `session` span, which is what the four baseline
    /// adapters report; [`Farmer`](crate::Farmer) and
    /// [`TopKMiner`](crate::topk::TopKMiner) override it with their
    /// fully instrumented paths (per-phase spans, per-worker lanes,
    /// node-visit / fused-scan / lower-bound histograms).
    fn mine_traced(
        &self,
        data: &Dataset,
        ctl: &MineControl,
        obs: &mut dyn MineObserver,
        tracer: &dyn TraceSink,
    ) -> MineResult {
        let _session = trace::span(tracer, trace::LANE_MAIN, trace::SPAN_SESSION);
        self.mine_with(data, ctl, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn stop_cause_merge_takes_most_drastic() {
        use StopCause::*;
        assert_eq!(Completed.merge(Budget), Budget);
        assert_eq!(Deadline.merge(Budget), Deadline);
        assert_eq!(Cancelled.merge(Deadline), Cancelled);
        assert_eq!(Completed.merge(Completed), Completed);
        assert!(Completed.is_complete() && !Budget.is_complete());
        assert_eq!(Cancelled.as_str(), "cancelled");
    }

    #[test]
    fn budget_ticks_out() {
        let ctl = MineControl::new().with_node_budget(Some(3));
        let mut st = ctl.state();
        assert_eq!(st.tick(), None);
        assert_eq!(st.tick(), None);
        assert_eq!(st.tick(), None);
        assert_eq!(st.tick(), Some(StopCause::Budget));
        assert_eq!(st.ticks(), 4);
    }

    #[test]
    fn shared_budget_is_drawn_globally() {
        let ctl = MineControl::new();
        let pool = SharedBudget::new(5);
        let mut a = ctl.state_with_shared(Some(&pool));
        let mut b = ctl.state_with_shared(Some(&pool));
        // 5 tickets total, however they are interleaved
        assert_eq!(a.tick(), None);
        assert_eq!(b.tick(), None);
        assert_eq!(a.tick(), None);
        assert_eq!(a.tick(), None);
        assert_eq!(b.tick(), None);
        assert_eq!(pool.remaining(), 0);
        assert_eq!(a.tick(), Some(StopCause::Budget));
        assert_eq!(b.tick(), Some(StopCause::Budget));
        // unbudgeted shared state never ticks out
        let mut free = ctl.state_with_shared(None);
        for _ in 0..1000 {
            assert_eq!(free.tick(), None);
        }
    }

    #[test]
    fn stop_flag_is_shared_across_clones_and_threads() {
        let ctl = MineControl::new();
        let clone = ctl.clone();
        let handle = ctl.stop_handle();
        assert!(!ctl.is_cancelled());
        thread::spawn(move || handle.stop()).join().unwrap();
        assert!(ctl.is_cancelled());
        assert!(clone.is_cancelled());
        let mut st = clone.state();
        assert_eq!(st.tick(), Some(StopCause::Cancelled));
    }

    #[test]
    fn deadline_fires_on_the_check_cadence() {
        let ctl = MineControl::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let mut st = ctl.state();
        let mut cause = None;
        for _ in 0..=DEADLINE_CHECK_MASK {
            cause = st.tick();
            if cause.is_some() {
                break;
            }
        }
        assert_eq!(cause, Some(StopCause::Deadline));
    }

    #[test]
    fn with_timeout_sets_a_future_deadline() {
        let ctl = MineControl::new().with_timeout(Duration::from_secs(3600));
        assert!(ctl.deadline.expect("set") > Instant::now());
        let mut st = ctl.state();
        for _ in 0..200 {
            assert_eq!(st.tick(), None);
        }
    }

    #[test]
    fn counting_observer_tallies_every_hook() {
        let mut c = CountingObserver::default();
        c.node_entered(3);
        c.node_entered(1);
        c.pruned(PruneReason::Duplicate);
        c.pruned(PruneReason::LooseBound);
        c.pruned(PruneReason::TightSupport);
        c.pruned(PruneReason::TightConfidence);
        c.pruned(PruneReason::ChiBound);
        c.pruned(PruneReason::NotInteresting);
        c.pruned(PruneReason::ConfidenceFloor);
        c.group_emitted(2, 1);
        c.heartbeat(&Heartbeat {
            nodes_visited: 2,
            groups_found: 1,
            elapsed: Duration::ZERO,
        });
        let tally = MineStats {
            nodes_visited: 10,
            ..Default::default()
        };
        c.worker_finished(0, &tally);
        assert_eq!(c.nodes, 12);
        assert_eq!(c.max_depth, 3);
        assert_eq!(c.pruned_duplicate, 1);
        assert_eq!(c.pruned_floor, 1);
        assert_eq!(c.emitted, 1);
        assert_eq!(c.heartbeats, 1);
        assert_eq!(c.workers, 1);
    }
}
