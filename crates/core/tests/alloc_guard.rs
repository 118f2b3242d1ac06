//! Allocation guard for the enumeration hot path.
//!
//! The miner threads a scratch arena through the search so that, once
//! the frame pool is warm, expanding a node performs **zero** heap
//! allocations (fused kernels work in place; candidate lists, counted
//! sets, and child nodes live in recycled frames). This binary installs
//! a counting global allocator and pins that contract at two levels:
//!
//! 1. a micro-probe: repeated `inspect_into` / `child_into` on warm
//!    buffers allocate exactly nothing;
//! 2. a whole-run budget: a full mine allocates orders of magnitude
//!    fewer times than it visits nodes (setup, frame warm-up, and
//!    per-emission costs only);
//! 3. a MineLB budget: turning lower bounds on adds at most 6
//!    allocations per accepted group;
//! 4. the same whole-run budget for CARPENTER and top-k, which run on
//!    the same search and arena.
//!
//! The binary is `harness = false` (see `Cargo.toml`): the libtest
//! harness spawns threads of its own that occasionally allocate while a
//! probe is mid-window, and the exact-zero assertions need the
//! process-global counter to see *only* the hot path. A plain `main`
//! keeps the whole process single-threaded and the measurement exact.

use farmer_core::carpenter::carpenter;
use farmer_core::cond::{BitsetNode, Inspect, Table};
use farmer_core::topk::mine_top_k_session;
use farmer_core::{CountingObserver, Farmer, MineControl, MiningParams, NoOpObserver, NoopTracer};
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::SynthConfig;
use farmer_support::alloc::{allocation_count, CountingAlloc};
use farmer_support::thread::WorkDeque;
use rowset::RowSet;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn workload() -> farmer_dataset::Dataset {
    let m = SynthConfig {
        n_rows: 24,
        n_genes: 120,
        n_class1: 12,
        n_signature: 40,
        clusters_per_class: 2,
        cluster_spread: 1.8,
        cluster_noise: 0.35,
        ..Default::default()
    }
    .generate();
    Discretizer::EqualDepth { buckets: 6 }.discretize(&m)
}

fn main() {
    hot_path_is_allocation_free_once_warm();
    deque_paths_are_allocation_free();
    disabled_tracing_stays_allocation_free();
    other_miners_stay_within_budget();
    println!("alloc_guard OK: hot path is allocation-free once warm");
}

/// The parallel scheduler's per-task path: deque push/pop/steal per
/// scheduled task works in a fixed atomic ring allocated at
/// construction, so once built it must allocate exactly nothing — same
/// bar as the fused kernels.
fn deque_paths_are_allocation_free() {
    let dq = WorkDeque::new(64);
    assert!(dq.push(1));
    assert_eq!(dq.pop(), Some(1));
    let before = allocation_count();
    for i in 0..200u64 {
        assert!(dq.push(i));
        assert!(dq.push(i + 1000));
        assert_eq!(dq.steal(), Some(i));
        assert_eq!(dq.pop(), Some(i + 1000));
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "deque push/pop/steal must not allocate"
    );
}

fn hot_path_is_allocation_free_once_warm() {
    let d = workload();
    let n = d.n_rows();
    let m = d.class_count(1);
    let e_p = RowSet::from_ids(n, 0..m);
    let e_n = RowSet::from_ids(n, m..n);

    // ---- micro-probe: warm the buffers once, then demand exact zero
    // across many scan + descend steps
    let table = Table::new(&d);
    let root = BitsetNode::root(&table);
    let mut ins = Inspect::new(n);
    let mut child = root.clone_shell();
    root.inspect_into(&e_p, &e_n, &mut ins);
    let probe = ins.u_p.iter().next().expect("workload has candidates");
    root.child_into(probe as u32, &mut child);
    let before = allocation_count();
    for _ in 0..200 {
        root.inspect_into(&e_p, &e_n, &mut ins);
        root.child_into(probe as u32, &mut child);
        child.inspect_into(&e_p, &e_n, &mut ins);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "warm inspect_into/child_into must not allocate"
    );

    // ---- whole-run budget: allocations are sublinear in nodes visited.
    // Costs left: session setup, warming ≤ peak-depth frames, and the
    // emissions (upper-bound itemset, support-set clone, final
    // `RuleGroup`) — nothing per ordinary node, which is what the
    // `nodes / 10` term polices.
    let farmer = Farmer::new(MiningParams::new(1).min_sup(2).lower_bounds(false));
    let before = allocation_count();
    let r = farmer.mine(&d);
    let allocs = allocation_count() - before;
    assert!(
        r.stats.nodes_visited > 1_000,
        "workload too small to be meaningful: {} nodes",
        r.stats.nodes_visited
    );
    let emissions = r.len() as u64 + r.stats.rejected_not_interesting;
    let budget = 300 + 16 * emissions + r.stats.nodes_visited / 10;
    assert!(
        allocs < budget,
        "{allocs} allocations for {} nodes and {emissions} emissions \
         (budget {budget}) — the hot path is allocating per node again",
        r.stats.nodes_visited
    );
    println!(
        "whole-run mine: {allocs} allocations for {} nodes (budget {budget})",
        r.stats.nodes_visited
    );

    // ---- MineLB: the same mine with lower bounds on. The extra
    // allocations are MineLB's — its scratch buffer and the lower-bound
    // lists it returns — and must stay a small constant per group.
    let farmer = Farmer::new(MiningParams::new(1).min_sup(2).lower_bounds(true));
    let before = allocation_count();
    let with_lb = farmer.mine(&d);
    let extra = (allocation_count() - before).saturating_sub(allocs);
    assert_eq!(with_lb.len(), r.len(), "lower bounds changed the groups");
    let groups = with_lb.len() as u64;
    assert!(groups > 0, "workload yields no groups");
    assert!(
        extra <= 6 * groups,
        "MineLB made {extra} allocations for {groups} groups (budget {}) — \
         more than 6 per group",
        6 * groups
    );
    println!(
        "lower bounds on: {extra} more allocations for {groups} groups ({:.1} per group)",
        extra as f64 / groups as f64
    );
}

/// The tracing instrumentation is statically dispatched: mining through
/// `mine_session_traced` with the [`NoopTracer`] must monomorphize to
/// the exact uninstrumented search — same whole-run allocation budget,
/// no clock reads, no event buffers. (The enabled path is covered by
/// `trace_integration.rs`; its ring buffers are allocated up front, so
/// even there the warm path stays allocation-free.)
fn disabled_tracing_stays_allocation_free() {
    let d = workload();
    let farmer = Farmer::new(MiningParams::new(1).min_sup(2).lower_bounds(false));
    let ctl = MineControl::new();
    let before = allocation_count();
    let r = farmer.mine_session_traced(&d, &ctl, &mut NoOpObserver, &NoopTracer);
    let allocs = allocation_count() - before;
    let emissions = r.len() as u64 + r.stats.rejected_not_interesting;
    let budget = 300 + 16 * emissions + r.stats.nodes_visited / 10;
    assert!(
        allocs < budget,
        "(NoopTracer) {allocs} allocations for {} nodes \
         (budget {budget}) — disabled tracing is no longer free",
        r.stats.nodes_visited
    );
}

/// CARPENTER and top-k share FARMER's search and its frame arena, so a
/// whole run owes the same costs and no others: setup, frame warm-up,
/// and a little per output — a pattern for CARPENTER, a group offered
/// to the per-row lists for top-k. The `nodes / 10` term polices
/// per-node allocation, as in the FARMER budget above.
fn other_miners_stay_within_budget() {
    let d = workload();
    let before = allocation_count();
    let r = carpenter(&d, 2);
    let allocs = allocation_count() - before;
    let patterns = r.patterns.len() as u64;
    let budget = 300 + 4 * patterns + r.stats.nodes_visited / 10;
    assert!(
        allocs < budget,
        "CARPENTER made {allocs} allocations for {} nodes and {patterns} patterns \
         (budget {budget})",
        r.stats.nodes_visited
    );
    println!(
        "whole-run CARPENTER: {allocs} allocations for {} nodes (budget {budget})",
        r.stats.nodes_visited
    );

    let mut obs = CountingObserver::default();
    let before = allocation_count();
    let r = mine_top_k_session(&d, 1, 1, 2, &MineControl::new(), &mut obs);
    let allocs = allocation_count() - before;
    let budget = 300 + 16 * obs.emitted + r.stats.nodes_visited / 10;
    assert!(
        allocs < budget,
        "top-k made {allocs} allocations for {} nodes and {} groups (budget {budget})",
        r.stats.nodes_visited,
        obs.emitted
    );
    println!(
        "whole-run top-k: {allocs} allocations for {} nodes (budget {budget})",
        r.stats.nodes_visited
    );
}
