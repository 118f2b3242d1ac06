//! Parallel mining must be exactly equivalent to the sequential run.

use farmer_bench::workloads::efficiency_dataset;
use farmer_core::{Farmer, MineStats, MiningParams, PruningConfig, RuleGroup};
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::{PaperDataset, SynthConfig};
use farmer_dataset::{paper_example, DatasetBuilder};
use farmer_support::rng::{Rng, SeedableRng, StdRng};

/// (upper, support rows, sup, neg_sup, sorted lower bounds).
type CanonGroup = (Vec<u32>, Vec<usize>, usize, usize, Vec<Vec<u32>>);

fn canon(groups: &[RuleGroup]) -> Vec<CanonGroup> {
    let mut v: Vec<_> = groups
        .iter()
        .map(|g| {
            let mut lows: Vec<Vec<u32>> = g.lower.iter().map(|l| l.as_slice().to_vec()).collect();
            lows.sort();
            (
                g.upper.as_slice().to_vec(),
                g.support_set.to_vec(),
                g.sup,
                g.neg_sup,
                lows,
            )
        })
        .collect();
    v.sort();
    v
}

/// A parallel run's stats as the sequential run counts them: each
/// worker counts the shared root once, so `threads - 1` nodes more.
fn as_sequential(mut stats: MineStats, threads: usize) -> MineStats {
    stats.nodes_visited -= threads as u64 - 1;
    stats
}

/// The two ways to find a group more than once: without strategy 1 a
/// node's child on a row of its own support set has the node's upper
/// bound, and without strategy 2 a duplicate subtree is searched again,
/// often under another depth-1 subtree and by another worker.
const REPEATING: [PruningConfig; 2] = [
    PruningConfig {
        strategy1_compression: false,
        strategy2_duplicate: true,
        strategy3_loose: true,
        strategy3_tight: true,
    },
    PruningConfig {
        strategy1_compression: true,
        strategy2_duplicate: false,
        strategy3_loose: true,
        strategy3_tight: true,
    },
];

#[test]
fn parallel_equals_sequential_on_paper_example() {
    let d = paper_example();
    for class in [0u32, 1] {
        for (min_sup, min_conf) in [(1, 0.0), (2, 0.0), (1, 0.7)] {
            let params = MiningParams::new(class).min_sup(min_sup).min_conf(min_conf);
            let seq = Farmer::new(params.clone()).mine(&d);
            for threads in [2usize, 3, 8] {
                let par = Farmer::new(params.clone())
                    .with_parallelism(threads)
                    .mine(&d);
                assert_eq!(
                    canon(&par.groups),
                    canon(&seq.groups),
                    "class={class} min_sup={min_sup} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn parallel_equals_sequential_on_random_data() {
    // Without pruning strategy 1 or 2 one group is found more than
    // once, often by different workers, and the merge must keep exactly
    // one copy, as the sequential run does. The counters must agree
    // too, rejections included.
    let mut rng = StdRng::seed_from_u64(21);
    for trial in 0..10 {
        let mut b = DatasetBuilder::new(2);
        for _ in 0..rng.gen_range(4..=9) {
            let items: Vec<u32> = (0..12u32).filter(|_| rng.gen_bool(0.5)).collect();
            b.add_row(items, u32::from(rng.gen_bool(0.5)));
        }
        let d = b.build();
        let params = MiningParams::new(0)
            .min_sup(rng.gen_range(1..=2))
            .min_conf([0.0, 0.6][trial % 2])
            .min_chi([0.0, 0.5][trial % 2]);
        for pruning in [PruningConfig::default(), REPEATING[0], REPEATING[1]] {
            let seq = Farmer::new(params.clone()).with_pruning(pruning).mine(&d);
            let par = Farmer::new(params.clone())
                .with_pruning(pruning)
                .with_parallelism(4)
                .mine(&d);
            let tag = format!("trial={trial} pruning={pruning:?}");
            assert_eq!(canon(&par.groups), canon(&seq.groups), "{tag}");
            assert_eq!(as_sequential(par.stats, 4), seq.stats, "{tag}");
        }
    }
}

#[test]
fn repeated_groups_count_each_rejection_once_at_every_thread_count() {
    // Without strategy 1 or 2 a group that step 7 rejects is found
    // again. Each distinct group counts once, as with both strategies
    // on (115 on this input, `tests/search_contract.rs`), however many
    // times and by however many threads it is found.
    let d = efficiency_dataset(PaperDataset::Leukemia, 0.05);
    let params = MiningParams::new(1).min_sup(6).lower_bounds(false);
    for pruning in REPEATING {
        let mine = |threads| {
            Farmer::new(params.clone())
                .with_pruning(pruning)
                .with_parallelism(threads)
                .mine(&d)
        };
        let seq = mine(1);
        assert_eq!(seq.stats.rejected_not_interesting, 115, "{pruning:?}");
        for threads in [2, 4] {
            let par = mine(threads);
            let tag = format!("{pruning:?} threads={threads}");
            assert_eq!(canon(&par.groups), canon(&seq.groups), "{tag}");
            assert_eq!(as_sequential(par.stats, threads), seq.stats, "{tag}");
        }
    }
}

#[test]
fn parallel_equals_sequential_on_analog() {
    let m = SynthConfig {
        n_rows: 40,
        n_genes: 200,
        n_class1: 20,
        n_signature: 60,
        clusters_per_class: 2,
        cluster_spread: 1.8,
        cluster_noise: 0.35,
        ..Default::default()
    }
    .generate();
    let d = Discretizer::EqualDepth { buckets: 8 }.discretize(&m);
    let params = MiningParams::new(1)
        .min_sup(4)
        .min_conf(0.8)
        .lower_bounds(false);
    let seq = Farmer::new(params.clone()).mine(&d);
    let par = Farmer::new(params).with_parallelism(4).mine(&d);
    assert_eq!(canon(&par.groups), canon(&seq.groups));
    // both runs traverse the same subtrees (nodes differ only by the
    // per-thread root re-scan)
    assert!(par.stats.nodes_visited >= seq.stats.nodes_visited);
    assert!(par.stats.nodes_visited <= seq.stats.nodes_visited + 4);
}

#[test]
fn parallelism_one_is_sequential() {
    let d = paper_example();
    let params = MiningParams::new(0);
    let a = Farmer::new(params.clone()).mine(&d);
    let b = Farmer::new(params).with_parallelism(1).mine(&d);
    assert_eq!(canon(&a.groups), canon(&b.groups));
    assert_eq!(a.stats, b.stats);
}

#[test]
fn parallel_mining_is_deterministic() {
    // Two runs with the same parallelism must yield byte-identical IRG
    // sets — and the same set as the sequential run — regardless of
    // thread scheduling.
    let m = SynthConfig {
        n_rows: 24,
        n_genes: 120,
        n_class1: 12,
        n_signature: 30,
        ..Default::default()
    }
    .generate();
    let d = Discretizer::EqualDepth { buckets: 6 }.discretize(&m);
    let params = MiningParams::new(1).min_sup(3).min_conf(0.7);
    let run = || Farmer::new(params.clone()).with_parallelism(4).mine(&d);
    let first = run();
    let second = run();
    assert_eq!(canon(&first.groups), canon(&second.groups));
    assert_eq!(first.stats, second.stats, "even the traversal stats repeat");
    let seq = Farmer::new(params.clone()).mine(&d);
    assert_eq!(canon(&first.groups), canon(&seq.groups));
    assert!(
        !first.groups.is_empty(),
        "test must exercise a non-trivial mine"
    );
}

#[test]
fn shared_budget_draws_one_global_pool() {
    // The node budget is a single shared pool: a budgeted run expands
    // `budget` nodes in total whatever the thread count (plus each
    // worker's share of the root re-count and its halting node), instead
    // of the old per-thread `budget / threads` split.
    use farmer_core::{MineControl, NoOpObserver, StopCause};
    let m = SynthConfig {
        n_rows: 24,
        n_genes: 120,
        n_class1: 12,
        n_signature: 30,
        ..Default::default()
    }
    .generate();
    let d = Discretizer::EqualDepth { buckets: 6 }.discretize(&m);
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let full = Farmer::new(params.clone()).mine(&d);
    assert!(
        full.stats.nodes_visited > 100,
        "need a non-trivial workload: {}",
        full.stats.nodes_visited
    );
    let budget = full.stats.nodes_visited / 3;
    for threads in [1usize, 2, 4] {
        let ctl = MineControl::new().with_node_budget(Some(budget));
        let r = Farmer::new(params.clone())
            .with_parallelism(threads)
            .mine_session(&d, &ctl, &mut NoOpObserver);
        assert!(r.stats.budget_exhausted, "threads={threads}");
        assert_eq!(r.stats.stop, StopCause::Budget, "threads={threads}");
        // `budget` successful draws, plus per-worker root re-counts and
        // at most one halting node per worker
        assert!(
            r.stats.nodes_visited > budget,
            "threads={threads}: {} < {}",
            r.stats.nodes_visited,
            budget + 1
        );
        assert!(
            r.stats.nodes_visited <= budget + 2 * threads as u64,
            "threads={threads}: {} > {}",
            r.stats.nodes_visited,
            budget + 2 * threads as u64
        );
        // every truncated group is still a genuine rule group
        for g in &r.groups {
            assert_eq!(d.rows_supporting(&g.upper), g.support_set);
            assert!(g.sup >= 2);
        }
    }
}

#[test]
fn parallel_sched_stats_are_populated() {
    let d = paper_example();
    let par = Farmer::new(MiningParams::new(0))
        .with_parallelism(3)
        .mine(&d);
    assert_eq!(par.sched.worker_nodes.len(), 3);
    let subtree_nodes: u64 = par.sched.worker_nodes.iter().sum();
    assert_eq!(subtree_nodes, par.stats.nodes_visited);
    assert!(par.sched.peak_arena_depth >= 1);
    let seq = Farmer::new(MiningParams::new(0)).mine(&d);
    assert_eq!(seq.sched.steals, 0);
    assert_eq!(seq.sched.worker_nodes, vec![seq.stats.nodes_visited]);
}

#[test]
fn more_threads_than_candidates() {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1], 0);
    b.add_row([1, 2], 1);
    let d = b.build();
    let seq = Farmer::new(MiningParams::new(0)).mine(&d);
    let par = Farmer::new(MiningParams::new(0))
        .with_parallelism(16)
        .mine(&d);
    assert_eq!(canon(&par.groups), canon(&seq.groups));
}
