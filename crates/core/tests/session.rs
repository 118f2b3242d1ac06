//! Session-layer integration: budget/deadline/cancellation semantics,
//! the partial-result prefix guarantee, and observer/stats agreement.

use farmer_bench::workloads::efficiency_dataset;
use farmer_core::naive::NaiveMiner;
use farmer_core::topk::TopKMiner;
use farmer_core::{
    CountingObserver, Farmer, Heartbeat, MineControl, MineObserver, MineStats, Miner, MiningParams,
    NoOpObserver, PruneReason, StopCause,
};
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::{PaperDataset, SynthConfig};
use farmer_dataset::{paper_example, DatasetBuilder};
use std::time::{Duration, Instant};

/// A workload the full search finishes quickly but not trivially.
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

/// A workload whose search at `min_sup = 1` cannot finish, however
/// fast the miner gets — only ever mined under a deadline or a stop
/// flag. Row `i` holds every item except item `i`, so the rows sharing
/// any itemset are exactly the rows missing its complement: every row
/// subset is closed, and the tree has ~2^48 nodes.
fn endless_workload() -> farmer_dataset::Dataset {
    const N: u32 = 48;
    let mut b = DatasetBuilder::new(2);
    for i in 0..N {
        b.add_row((0..N).filter(|&item| item != i), i % 2);
    }
    b.build()
}

fn canon(groups: &[farmer_core::RuleGroup]) -> Vec<(Vec<u32>, usize, usize)> {
    groups
        .iter()
        .map(|g| (g.upper.as_slice().to_vec(), g.sup, g.neg_sup))
        .collect()
}

#[test]
fn budgeted_run_returns_exact_prefix_of_full_run() {
    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let full = Farmer::new(params.clone()).mine(&d);
    assert!(full.len() > 5, "workload too easy: {}", full.len());
    let full_canon = canon(&full.groups);

    for frac in [2, 4, 8] {
        let budget = full.stats.nodes_visited / frac;
        let ctl = MineControl::new().with_node_budget(Some(budget));
        let part = Farmer::new(params.clone()).mine_session(&d, &ctl, &mut NoOpObserver);
        assert!(part.stats.budget_exhausted, "frac={frac}");
        assert_eq!(part.stats.stop, StopCause::Budget, "frac={frac}");
        assert_eq!(part.stats.nodes_visited, budget + 1, "frac={frac}");
        assert_eq!(
            canon(&part.groups),
            full_canon[..part.len()],
            "frac={frac}: truncated groups must be a prefix of the \
             sequential discovery order"
        );
    }
}

#[test]
fn deadline_yields_valid_partial_result_quickly() {
    let d = endless_workload();
    let params = MiningParams::new(1).min_sup(1).lower_bounds(false);
    let ctl = MineControl::new().with_timeout(Duration::from_millis(50));
    let t0 = Instant::now();
    let r = Farmer::new(params).mine_session(&d, &ctl, &mut NoOpObserver);
    let elapsed = t0.elapsed();

    assert_eq!(r.stats.stop, StopCause::Deadline);
    assert!(r.stats.budget_exhausted);
    assert!(
        elapsed < Duration::from_millis(200),
        "deadline overshoot: {elapsed:?}"
    );
    assert!(r.stats.nodes_visited > 100, "{}", r.stats.nodes_visited);
    // every returned group is a real, threshold-meeting rule group
    for g in &r.groups {
        assert!(g.sup >= 1);
        assert_eq!(d.rows_supporting(&g.upper), g.support_set);
        assert_eq!(d.items_common_to(&g.support_set), g.upper);
    }
}

#[test]
fn stop_handle_halts_all_parallel_workers() {
    let d = endless_workload();
    let params = MiningParams::new(1).min_sup(1).lower_bounds(false);
    let ctl = MineControl::new();
    let handle = ctl.stop_handle();
    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        handle.stop();
    });
    let t0 = Instant::now();
    let r = Farmer::new(params)
        .with_parallelism(4)
        .mine_session(&d, &ctl, &mut NoOpObserver);
    let elapsed = t0.elapsed();
    stopper.join().unwrap();

    assert_eq!(r.stats.stop, StopCause::Cancelled);
    assert!(r.stats.budget_exhausted);
    assert!(
        elapsed < Duration::from_secs(2),
        "workers failed to stop: {elapsed:?}"
    );
}

#[test]
fn observer_counts_equal_stats_sequential() {
    let paper = paper_example();
    let synth = workload();
    for (d, class) in [(&paper, 0u32), (&paper, 1), (&synth, 1)] {
        for (min_sup, min_conf, min_chi) in [(1, 0.0, 0.0), (2, 0.6, 0.0), (2, 0.0, 2.0)] {
            let params = MiningParams::new(class)
                .min_sup(min_sup)
                .min_conf(min_conf)
                .min_chi(min_chi);
            let mut obs = CountingObserver::default();
            let r = Farmer::new(params).mine_session(d, &MineControl::new(), &mut obs);
            let s = &r.stats;
            let tag = format!("class={class} min_sup={min_sup} min_conf={min_conf}");
            assert_eq!(obs.nodes, s.nodes_visited, "{tag}");
            assert_eq!(obs.pruned_duplicate, s.pruned_duplicate, "{tag}");
            assert_eq!(obs.pruned_loose, s.pruned_loose, "{tag}");
            assert_eq!(obs.pruned_tight_support, s.pruned_tight_support, "{tag}");
            assert_eq!(
                obs.pruned_tight_confidence, s.pruned_tight_confidence,
                "{tag}"
            );
            assert_eq!(obs.pruned_chi, s.pruned_chi, "{tag}");
            assert_eq!(
                obs.rejected_not_interesting, s.rejected_not_interesting,
                "{tag}"
            );
            assert_eq!(obs.emitted as usize, r.len(), "{tag}");
            assert_eq!(obs.workers, 0, "{tag}");
        }
    }
}

#[test]
fn observer_counts_equal_stats_parallel() {
    let paper = paper_example();
    let synth = workload();
    for (d, class) in [(&paper, 0u32), (&synth, 1)] {
        let params = MiningParams::new(class).min_sup(1).lower_bounds(false);
        let mut obs = CountingObserver::default();
        let r =
            Farmer::new(params)
                .with_parallelism(3)
                .mine_session(d, &MineControl::new(), &mut obs);
        let s = &r.stats;
        assert_eq!(obs.workers, 3);
        assert_eq!(obs.nodes, s.nodes_visited);
        assert_eq!(obs.pruned_duplicate, s.pruned_duplicate);
        assert_eq!(obs.pruned_loose, s.pruned_loose);
        assert_eq!(obs.pruned_tight_support, s.pruned_tight_support);
        assert_eq!(obs.pruned_tight_confidence, s.pruned_tight_confidence);
        assert_eq!(obs.pruned_chi, s.pruned_chi);
        assert_eq!(obs.rejected_not_interesting, s.rejected_not_interesting);
        assert_eq!(obs.emitted as usize, r.len());
    }
}

/// Keeps the step-7 rejections that arrive in the workers' tallies
/// apart from the `pruned(NotInteresting)` events of the merge.
#[derive(Default)]
struct RejectionSplit {
    /// `worker_finished` indices, in arrival order.
    workers: Vec<usize>,
    /// Rejections summed over the tallies.
    in_tallies: u64,
    /// `pruned(NotInteresting)` events.
    events: u64,
    /// Tallies that arrived after the first such event.
    late_tallies: usize,
}

impl MineObserver for RejectionSplit {
    fn pruned(&mut self, reason: PruneReason) {
        if reason == PruneReason::NotInteresting {
            self.events += 1;
        }
    }

    fn worker_finished(&mut self, worker: usize, tally: &MineStats) {
        self.workers.push(worker);
        self.in_tallies += tally.rejected_not_interesting;
        self.late_tallies += usize::from(self.events > 0);
    }
}

#[test]
fn parallel_workers_report_their_rejections_in_their_tallies() {
    // The leukemia analog of `tests/search_contract.rs`: a sequential
    // run rejects 115 groups. Each worker rejects the groups that a
    // group it accepted itself dominates, and counts them in its tally;
    // the merge rejects the rest, for dominators other workers found.
    let d = efficiency_dataset(PaperDataset::Leukemia, 0.05);
    let params = MiningParams::new(1).min_sup(6).lower_bounds(false);
    let seq = Farmer::new(params.clone()).mine(&d);
    assert_eq!(seq.stats.rejected_not_interesting, 115);
    for threads in [2, 4] {
        let mut obs = RejectionSplit::default();
        let r = Farmer::new(params.clone())
            .with_parallelism(threads)
            .mine_session(&d, &MineControl::new(), &mut obs);
        let tag = format!(
            "threads={threads}: {} in tallies, {} in the merge",
            obs.in_tallies, obs.events
        );
        assert!(obs.in_tallies > 0, "{tag}");
        assert_eq!(
            obs.in_tallies + obs.events,
            r.stats.rejected_not_interesting,
            "{tag}"
        );
        assert_eq!(
            r.stats.rejected_not_interesting, seq.stats.rejected_not_interesting,
            "{tag}"
        );
        assert_eq!(obs.workers, (0..threads).collect::<Vec<_>>(), "{tag}");
        assert_eq!(obs.late_tallies, 0, "{tag}: tallies after merge events");
    }
}

#[test]
fn parallel_observer_events_are_deterministic() {
    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let run = || {
        let mut obs = CountingObserver::default();
        Farmer::new(params.clone())
            .with_parallelism(4)
            .mine_session(&d, &MineControl::new(), &mut obs);
        obs
    };
    assert_eq!(run(), run());
}

#[test]
fn heartbeats_fire_on_cadence() {
    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let ctl = MineControl::new().with_heartbeat_every(64);
    let mut obs = CountingObserver::default();
    let r = Farmer::new(params).mine_session(&d, &ctl, &mut obs);
    assert_eq!(obs.heartbeats, r.stats.nodes_visited / 64);
    assert!(obs.heartbeats > 0, "workload too small for heartbeats");
}

/// Parity lint: every [`PruneReason`] variant must round-trip through
/// the exhaustive list, carry unique display/stats names, and map onto
/// exactly one [`CountingObserver`] field and one [`MineStats`] field.
/// Adding a variant without extending all of those is a compile error
/// (the `match`es are exhaustive) — this test pins the runtime wiring
/// the type system can't see.
#[test]
fn prune_reason_parity() {
    let all = PruneReason::ALL;

    // index() is the position in ALL, so the list is exhaustive and
    // duplicate-free
    for (i, r) in all.iter().enumerate() {
        assert_eq!(r.index(), i, "{r:?}");
        assert_eq!(all[r.index()], *r);
    }

    // display names and stats-json keys are non-empty and unique
    type Accessor = fn(&PruneReason) -> &'static str;
    for accessor in [
        PruneReason::as_str as Accessor,
        PruneReason::stats_key as Accessor,
    ] {
        let mut names: Vec<&str> = all.iter().map(accessor).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names collide");
    }

    // each pruned(r) event lands in exactly the CountingObserver field
    // pruned_count(r) reads, and in no other
    for &r in &all {
        let mut obs = CountingObserver::default();
        obs.pruned(r);
        for &other in &all {
            let expect = u64::from(other == r);
            assert_eq!(obs.pruned_count(other), expect, "{r:?} vs {other:?}");
        }
    }

    // MineStats::pruned_count reads one distinct field per variant
    let stats = MineStats {
        pruned_duplicate: 1,
        pruned_loose: 2,
        pruned_tight_support: 3,
        pruned_tight_confidence: 4,
        pruned_chi: 5,
        rejected_not_interesting: 6,
        pruned_floor: 7,
        ..MineStats::default()
    };
    let counts: Vec<u64> = all.iter().map(|&r| stats.pruned_count(r)).collect();
    assert_eq!(counts, [1, 2, 3, 4, 5, 6, 7]);
}

/// `with_heartbeat_every(0)` means *disabled*, not "a heartbeat every
/// node" — the regression this pins: `nodes % 0` would panic, and a
/// cadence check written as `nodes % every == 0` with `every = 0` did.
#[test]
fn heartbeat_every_zero_means_disabled() {
    assert!(!MineControl::heartbeat_due(0, 0));
    assert!(!MineControl::heartbeat_due(0, 1));
    assert!(!MineControl::heartbeat_due(0, u64::MAX));
    assert!(MineControl::heartbeat_due(64, 64));
    assert!(MineControl::heartbeat_due(64, 128));
    assert!(!MineControl::heartbeat_due(64, 65));

    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let ctl = MineControl::new().with_heartbeat_every(0);
    let mut obs = CountingObserver::default();
    let r = Farmer::new(params.clone()).mine_session(&d, &ctl, &mut obs);
    assert!(r.stats.nodes_visited > 0);
    assert_eq!(obs.heartbeats, 0, "cadence 0 must fire no heartbeats");

    // the other miners share the cadence rule
    let mut obs = CountingObserver::default();
    NaiveMiner {
        params: MiningParams::new(0).min_sup(1),
    }
    .mine_with(&paper_example(), &ctl, &mut obs);
    assert_eq!(obs.heartbeats, 0);
    let mut obs = CountingObserver::default();
    TopKMiner {
        class: 1,
        k: 2,
        min_sup: 2,
    }
    .mine_with(&d, &ctl, &mut obs);
    assert_eq!(obs.heartbeats, 0);
}

/// Heartbeat snapshots advance monotonically: both the node counter and
/// the elapsed clock never run backwards between consecutive beats.
#[test]
fn heartbeat_elapsed_is_monotonic() {
    #[derive(Default)]
    struct Beats {
        nodes: Vec<u64>,
        elapsed: Vec<Duration>,
    }
    impl MineObserver for Beats {
        fn heartbeat(&mut self, hb: &Heartbeat) {
            self.nodes.push(hb.nodes_visited);
            self.elapsed.push(hb.elapsed);
        }
    }
    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let ctl = MineControl::new().with_heartbeat_every(32);
    let mut obs = Beats::default();
    Farmer::new(params).mine_session(&d, &ctl, &mut obs);
    assert!(obs.nodes.len() > 1, "workload too small: {:?}", obs.nodes);
    for w in obs.nodes.windows(2) {
        assert!(w[0] < w[1], "node counter regressed: {:?}", obs.nodes);
    }
    for w in obs.elapsed.windows(2) {
        assert!(w[0] <= w[1], "elapsed regressed: {:?}", obs.elapsed);
    }
}

#[test]
fn dyn_miner_dispatch_covers_core_miners() {
    let d = paper_example();
    let params = MiningParams::new(0).min_sup(1).lower_bounds(false);
    let miners: Vec<Box<dyn Miner>> = vec![
        Box::new(Farmer::new(params.clone())),
        Box::new(TopKMiner {
            class: 0,
            k: 2,
            min_sup: 1,
        }),
        Box::new(NaiveMiner {
            params: params.clone(),
        }),
    ];
    for m in &miners {
        let r = m.mine_unobserved(&d);
        assert!(!r.groups.is_empty(), "{}", m.name());
        assert!(r.stats.stop.is_complete(), "{}", m.name());

        let cancelled = MineControl::new();
        cancelled.cancel();
        let r = m.mine_with(&d, &cancelled, &mut NoOpObserver);
        assert_eq!(r.stats.stop, StopCause::Cancelled, "{}", m.name());
        assert!(r.stats.budget_exhausted, "{}", m.name());
    }
    assert_eq!(
        miners.iter().map(|m| m.name()).collect::<Vec<_>>(),
        ["farmer", "topk", "naive"]
    );
}
