//! Node-budget semantics: truncation is flagged, results stay valid,
//! and everything returned is a subset of the unbudgeted answer.

use farmer_core::{Farmer, MineControl, MineResult, MiningParams, NoOpObserver};
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::SynthConfig;
use std::collections::HashSet;

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

fn mine_with_budget(params: MiningParams, d: &farmer_dataset::Dataset, budget: u64) -> MineResult {
    let ctl = MineControl::new().with_node_budget(Some(budget));
    Farmer::new(params).mine_session(d, &ctl, &mut NoOpObserver)
}

#[test]
fn budget_flag_and_subset() {
    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let full = Farmer::new(params.clone()).mine(&d);
    assert!(!full.stats.budget_exhausted);
    assert!(
        full.len() > 5,
        "need a non-trivial workload: {}",
        full.len()
    );

    let tiny = mine_with_budget(params, &d, full.stats.nodes_visited / 4);
    assert!(tiny.stats.budget_exhausted);
    assert!(tiny.stats.nodes_visited <= full.stats.nodes_visited / 4 + 1);

    // every truncated group is a genuine rule group meeting thresholds
    let full_uppers: HashSet<Vec<u32>> = full
        .groups
        .iter()
        .map(|g| g.upper.as_slice().to_vec())
        .collect();
    for g in &tiny.groups {
        assert!(
            full_uppers.contains(g.upper.as_slice()) || {
                // a truncated run may keep a group the full run later
                // rejected as dominated — but it must still be valid
                d.items_common_to(&d.rows_supporting(&g.upper)) == g.upper
            }
        );
        assert!(g.sup >= 2);
        assert_eq!(d.rows_supporting(&g.upper), g.support_set);
    }
}

#[test]
fn generous_budget_changes_nothing() {
    let d = workload();
    let params = MiningParams::new(1).min_sup(2).lower_bounds(false);
    let full = Farmer::new(params.clone()).mine(&d);
    let budgeted = mine_with_budget(params, &d, u64::MAX / 2);
    assert!(!budgeted.stats.budget_exhausted);
    let canon = |r: &MineResult| -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = r
            .groups
            .iter()
            .map(|g| g.upper.as_slice().to_vec())
            .collect();
        v.sort();
        v
    };
    assert_eq!(canon(&full), canon(&budgeted));
}

#[test]
fn budget_of_one_returns_empty() {
    let d = workload();
    let r = mine_with_budget(MiningParams::new(1), &d, 1);
    assert!(r.stats.budget_exhausted);
    assert!(r.is_empty());
}

#[test]
fn stats_counters_populate() {
    let d = workload();
    let r = Farmer::new(MiningParams::new(1).min_sup(3).min_conf(0.9).min_chi(3.0)).mine(&d);
    let s = &r.stats;
    assert!(s.nodes_visited > 0);
    // with all three thresholds active, some bound must have fired
    assert!(
        s.pruned_loose + s.pruned_tight_support + s.pruned_tight_confidence + s.pruned_chi > 0,
        "{s:?}"
    );
    assert!(!s.budget_exhausted);
}
