//! Determinism regression matrix for the deque scheduler: the canonical
//! `dump_groups` output must be **byte-identical** across every
//! {threads} × {engine} combination, pinned against the 1-thread bitset
//! run of the same workload.
//!
//! The workloads come from the bench crate (a dev-only dependency):
//! `skewed_synth` is the hub-skewed dataset whose depth-1 imbalance
//! drives both stealing and adaptive splitting, and the Leukemia analog
//! is the largest paper-shaped fixture that still mines in test time.

use farmer_bench::workloads::{efficiency_dataset, skewed_synth, SKEWED_SYNTH_PARAMS};
use farmer_core::{canonical_sort, dump_groups, Engine, Farmer, MiningParams};
use farmer_dataset::synth::PaperDataset;
use farmer_dataset::Dataset;

/// Mines and returns the canonical byte dump plus the deterministic
/// mining counters.
fn mine_dump(
    data: &Dataset,
    params: &MiningParams,
    engine: Engine,
    threads: usize,
) -> (String, farmer_core::MineStats) {
    let result = Farmer::new(params.clone())
        .with_engine(engine)
        .with_parallelism(threads)
        .mine(data);
    let mut groups = result.groups;
    canonical_sort(&mut groups);
    (dump_groups(&groups), result.stats)
}

fn assert_matrix_pinned(data: &Dataset, params: &MiningParams, label: &str) {
    let (reference, ref_stats) = mine_dump(data, params, Engine::Bitset, 1);
    assert!(!reference.is_empty(), "{label}: trivial reference run");
    for engine in [Engine::Bitset, Engine::PointerList] {
        for threads in [1usize, 2, 4, 8] {
            let (dump, mut stats) = mine_dump(data, params, engine, threads);
            assert_eq!(
                dump, reference,
                "{label}: dump diverged at {engine:?} t={threads}"
            );
            // every parallel worker tallies the shared root once
            // (long-standing convention, pinned by parallel.rs);
            // normalize it away, then every deterministic counter must
            // match
            stats.nodes_visited -= threads as u64 - 1;
            assert_eq!(
                stats, ref_stats,
                "{label}: stats diverged at {engine:?} t={threads}"
            );
        }
    }
}

#[test]
fn skewed_synth_matrix_is_byte_identical() {
    let data = skewed_synth();
    let (class, min_sup) = SKEWED_SYNTH_PARAMS;
    let params = MiningParams::new(class)
        .min_sup(min_sup)
        .lower_bounds(false);
    assert_matrix_pinned(&data, &params, "skewed_synth");
}

#[test]
fn skewed_synth_matrix_with_thresholds() {
    // confidence + chi thresholds exercise the tight-bound prunes under
    // every schedule
    let data = skewed_synth();
    let (class, min_sup) = SKEWED_SYNTH_PARAMS;
    let params = MiningParams::new(class)
        .min_sup(min_sup + 1)
        .min_conf(0.7)
        .min_chi(1.0)
        .lower_bounds(false);
    assert_matrix_pinned(&data, &params, "skewed_synth+thresholds");
}

#[test]
fn leukemia_analog_matrix_is_byte_identical() {
    let data = efficiency_dataset(PaperDataset::Leukemia, 0.05);
    let params = MiningParams::new(1).min_sup(6).lower_bounds(false);
    assert_matrix_pinned(&data, &params, "leukemia_analog");
}

#[test]
fn leukemia_analog_matrix_with_lower_bounds() {
    // lower bounds on: at t > 1 MineLB runs on the worker threads, and
    // the dump (lower bounds included) must not move
    let data = efficiency_dataset(PaperDataset::Leukemia, 0.05);
    let params = MiningParams::new(1).min_sup(6);
    assert!(params.lower_bounds);
    assert_matrix_pinned(&data, &params, "leukemia_analog+lower_bounds");
}
