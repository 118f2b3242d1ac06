//! Pins what the three row-enumeration miners — FARMER, top-k covering
//! groups and CARPENTER — visit, prune and emit on one realistic input.
//!
//! The three share one depth-first search over row combinations and
//! differ only in their bounds and their emission, so a change to that
//! search which alters any miner's node count, prune tallies, observer
//! events or output fails here. The input is the efficiency benchmarks'
//! leukemia analog at 5% of the paper's columns (72 rows, equal-depth
//! discretization into 10 buckets), class 1, `min_sup` 6. The three
//! mines take well under a second in a debug build.

use farmer_suite::core::carpenter::carpenter;
use farmer_suite::core::topk::{mine_top_k_session, TopKResult};
use farmer_suite::core::{
    dump_groups, CountingObserver, Farmer, MineControl, MineStats, MiningParams, StopCause,
};
use farmer_suite::dataset::discretize::Discretizer;
use farmer_suite::dataset::synth::PaperDataset;
use farmer_suite::dataset::Dataset;
use farmer_support::hash::{fnv1a, Fnv1a};

const CLASS: u32 = 1;
const MIN_SUP: usize = 6;

fn leukemia_analog() -> Dataset {
    let m = PaperDataset::Leukemia.synth_config(0.05).generate();
    Discretizer::EqualDepth { buckets: 10 }.discretize(&m)
}

#[test]
fn farmer_groups_and_counters_are_pinned() {
    let d = leukemia_analog();
    let params = MiningParams::new(CLASS)
        .min_sup(MIN_SUP)
        .lower_bounds(false);
    let r = Farmer::new(params).mine(&d);
    assert_eq!(r.len(), 1_219);
    assert_eq!(
        r.stats,
        MineStats {
            nodes_visited: 50_469,
            pruned_duplicate: 10_590,
            pruned_loose: 27_631,
            pruned_tight_support: 6_796,
            rows_compressed: 3_559,
            rejected_not_interesting: 115,
            ..Default::default()
        }
    );
    assert_eq!(fnv1a(dump_groups(&r.groups).as_bytes()), 0x8b7ad168b404aa52);
}

/// Digest of every row's list, best first: each group's upper bound,
/// support and negative support, in list order.
fn per_row_digest(r: &TopKResult) -> u64 {
    let mut h = Fnv1a::new();
    for list in &r.per_row {
        h.write_u64(list.len() as u64);
        for g in list {
            h.write_u64(g.upper.len() as u64);
            for i in g.upper.iter() {
                h.write_u32(i);
            }
            h.write_u64(g.sup as u64);
            h.write_u64(g.neg_sup as u64);
        }
    }
    h.finish()
}

#[test]
fn top_k_lists_and_counters_are_pinned() {
    let d = leukemia_analog();
    // (k, pruned_floor, emitted, per-row digest)
    for (k, floor, emitted, digest) in [
        (1, 132, 1_202, 0x6bfe148137b676fe),
        (3, 117, 1_217, 0xf46cfcf4ac0bc94b),
    ] {
        let mut obs = CountingObserver::default();
        let r = mine_top_k_session(&d, CLASS, k, MIN_SUP, &MineControl::new(), &mut obs);
        assert_eq!(r.stop, StopCause::Completed, "k={k}");
        assert_eq!(r.nodes_visited, 50_469, "k={k}");
        assert_eq!(obs.nodes, r.nodes_visited, "k={k}");
        assert_eq!(r.pruned_floor, floor, "k={k}");
        assert_eq!(obs.pruned_floor, floor, "k={k}");
        assert_eq!(obs.emitted, emitted, "k={k}");
        assert_eq!(per_row_digest(&r), digest, "k={k}");
        if k == 1 {
            assert_eq!(obs.pruned_duplicate, 27_807);
            assert_eq!(obs.pruned_tight_support, 17_210);
        }
    }
}

#[test]
fn carpenter_patterns_and_counters_are_pinned() {
    let d = leukemia_analog();
    let r = carpenter(&d, MIN_SUP);
    assert_eq!(r.patterns.len(), 3_787);
    assert_eq!(
        (
            r.stats.nodes_visited,
            r.stats.pruned_support,
            r.stats.pruned_duplicate
        ),
        (178_875, 58_965, 77_182)
    );
    // the patterns in emission order, each its items and its rows
    let mut h = Fnv1a::new();
    for p in &r.patterns {
        h.write_u64(p.items.len() as u64);
        for i in p.items.iter() {
            h.write_u32(i);
        }
        for w in p.rows.words() {
            h.write_u64(*w);
        }
    }
    assert_eq!(h.finish(), 0x3ba126a331652150);
}
