//! The pinning property of the whole subsystem: an [`IncrementalMiner`]
//! fed row deltas one batch at a time produces **byte-identical**
//! output (canonical order, `dump_groups` text) to a cold full mine of
//! the merged dataset — across multiple delta sizes, sequential
//! deltas, and every constraint family the
//! miner supports (support, raw and lift/conviction-tightened
//! confidence, χ², footnote-3 extras, lower bounds on and off).

use farmer_core::{canonical_sort, dump_groups, Engine, ExtraConstraint, Farmer, MiningParams};
use farmer_dataset::{ClassLabel, Dataset, DatasetBuilder};
use farmer_pipeline::IncrementalMiner;
use farmer_support::rng::{Rng, SeedableRng, StdRng};
use rowset::IdList;

const N_ITEMS: u32 = 10;

/// Random transactional rows over a fixed 10-item universe, ~40%
/// density, labels roughly balanced. The first generated row may be
/// empty — the journal and the miner must both cope.
fn random_rows(rng: &mut StdRng, n: usize) -> Vec<(Vec<u32>, ClassLabel)> {
    (0..n)
        .map(|_| {
            let items: Vec<u32> = (0..N_ITEMS).filter(|_| rng.gen_bool(0.4)).collect();
            (items, u32::from(rng.gen_bool(0.45)))
        })
        .collect()
}

fn build(rows: &[(Vec<u32>, ClassLabel)]) -> Dataset {
    let mut b = DatasetBuilder::new(2);
    // Pin the item universe and both classes so appended rows always
    // reference known dictionaries.
    b.add_row(0..N_ITEMS, 0);
    b.add_row([0], 1);
    for (items, label) in rows {
        b.add_row(items.iter().copied(), *label);
    }
    b.build()
}

fn as_delta(rows: &[(Vec<u32>, ClassLabel)]) -> Vec<(IdList, ClassLabel)> {
    rows.iter()
        .map(|(items, label)| (IdList::from_iter(items.iter().copied()), *label))
        .collect()
}

/// Cold reference: full mine of every class on the merged dataset.
fn cold_dump(data: &Dataset, template: &MiningParams) -> String {
    let mut all = Vec::new();
    for class in 0..data.n_classes() as ClassLabel {
        let mut p = template.clone();
        p.target_class = class;
        all.extend(Farmer::new(p).mine(data).groups);
    }
    canonical_sort(&mut all);
    dump_groups(&all)
}

/// Drives one scenario: bootstrap on the base, then apply `deltas`
/// sequentially, comparing against a cold remine after every step.
fn check(seed: u64, template: &MiningParams, delta_sizes: &[usize], label: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base_rows = random_rows(&mut rng, 14);
    let base = build(&base_rows);
    let mut inc = IncrementalMiner::new(base.clone(), template.clone(), Engine::Bitset, 1);
    let mut merged = base;
    for (step, &size) in delta_sizes.iter().enumerate() {
        let delta_rows = random_rows(&mut rng, size);
        let delta = as_delta(&delta_rows);
        inc.apply_rows(&delta).unwrap();
        merged = merged.appended(&delta).unwrap();
        let incremental = dump_groups(&inc.groups());
        let cold = cold_dump(&merged, template);
        assert_eq!(
            incremental, cold,
            "divergence: seed={seed} params={label} step={step} (+{size} rows)"
        );
    }
}

// ≥ 2 delta sizes, applied sequentially: a single row, then a burst.
const DELTAS: [usize; 3] = [1, 4, 7];

#[test]
fn incremental_matches_cold_mine_plain_thresholds() {
    let template = MiningParams::new(0).min_sup(2).lower_bounds(false);
    for seed in 0..4 {
        check(seed, &template, &DELTAS, "min_sup=2");
    }
}

#[test]
fn incremental_matches_cold_mine_with_lower_bounds() {
    let template = MiningParams::new(0).min_sup(2).lower_bounds(true);
    for seed in 10..13 {
        check(seed, &template, &DELTAS, "min_sup=2+lb");
    }
}

#[test]
fn incremental_matches_cold_mine_with_confidence_and_chi() {
    let template = MiningParams::new(0)
        .min_sup(2)
        .min_conf(0.6)
        .min_chi(1.0)
        .lower_bounds(true);
    for seed in 20..23 {
        check(seed, &template, &DELTAS, "conf=0.6,chi=1");
    }
}

#[test]
fn incremental_matches_cold_mine_with_footnote3_extras() {
    // Lift tightens the effective confidence (margin-dependent), gini
    // exercises the convex-measure path.
    let template = MiningParams::new(0)
        .min_sup(2)
        .constrain(ExtraConstraint::MinLift(1.1))
        .constrain(ExtraConstraint::MinGiniGain(0.01))
        .lower_bounds(false);
    for seed in 30..33 {
        check(seed, &template, &DELTAS, "lift=1.1,gini=0.01");
    }
}

#[test]
fn incremental_matches_cold_mine_on_large_relative_deltas() {
    // Deltas comparable to the base size — the frontier restriction
    // must stay exact even when most rows are new.
    let template = MiningParams::new(0).min_sup(2).min_conf(0.5);
    for seed in 40..42 {
        check(seed, &template, &[10, 14], "half-new");
    }
}
