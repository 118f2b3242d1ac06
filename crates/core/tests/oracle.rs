//! FARMER vs the brute-force oracle: on small datasets the miner must
//! reproduce the oracle's IRGs *exactly* — upper bounds, support sets,
//! counts, and lower bounds — for every pruning configuration.

use farmer_core::naive::{mine_naive, naive_lower_bounds};
use farmer_core::{ExtraConstraint, Farmer, MiningParams, PruningConfig, RuleGroup};
use farmer_dataset::{paper_example, Dataset, DatasetBuilder};
use farmer_support::rng::{Rng, SeedableRng, StdRng};

/// Canonical, comparable form of one group:
/// (upper, support rows, sup, neg_sup, sorted lower bounds).
type CanonGroup = (Vec<u32>, Vec<usize>, usize, usize, Vec<Vec<u32>>);

/// Canonical, comparable form of a result set.
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

fn pruning_configs() -> Vec<PruningConfig> {
    let b = [false, true];
    let mut v = Vec::new();
    for s1 in b {
        for s2 in b {
            for s3l in b {
                for s3t in b {
                    v.push(PruningConfig {
                        strategy1_compression: s1,
                        strategy2_duplicate: s2,
                        strategy3_loose: s3l,
                        strategy3_tight: s3t,
                    });
                }
            }
        }
    }
    v
}

fn check_all_configs(data: &Dataset, params: &MiningParams) {
    let expected = canon(&mine_naive(data, params));
    for pruning in pruning_configs() {
        let result = Farmer::new(params.clone()).with_pruning(pruning).mine(data);
        assert_eq!(
            canon(&result.groups),
            expected,
            "mismatch: pruning={pruning:?} params={params:?}"
        );
    }
}

fn random_dataset(rng: &mut StdRng, n_rows: usize, n_items: usize, density: f64) -> Dataset {
    let mut b = DatasetBuilder::new(2);
    for _ in 0..n_rows {
        let items: Vec<u32> = (0..n_items as u32)
            .filter(|_| rng.gen_bool(density))
            .collect();
        let label = u32::from(rng.gen_bool(0.5));
        b.add_row(items, label);
    }
    b.build()
}

#[test]
fn paper_example_all_configs() {
    let d = paper_example();
    for class in [0u32, 1] {
        for (min_sup, min_conf, min_chi) in [
            (1, 0.0, 0.0),
            (2, 0.0, 0.0),
            (3, 0.0, 0.0),
            (1, 0.6, 0.0),
            (1, 0.9, 0.0),
            (2, 0.5, 0.0),
        ] {
            let params = MiningParams::new(class)
                .min_sup(min_sup)
                .min_conf(min_conf)
                .min_chi(min_chi);
            check_all_configs(&d, &params);
        }
    }
}

#[test]
fn paper_example_chi_thresholds() {
    let d = paper_example();
    for min_chi in [0.5, 1.0, 2.0, 5.0] {
        let params = MiningParams::new(0).min_sup(1).min_chi(min_chi);
        check_all_configs(&d, &params);
    }
}

#[test]
fn random_datasets_default_pruning() {
    let mut rng = StdRng::seed_from_u64(42);
    for trial in 0..30 {
        let n_rows = rng.gen_range(3..=10);
        let n_items = rng.gen_range(3..=14);
        let density = rng.gen_range(0.25..0.75);
        let d = random_dataset(&mut rng, n_rows, n_items, density);
        let params = MiningParams::new(rng.gen_range(0..2))
            .min_sup(rng.gen_range(1..=3))
            .min_conf([0.0, 0.5, 0.8][rng.gen_range(0..3usize)])
            .min_chi([0.0, 0.0, 1.0][rng.gen_range(0..3usize)]);
        let expected = canon(&mine_naive(&d, &params));
        let result = Farmer::new(params.clone()).mine(&d);
        assert_eq!(
            canon(&result.groups),
            expected,
            "trial={trial} params={params:?}"
        );
    }
}

#[test]
fn random_datasets_all_pruning_configs() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..6 {
        let d = random_dataset(&mut rng, 7, 9, 0.5);
        let params = MiningParams::new(0)
            .min_sup(1 + trial % 3)
            .min_conf([0.0, 0.6][trial % 2])
            .lower_bounds(false);
        check_all_configs(&d, &params);
    }
}

#[test]
fn degenerate_datasets() {
    // single row
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0));
    check_all_configs(&d, &MiningParams::new(1));

    // all rows identical
    let mut b = DatasetBuilder::new(2);
    for i in 0..4 {
        b.add_row([0, 1], u32::from(i >= 2));
    }
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0).min_sup(2));

    // disjoint rows (no 2-row group exists)
    let mut b = DatasetBuilder::new(2);
    b.add_row([0], 0);
    b.add_row([1], 0);
    b.add_row([2], 1);
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0));

    // a row with no items at all
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1], 0);
    b.add_row(std::iter::empty(), 0);
    b.add_row([1], 1);
    let d = b.build();
    check_all_configs(&d, &MiningParams::new(0));
}

/// `n` rows, the first `m` in class 0, with item 0 in `y` class rows
/// and `x − y` others, so the group `{0}` has confidence `y / x`. Items
/// 1 and 2 (every second and every third row) add groups around it.
fn tie_dataset(n: usize, m: usize, x: usize, y: usize) -> Dataset {
    let mut b = DatasetBuilder::new(2);
    for r in 0..n {
        let item0 = if r < m { r < y } else { r - m < x - y };
        let items = [(0, item0), (1, r % 2 == 0), (2, r % 3 == 0)];
        b.add_row(
            items.iter().filter(|(_, on)| *on).map(|&(i, _)| i),
            u32::from(r >= m),
        );
    }
    b.build()
}

#[test]
fn extra_constraints_match_oracle() {
    // `{0}` meets the extra exactly: confidence 7/10 has lift 1.2 at 7
    // of 12 rows in the class, and 3/7 has conviction 1.25 at 4 of 14
    let tie = |n, m, x, y, extra| {
        let params = MiningParams::new(0)
            .min_sup(1)
            .lower_bounds(false)
            .constrain(extra);
        (tie_dataset(n, m, x, y), params)
    };
    for (d, params) in [
        tie(12, 7, 10, 7, ExtraConstraint::MinLift(1.2)),
        tie(14, 4, 7, 3, ExtraConstraint::MinConviction(1.25)),
    ] {
        check_all_configs(&d, &params);
    }
    // the oracle stops at 20 rows: at 25 rows, 4 in the class, every
    // configuration keeps `{0}` at confidence 3/10 and conviction 1.2
    let (d, params) = tie(25, 4, 10, 3, ExtraConstraint::MinConviction(1.2));
    for pruning in pruning_configs() {
        let got = Farmer::new(params.clone()).with_pruning(pruning).mine(&d);
        assert!(
            got.groups.iter().any(|g| g.upper.as_slice() == [0]),
            "pruning={pruning:?}"
        );
    }
    let d = paper_example();
    let extras: Vec<Vec<ExtraConstraint>> = vec![
        vec![ExtraConstraint::MinLift(1.2)],
        vec![ExtraConstraint::MinConviction(1.5)],
        vec![ExtraConstraint::MinEntropyGain(0.2)],
        vec![ExtraConstraint::MinGiniGain(0.1)],
        vec![ExtraConstraint::MinCorrelation(0.3)],
        vec![
            ExtraConstraint::MinLift(1.1),
            ExtraConstraint::MinEntropyGain(0.1),
        ],
    ];
    for extra in extras {
        for class in [0u32, 1] {
            let mut params = MiningParams::new(class).min_sup(1).lower_bounds(false);
            params.extra = extra.clone();
            check_all_configs(&d, &params);
        }
    }
}

#[test]
fn extra_constraints_on_random_data() {
    let mut rng = StdRng::seed_from_u64(55);
    for trial in 0..8 {
        let d = random_dataset(&mut rng, 7, 10, 0.5);
        let mut params = MiningParams::new(0).min_sup(1).lower_bounds(false);
        params.extra = vec![
            [
                ExtraConstraint::MinLift(1.3),
                ExtraConstraint::MinConviction(1.2),
                ExtraConstraint::MinEntropyGain(0.15),
                ExtraConstraint::MinGiniGain(0.08),
            ][trial % 4],
        ];
        let expected = canon(&mine_naive(&d, &params));
        let got = Farmer::new(params.clone()).mine(&d);
        assert_eq!(canon(&got.groups), expected, "trial={trial}");
    }
}

#[test]
fn replicated_rows() {
    let d = paper_example();
    let rep = farmer_dataset::replicate::replicate_rows(&d, 2);
    // 10 rows: still oracle-checkable
    let params = MiningParams::new(0).min_sup(2).lower_bounds(false);
    check_all_configs(&rep, &params);
}

#[test]
fn lower_bounds_match_naive_on_mined_groups() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let d = random_dataset(&mut rng, 6, 8, 0.55);
        let params = MiningParams::new(0).min_sup(1);
        let result = Farmer::new(params).mine(&d);
        for g in &result.groups {
            let mut got: Vec<Vec<u32>> = g.lower.iter().map(|l| l.as_slice().to_vec()).collect();
            got.sort();
            let mut want: Vec<Vec<u32>> = naive_lower_bounds(&g.upper, &g.support_set, &d)
                .iter()
                .map(|l| l.as_slice().to_vec())
                .collect();
            want.sort();
            assert_eq!(got, want, "lower bounds differ for {:?}", g.upper);
        }
    }
}

#[test]
fn paper_example_known_irg() {
    // The running example: group {a,e,h} -> C covers rows r2,r3,r4 with
    // confidence 2/3, and is dominated by {a} -> C (conf 3/4): with
    // min_conf = 0 the {a} group must be an IRG and {a,e,h} must not.
    let d = paper_example();
    let result = Farmer::new(MiningParams::new(0)).mine(&d);
    let name = |g: &RuleGroup| -> String {
        g.upper
            .iter()
            .map(|i| d.item_name(i).to_string())
            .collect::<Vec<_>>()
            .join("")
    };
    let uppers: Vec<String> = result.groups.iter().map(&name).collect();
    assert!(uppers.iter().any(|u| u == "a"), "{uppers:?}");
    assert!(!uppers.iter().any(|u| u == "aeh"), "{uppers:?}");
    // the {a} group: support set = rows 0..3, sup 3, neg 1
    let a_group = result.groups.iter().find(|g| name(g) == "a").unwrap();
    assert_eq!(a_group.support_set.to_vec(), vec![0, 1, 2, 3]);
    assert_eq!(a_group.sup, 3);
    assert_eq!(a_group.neg_sup, 1);
}

#[test]
fn stats_reflect_pruning() {
    let d = paper_example();
    let full = Farmer::new(MiningParams::new(0)).mine(&d);
    let none = Farmer::new(MiningParams::new(0))
        .with_pruning(PruningConfig::none())
        .mine(&d);
    assert!(full.stats.nodes_visited <= none.stats.nodes_visited);
    assert_eq!(canon(&full.groups), canon(&none.groups));
    // thresholds engage the bound counters
    let tight = Farmer::new(MiningParams::new(0).min_sup(3).min_conf(0.9)).mine(&d);
    let s = &tight.stats;
    assert!(
        s.pruned_loose + s.pruned_tight_support + s.pruned_tight_confidence > 0,
        "{s:?}"
    );
}
