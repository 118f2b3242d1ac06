//! Long randomized consistency sweep (ignored by default):
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```

use farmer_suite::baselines::charm::{charm, charm_diffsets};
use farmer_suite::baselines::closet::closet;
use farmer_suite::baselines::column_e::column_e;
use farmer_suite::core::carpenter::carpenter;
use farmer_suite::core::cobbler::{cobbler, SwitchPolicy};
use farmer_suite::core::naive::mine_naive;
use farmer_suite::core::{Farmer, MiningParams};
use farmer_suite::dataset::DatasetBuilder;
use farmer_support::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashSet;

/// 8-thread hammer on small random datasets: with more workers than
/// depth-1 subtrees on most trials, deques run dry constantly and the
/// steal and split paths race on every run. The sequential run is the
/// oracle: the parallel result must contain exactly the same groups
/// (none lost, none duplicated by a missed dedupe). Seeded, so failures
/// replay.
#[test]
fn parallel_hammer_vs_sequential_oracle() {
    let mut rng = StdRng::seed_from_u64(0xFA12_6B07);
    for trial in 0..25 {
        let n_rows = rng.gen_range(8..=16);
        let n_items = rng.gen_range(8..=20);
        let density = rng.gen_range(0.3..0.8);
        let mut b = DatasetBuilder::new(2);
        for _ in 0..n_rows {
            let items: Vec<u32> = (0..n_items as u32)
                .filter(|_| rng.gen_bool(density))
                .collect();
            b.add_row(items, u32::from(rng.gen_bool(0.5)));
        }
        let d = b.build();
        let params = MiningParams::new(rng.gen_range(0..2))
            .min_sup(rng.gen_range(1..=2))
            .min_conf([0.0, 0.6][trial % 2])
            .lower_bounds(false);

        let canon = |groups: &[farmer_suite::core::RuleGroup]| -> Vec<(Vec<u32>, usize, usize)> {
            let mut v: Vec<_> = groups
                .iter()
                .map(|g| (g.upper.as_slice().to_vec(), g.sup, g.neg_sup))
                .collect();
            v.sort();
            v
        };
        let oracle = Farmer::new(params.clone()).mine(&d);
        let want = canon(&oracle.groups);

        let got = Farmer::new(params.clone()).with_parallelism(8).mine(&d);
        let got_canon = canon(&got.groups);
        // no duplicate closed groups survive the merge
        let mut dedup = got_canon.clone();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            got_canon.len(),
            "trial {trial}: duplicate groups"
        );
        // no lost groups, none invented
        assert_eq!(got_canon, want, "trial {trial}");
    }
}

#[test]
#[ignore = "long randomized sweep; use --release -- --ignored"]
fn randomized_cross_miner_consistency() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for trial in 0..150 {
        let n_rows = rng.gen_range(3..=12);
        let n_items = rng.gen_range(3..=14);
        let density = rng.gen_range(0.2..0.8);
        let mut b = DatasetBuilder::new(2);
        for _ in 0..n_rows {
            let items: Vec<u32> = (0..n_items as u32)
                .filter(|_| rng.gen_bool(density))
                .collect();
            b.add_row(items, u32::from(rng.gen_bool(0.5)));
        }
        let d = b.build();
        let min_sup = rng.gen_range(1..=4);

        // closed-set miners agree
        let canon_closed =
            |v: Vec<(Vec<u32>, usize)>| -> HashSet<(Vec<u32>, usize)> { v.into_iter().collect() };
        let carp = canon_closed(
            carpenter(&d, min_sup)
                .patterns
                .into_iter()
                .map(|p| {
                    let s = p.support();
                    (p.items.as_slice().to_vec(), s)
                })
                .collect(),
        );
        let ch = canon_closed(
            charm(&d, min_sup)
                .closed
                .into_iter()
                .map(|c| {
                    let s = c.support();
                    (c.items.as_slice().to_vec(), s)
                })
                .collect(),
        );
        let dch = canon_closed(
            charm_diffsets(&d, min_sup)
                .closed
                .into_iter()
                .map(|c| {
                    let s = c.support();
                    (c.items.as_slice().to_vec(), s)
                })
                .collect(),
        );
        let cl = canon_closed(
            closet(&d, min_sup)
                .closed
                .into_iter()
                .map(|c| (c.items.as_slice().to_vec(), c.support))
                .collect(),
        );
        let cob = canon_closed(
            cobbler(&d, min_sup, SwitchPolicy::Auto)
                .patterns
                .into_iter()
                .map(|p| (p.items.as_slice().to_vec(), p.support))
                .collect(),
        );
        assert_eq!(carp, ch, "trial {trial}");
        assert_eq!(ch, dch, "trial {trial}");
        assert_eq!(ch, cl, "trial {trial}");
        assert_eq!(ch, cob, "trial {trial}");

        // IRG miners agree with the oracle
        let params = MiningParams::new(rng.gen_range(0..2))
            .min_sup(min_sup.min(2))
            .min_conf([0.0, 0.5, 0.8][trial % 3])
            .min_chi([0.0, 1.0][trial % 2])
            .lower_bounds(false);
        let canon_groups =
            |groups: &[farmer_suite::core::RuleGroup]| -> HashSet<(Vec<u32>, usize, usize)> {
                groups
                    .iter()
                    .map(|g| (g.upper.as_slice().to_vec(), g.sup, g.neg_sup))
                    .collect()
            };
        let want = canon_groups(&mine_naive(&d, &params));
        let got = Farmer::new(params.clone()).mine(&d);
        assert_eq!(canon_groups(&got.groups), want, "trial {trial}");
        let par = Farmer::new(params.clone()).with_parallelism(3).mine(&d);
        assert_eq!(canon_groups(&par.groups), want, "trial {trial} parallel");
        let cole = column_e(&d, &params, Some(50_000_000)).expect_done("small data");
        assert_eq!(canon_groups(&cole.groups), want, "trial {trial} column_e");
    }
}
