//! Property-based agreement tests: every miner in the workspace answers
//! the same questions identically.

use farmer_baselines::apriori::apriori;
use farmer_baselines::charm::charm;
use farmer_baselines::closet::closet;
use farmer_baselines::column_e::column_e;
use farmer_core::carpenter::carpenter;
use farmer_core::{ExtraConstraint, Farmer, MiningParams};
use farmer_dataset::{Dataset, DatasetBuilder};
use farmer_support::check::prelude::*;
use std::collections::HashSet;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (3usize..8, 3usize..10).prop_flat_map(|(n_rows, n_items)| {
        collection::vec(
            (
                collection::btree_set(0..n_items as u32, 1..n_items),
                0u32..2,
            ),
            n_rows,
        )
        .prop_map(|rows| {
            let mut b = DatasetBuilder::new(2);
            for (items, label) in rows {
                b.add_row(items, label);
            }
            b.build()
        })
    })
}

check! {
    #![config(cases = 64)]

    /// CHARM = CLOSET+ = CARPENTER, closed set for closed set.
    #[test]
    fn closed_miners_agree(d in arb_dataset(), min_sup in 1usize..4) {
        let carp: HashSet<(Vec<u32>, usize)> = carpenter(&d, min_sup)
            .patterns
            .into_iter()
            .map(|p| {
                let s = p.support();
                (p.items.as_slice().to_vec(), s)
            })
            .collect();
        let ch: HashSet<(Vec<u32>, usize)> = charm(&d, min_sup)
            .closed
            .into_iter()
            .map(|c| {
                let s = c.support();
                (c.items.as_slice().to_vec(), s)
            })
            .collect();
        let cl: HashSet<(Vec<u32>, usize)> = closet(&d, min_sup)
            .closed
            .into_iter()
            .map(|c| (c.items.as_slice().to_vec(), c.support))
            .collect();
        prop_assert_eq!(&carp, &ch);
        prop_assert_eq!(&ch, &cl);
    }

    /// Apriori's frequent itemsets contain every closed set, and the
    /// closure of every frequent itemset is a mined closed set with the
    /// same support.
    #[test]
    fn apriori_consistent_with_closed(d in arb_dataset(), min_sup in 1usize..4) {
        let frequent = apriori(&d, min_sup, None).expect_done("small data");
        let closed: HashSet<Vec<u32>> = charm(&d, min_sup)
            .closed
            .into_iter()
            .map(|c| c.items.as_slice().to_vec())
            .collect();
        // every closed set is frequent
        let freq_set: HashSet<(Vec<u32>, usize)> = frequent
            .iter()
            .map(|f| (f.items.as_slice().to_vec(), f.support))
            .collect();
        for c in &closed {
            let items = rowset::IdList::from_sorted(c.clone());
            let sup = d.rows_supporting(&items).len();
            prop_assert!(freq_set.contains(&(c.clone(), sup)), "closed {:?} missing", c);
        }
        // every frequent itemset's closure is closed with equal support
        for f in &frequent {
            let rows = d.rows_supporting(&f.items);
            let closure = d.items_common_to(&rows);
            prop_assert!(closed.contains(closure.as_slice()), "closure of {:?}", f.items);
        }
    }

    /// ColumnE and FARMER mine identical interesting rule groups, under
    /// χ² and each footnote-3 extra too.
    #[test]
    fn column_e_agrees_with_farmer(
        d in arb_dataset(),
        class in 0u32..2,
        min_sup in 1usize..3,
        conf_pct in select(vec![0usize, 60]),
        min_chi in select(vec![0.0, 0.0, 1.0]),
        extra in select(vec![
            None,
            Some(ExtraConstraint::MinLift(1.2)),
            Some(ExtraConstraint::MinConviction(1.5)),
            Some(ExtraConstraint::MinEntropyGain(0.05)),
            Some(ExtraConstraint::MinGiniGain(0.02)),
            Some(ExtraConstraint::MinCorrelation(0.3)),
        ]),
    ) {
        let mut params = MiningParams::new(class)
            .min_sup(min_sup)
            .min_conf(conf_pct as f64 / 100.0)
            .min_chi(min_chi)
            .lower_bounds(false);
        params.extra.extend(extra);
        let farmer = Farmer::new(params.clone()).mine(&d);
        let cole = column_e(&d, &params, None).expect_done("small data");
        let canon = |gs: &[farmer_core::RuleGroup]| -> HashSet<(Vec<u32>, usize, usize)> {
            gs.iter()
                .map(|g| (g.upper.as_slice().to_vec(), g.sup, g.neg_sup))
                .collect()
        };
        prop_assert_eq!(canon(&farmer.groups), canon(&cole.groups));
    }

    /// Every FARMER upper bound is a CHARM closed set.
    #[test]
    fn farmer_uppers_are_closed(d in arb_dataset(), min_sup in 1usize..3) {
        let farmer = Farmer::new(MiningParams::new(0).min_sup(min_sup).lower_bounds(false)).mine(&d);
        let closed: HashSet<Vec<u32>> = charm(&d, 1)
            .closed
            .into_iter()
            .map(|c| c.items.as_slice().to_vec())
            .collect();
        for g in &farmer.groups {
            prop_assert!(closed.contains(g.upper.as_slice()), "{:?}", g.upper);
        }
    }
}
