//! Property-based tests of the miners against their oracles, with
//! proptest shrinking finding minimal counterexamples if anything ever
//! regresses.

use farmer_core::carpenter::carpenter;
use farmer_core::cobbler::{cobbler, SwitchPolicy};
use farmer_core::cond::{BitsetNode, Inspect, Table};
use farmer_core::minelb::mine_lower_bounds;
use farmer_core::naive::{
    child_items, enumerate_rule_groups, mine_naive, naive_lower_bounds, node_scan,
};
use farmer_core::topk::mine_top_k;
use farmer_core::{
    canonical_sort, dump_groups, generality_order, keep_interesting, CountingObserver, Farmer,
    GeneralityIndex, MineStats, MiningParams, RuleGroup,
};
use farmer_dataset::{Dataset, DatasetBuilder};
use farmer_support::check::prelude::*;
use rowset::{IdList, RowSet};
use std::collections::BTreeSet;
use std::ops::Range;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    arb_dataset_of(3..8, 3..10)
}

/// Two-class datasets with a row count from `rows` and an item
/// universe size from `items`.
fn arb_dataset_of(rows: Range<usize>, items: Range<usize>) -> impl Strategy<Value = Dataset> {
    arb_dataset_with(rows, items, |n_items| 1..n_items)
}

/// [`arb_dataset_of`] with each row's item count drawn from
/// `row_len(n_items)`.
fn arb_dataset_with(
    rows: Range<usize>,
    items: Range<usize>,
    row_len: fn(usize) -> Range<usize>,
) -> impl Strategy<Value = Dataset> {
    (rows, items).prop_flat_map(move |(n_rows, n_items)| {
        collection::vec(
            (
                collection::btree_set(0..n_items as u32, row_len(n_items)),
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

/// One step of a generality-index script, `(kind, base, extra,
/// conf_pct)`. Kind 0 inserts `extra` alone (possibly the empty upper
/// bound); kind 1 inserts `extra` on top of an earlier upper bound,
/// which builds nested chains, and exact duplicates when `extra` adds
/// nothing; kind 2 only queries such a bound. Confidences come from a
/// short list, so ties are common.
type IndexStep = (u32, usize, BTreeSet<u32>, usize);

fn arb_index_script() -> impl Strategy<Value = Vec<IndexStep>> {
    collection::vec(
        (
            0u32..3,
            0usize..64,
            collection::btree_set(0u32..12, 0..4),
            select(vec![0usize, 25, 50, 50, 75, 100]),
        ),
        1..60,
    )
}

/// Checks `node`'s scan against [`node_scan`], and each candidate
/// child's items against [`child_items`], for `depth` more levels below
/// `node`. A child's candidates are its parent's candidates ordered
/// after the child row, as in the search (without compression). Every
/// scan also refills `dirty`, a buffer left over from the previous
/// node, and must match the fresh scan.
fn check_scans(
    d: &Dataset,
    node: &BitsetNode,
    e_p: &RowSet,
    e_n: &RowSet,
    dirty: &mut Inspect,
    depth: usize,
) {
    let want = node_scan(d, node.items(), e_p, e_n);
    let mut fresh = Inspect::new(d.n_rows());
    node.inspect_into(e_p, e_n, &mut fresh);
    assert_eq!(fresh, want, "scan of {:?}", node.items());
    node.inspect_into(e_p, e_n, dirty);
    assert_eq!(*dirty, want, "recycled scan of {:?}", node.items());
    if depth == 0 {
        return;
    }
    for r in want.u_p.iter().chain(want.u_n.iter()) {
        let mut child = node.clone_shell();
        node.child_into(r as u32, &mut child);
        assert_eq!(
            child.items(),
            child_items(d, node.items(), r as u32),
            "child({r})"
        );
        let after = |e: &RowSet| RowSet::from_ids(d.n_rows(), e.iter().filter(|&c| c > r));
        check_scans(
            d,
            &child,
            &after(&want.u_p),
            &after(&want.u_n),
            dirty,
            depth - 1,
        );
    }
}

/// [`check_scans`] from the root of `d` mined for `class`, down to
/// every depth-2 child.
fn check_scans_from_root(d: &Dataset, class: u32) {
    let (reordered, _order) = d.reordered_for_class(class);
    let n = reordered.n_rows();
    let m = reordered.class_count(class);
    let mut dirty = Inspect::new(n);
    let table = Table::new(&reordered);
    let root = BitsetNode::root(&table);
    // soil the buffer with a swapped-role scan before the first check
    root.inspect_into(
        &RowSet::from_ids(n, m..n),
        &RowSet::from_ids(n, 0..m),
        &mut dirty,
    );
    check_scans(
        &reordered,
        &root,
        &RowSet::from_ids(n, 0..m),
        &RowSet::from_ids(n, m..n),
        &mut dirty,
        2,
    );
}

fn canon(groups: &[farmer_core::RuleGroup]) -> Vec<(Vec<u32>, Vec<usize>, usize, usize)> {
    let mut v: Vec<_> = groups
        .iter()
        .map(|g| {
            (
                g.upper.as_slice().to_vec(),
                g.support_set.to_vec(),
                g.sup,
                g.neg_sup,
            )
        })
        .collect();
    v.sort();
    v
}

check! {
    #![config(cases = 64)]

    /// FARMER equals the brute-force oracle.
    #[test]
    fn farmer_equals_oracle(
        d in arb_dataset(),
        class in 0u32..2,
        min_sup in 1usize..4,
        conf_pct in select(vec![0usize, 50, 80]),
    ) {
        let params = MiningParams::new(class)
            .min_sup(min_sup)
            .min_conf(conf_pct as f64 / 100.0)
            .lower_bounds(false);
        let got = Farmer::new(params.clone()).mine(&d);
        prop_assert_eq!(canon(&got.groups), canon(&mine_naive(&d, &params)));
    }

    /// CARPENTER and COBBLER (all policies) find exactly the closed sets
    /// derivable from row subsets.
    #[test]
    fn closed_miners_equal_oracle(d in arb_dataset(), min_sup in 1usize..4) {
        let mut expected: Vec<(Vec<u32>, usize)> = {
            let mut out = std::collections::HashSet::new();
            for mask in 1u32..(1 << d.n_rows()) {
                let rows = RowSet::from_ids(
                    d.n_rows(),
                    (0..d.n_rows()).filter(|&r| mask & (1 << r) != 0),
                );
                let items = d.items_common_to(&rows);
                if items.is_empty() {
                    continue;
                }
                let support = d.rows_supporting(&items);
                if support.len() >= min_sup {
                    let closed = d.items_common_to(&support);
                    out.insert((closed.as_slice().to_vec(), support.len()));
                }
            }
            out.into_iter().collect()
        };
        expected.sort();

        let mut got_carp: Vec<(Vec<u32>, usize)> = carpenter(&d, min_sup)
            .patterns
            .into_iter()
            .map(|p| {
                let sup = p.support();
                (p.items.as_slice().to_vec(), sup)
            })
            .collect();
        got_carp.sort();
        prop_assert_eq!(&got_carp, &expected);

        for policy in [SwitchPolicy::Auto, SwitchPolicy::ColumnsOnly, SwitchPolicy::RowThreshold(4)] {
            let mut got: Vec<(Vec<u32>, usize)> = cobbler(&d, min_sup, policy)
                .patterns
                .into_iter()
                .map(|p| (p.items.as_slice().to_vec(), p.support))
                .collect();
            got.sort();
            prop_assert_eq!(&got, &expected, "policy {:?}", policy);
        }
    }

    /// MineLB on random data: every bound `l` has `R(l) = R(A)` and
    /// loses that support set when any one item is dropped, and for
    /// upper bounds of at most 10 items the bounds are exactly the
    /// brute-force minimal generators. The datasets reach 15 items, so
    /// some upper bounds are too wide for the brute force.
    #[test]
    fn minelb_equals_oracle(d in arb_dataset_of(3..11, 3..16)) {
        for g in enumerate_rule_groups(&d, 0) {
            let lows = mine_lower_bounds(&g.upper, &g.rows, &d);
            prop_assert!(!lows.is_empty(), "group {:?} has no lower bound", g.upper);
            for l in &lows {
                prop_assert!(l.is_subset(&g.upper));
                prop_assert_eq!(&d.rows_supporting(l), &g.rows, "R({:?}) != R(A)", l);
                for drop in l.iter() {
                    let smaller = IdList::from_iter(l.iter().filter(|&i| i != drop));
                    if smaller.is_empty() {
                        continue; // the empty antecedent is no bound
                    }
                    prop_assert_ne!(&d.rows_supporting(&smaller), &g.rows, "{:?} not minimal", l);
                }
            }
            if g.upper.len() <= 10 {
                let mut got: Vec<IdList> = lows;
                got.sort();
                let mut want = naive_lower_bounds(&g.upper, &g.rows, &d);
                want.sort();
                prop_assert_eq!(got, want, "group {:?}", g.upper);
            }
        }
    }

    /// The generality index answers exactly what step 7's linear scan
    /// answered, over random insert/query scripts with duplicate upper
    /// bounds, nested chains, confidence ties and the empty upper bound.
    #[test]
    fn generality_index_equals_linear_scan(script in arb_index_script()) {
        let mut index = GeneralityIndex::new();
        let mut inserted: Vec<(IdList, f64)> = Vec::new();
        let mut seen = vec![IdList::new()];
        for (kind, base, extra, conf_pct) in script {
            let extra = IdList::from_iter(extra);
            let upper = match kind {
                0 => extra,
                _ => seen[base % seen.len()].union(&extra),
            };
            let conf = conf_pct as f64 / 100.0;
            let upper_of = |id: u32| inserted[id as usize].0.as_slice();
            let dominated = inserted
                .iter()
                .any(|(a, a_conf)| a.len() < upper.len() && a.is_subset(&upper) && *a_conf >= conf);
            prop_assert_eq!(
                index.has_dominator(upper.as_slice(), conf, upper_of),
                dominated,
                "dominator of {:?} at {}",
                upper,
                conf
            );
            let equal = inserted.iter().any(|(a, _)| *a == upper);
            prop_assert_eq!(index.contains(upper.as_slice(), upper_of), equal, "equal to {:?}", upper);
            if kind < 2 {
                index.insert(inserted.len() as u32, upper.as_slice(), conf);
                inserted.push((upper.clone(), conf));
            }
            seen.push(upper);
        }
    }

    /// `keep_interesting` keeps exactly what a linear scan of the kept
    /// groups keeps, over candidates in generality order with repeated
    /// upper bounds, nested chains and confidence ties, and counts and
    /// reports every rejection.
    #[test]
    fn keep_interesting_equals_linear_filter(script in arb_index_script(), counts in collection::vec((1usize..5, 0usize..4), 60)) {
        let mut seen = vec![IdList::new()];
        let mut cands: Vec<(IdList, usize, usize)> = Vec::new();
        for ((kind, base, extra, _), (sup_p, sup_n)) in script.into_iter().zip(counts) {
            let extra = IdList::from_iter(extra);
            let upper = match kind {
                0 => extra,
                _ => seen[base % seen.len()].union(&extra),
            };
            seen.push(upper.clone());
            cands.push((upper, sup_p, sup_n));
        }
        cands.sort_by(|a, b| generality_order(&a.0, &b.0));
        let conf = |c: &(IdList, usize, usize)| c.1 as f64 / (c.1 + c.2) as f64;
        let mut want: Vec<(IdList, usize, usize)> = Vec::new();
        let mut rejected = 0;
        for (i, c) in cands.iter().enumerate() {
            if i > 0 && cands[i - 1].0 == c.0 {
                continue;
            }
            let dominated = want
                .iter()
                .any(|a| a.0.len() < c.0.len() && a.0.is_subset(&c.0) && conf(a) >= conf(c));
            if dominated {
                rejected += 1;
            } else {
                want.push(c.clone());
            }
        }
        let (mut stats, mut obs) = (MineStats::default(), CountingObserver::default());
        let got = keep_interesting(cands, |c| (&c.0, c.1, c.2), &mut stats, &mut obs);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(stats.rejected_not_interesting, rejected);
        prop_assert_eq!(obs.rejected_not_interesting, rejected);
        prop_assert_eq!(obs.emitted as usize, want.len());
    }

    /// A frontier run (`Farmer::with_frontier`) returns exactly the cold
    /// harvest's groups whose support meets the frontier, lower bounds
    /// included, and visits no more nodes than the cold harvest, less
    /// the shared root that each extra worker counts. `from_class` 0 or
    /// 1 draws the `k` frontier rows from that class, 2 from all rows.
    /// The frontier run mines on `threads` threads, the cold harvest on
    /// one, so a parallel harvest must keep every threshold-passing
    /// group too.
    #[test]
    fn frontier_run_equals_filtered_cold_harvest(
        d in arb_dataset(),
        class in 0u32..2,
        min_sup in 1usize..3,
        lower_bounds in select(vec![false, true]),
        (k, from_class, offset) in (1usize..4, 0u32..3, 0usize..8),
        threads in 1usize..3,
    ) {
        let n = d.n_rows();
        let pool: Vec<usize> = (0..n)
            .filter(|&r| from_class == 2 || d.label(r as u32) == from_class)
            .collect();
        if pool.is_empty() {
            return Ok(());
        }
        let frontier = RowSet::from_ids(
            n,
            (0..k.min(pool.len())).map(|i| pool[(offset + i) % pool.len()]),
        );
        let params = MiningParams::new(class)
            .min_sup(min_sup)
            .lower_bounds(lower_bounds);
        let harvest = || Farmer::new(params.clone()).with_harvest(true);
        let cold = harvest().mine(&d);
        let run = harvest()
            .with_frontier(frontier.clone())
            .with_parallelism(threads)
            .mine(&d);
        let mut want: Vec<RuleGroup> = cold
            .groups
            .into_iter()
            .filter(|g| !g.support_set.is_disjoint(&frontier))
            .collect();
        let mut got = run.groups;
        canonical_sort(&mut want);
        canonical_sort(&mut got);
        prop_assert_eq!(dump_groups(&got), dump_groups(&want));
        let extra_roots = threads as u64 - 1;
        prop_assert!(
            run.stats.nodes_visited <= cold.stats.nodes_visited + extra_roots,
            "frontier run visited {} nodes on {} threads, cold harvest {}",
            run.stats.nodes_visited,
            threads,
            cold.stats.nodes_visited
        );
    }

    /// Top-k per-row results equal the oracle's ranking prefix.
    #[test]
    fn topk_equals_oracle(d in arb_dataset(), k in 1usize..4, min_sup in 1usize..3) {
        let got = mine_top_k(&d, 0, k, min_sup);
        // oracle: rank all covering groups per row
        let groups = enumerate_rule_groups(&d, 0);
        for r in 0..d.n_rows() {
            let mut covering: Vec<(f64, usize, std::cmp::Reverse<usize>)> = groups
                .iter()
                .filter(|g| g.sup_p >= min_sup && g.rows.contains(r))
                .map(|g| (g.confidence(), g.sup_p, std::cmp::Reverse(g.upper.len())))
                .collect();
            covering.sort_by(|a, b| b.partial_cmp(a).unwrap());
            covering.truncate(k);
            let got_keys: Vec<(f64, usize, std::cmp::Reverse<usize>)> = got.per_row[r]
                .iter()
                .map(|g| (g.confidence(), g.sup, std::cmp::Reverse(g.upper.len())))
                .collect();
            prop_assert_eq!(got_keys, covering, "row {}", r);
        }
    }

    /// Node scans and child builds equal their definitions, read from
    /// the dataset's rows, at the root and at every depth-1 and depth-2
    /// child; scanning into a dirty recycled buffer equals a fresh scan.
    #[test]
    fn node_scans_match_their_definition(d in arb_dataset(), class in 0u32..2) {
        check_scans_from_root(&d, class);
    }

    /// The same check on 60–70 sparse rows of at most 11 items over a
    /// 130–140 item universe, so every row set spans two words (the
    /// scans cross row 64) and every row's item bitmap spans three (the
    /// child filter crosses items 64 and 128).
    #[test]
    fn node_scans_match_their_definition_across_words(
        d in arb_dataset_with(60..70, 130..140, |_| 1..12),
        class in 0u32..2,
    ) {
        check_scans_from_root(&d, class);
    }

    /// Group invariants: closure, support decomposition, lower bounds.
    #[test]
    fn mined_group_invariants(d in arb_dataset(), min_sup in 1usize..3) {
        let result = Farmer::new(MiningParams::new(1).min_sup(min_sup)).mine(&d);
        for g in &result.groups {
            let support = d.rows_supporting(&g.upper);
            prop_assert_eq!(&support, &g.support_set);
            prop_assert_eq!(d.items_common_to(&support), g.upper.clone());
            let sup_p = support.iter().filter(|&r| d.label(r as u32) == 1).count();
            prop_assert_eq!(sup_p, g.sup);
            prop_assert_eq!(support.len() - sup_p, g.neg_sup);
            for low in &g.lower {
                prop_assert!(low.is_subset(&g.upper));
                prop_assert_eq!(d.rows_supporting(low), g.support_set.clone());
            }
        }
    }
}
