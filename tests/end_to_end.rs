//! Cross-crate integration tests: the full pipeline from synthesis
//! through discretization, mining, and classification, plus agreement
//! between every miner in the workspace.

use farmer_suite::baselines::charm::charm;
use farmer_suite::baselines::closet::closet;
use farmer_suite::baselines::column_e::column_e;
use farmer_suite::classify::pipeline::DiscretizedSplit;
use farmer_suite::classify::{CbaClassifier, IrgClassifier, SvmClassifier, SvmConfig};
use farmer_suite::core::carpenter::carpenter;
use farmer_suite::core::cond::{BitsetNode, Inspect, Table};
use farmer_suite::core::naive::{child_items, node_scan};
use farmer_suite::core::{Farmer, MiningParams};
use farmer_suite::dataset::discretize::Discretizer;
use farmer_suite::dataset::synth::{PaperDataset, SynthConfig};
use farmer_suite::dataset::{replicate, Dataset};
use farmer_suite::rowset::RowSet;
use std::collections::HashSet;

fn small_analog() -> Dataset {
    let m = SynthConfig {
        n_rows: 30,
        n_genes: 120,
        n_class1: 15,
        n_signature: 40,
        clusters_per_class: 2,
        cluster_spread: 1.8,
        cluster_noise: 0.35,
        ..Default::default()
    }
    .generate();
    Discretizer::EqualDepth { buckets: 6 }.discretize(&m)
}

#[test]
fn full_mining_pipeline() {
    let d = small_analog();
    let params = MiningParams::new(1).min_sup(3).min_conf(0.8);
    let result = Farmer::new(params).mine(&d);
    assert!(!result.is_empty(), "signature data must yield IRGs");
    for g in &result.groups {
        // every reported measure is consistent with a recount from the data
        let support = d.rows_supporting(&g.upper);
        assert_eq!(support, g.support_set);
        let sup_p = support.iter().filter(|&r| d.label(r as u32) == 1).count();
        assert_eq!(sup_p, g.sup);
        assert_eq!(support.len() - sup_p, g.neg_sup);
        assert!(g.sup >= 3);
        assert!(g.confidence() >= 0.8);
        // the upper bound is closed
        assert_eq!(d.items_common_to(&support), g.upper);
        // lower bounds generate the same support set
        for low in &g.lower {
            assert_eq!(d.rows_supporting(low), g.support_set);
        }
    }
}

/// Checks `node`'s scan and, for `depth` more levels, each candidate
/// child's items against their definitions read from the rows of `d`.
/// A child's candidates are its parent's candidates ordered after the
/// child row. Returns the number of nodes checked.
fn check_scans(d: &Dataset, node: &BitsetNode, e_p: &RowSet, e_n: &RowSet, depth: usize) -> usize {
    let want = node_scan(d, node.items(), e_p, e_n);
    let mut ins = Inspect::new(d.n_rows());
    node.inspect_into(e_p, e_n, &mut ins);
    assert_eq!(ins, want, "scan of {:?}", node.items());
    if depth == 0 {
        return 1;
    }
    let mut checked = 1;
    for r in want.u_p.iter().chain(want.u_n.iter()) {
        let mut child = node.clone_shell();
        node.child_into(r as u32, &mut child);
        assert_eq!(
            child.items(),
            child_items(d, node.items(), r as u32),
            "child({r})"
        );
        let after = |e: &RowSet| RowSet::from_ids(d.n_rows(), e.iter().filter(|&c| c > r));
        checked += check_scans(d, &child, &after(&want.u_p), &after(&want.u_n), depth - 1);
    }
    checked
}

#[test]
fn node_scans_match_their_definition_on_realistic_data() {
    // the search's view: class-1 rows first (ORD), all rows candidates
    let (d, _order) = small_analog().reordered_for_class(1);
    let (n, m) = (d.n_rows(), d.class_count(1));
    let table = Table::new(&d);
    let root = BitsetNode::root(&table);
    let e_p = RowSet::from_ids(n, 0..m);
    let e_n = RowSet::from_ids(n, m..n);
    // the root and every depth-1 and depth-2 child
    let checked = check_scans(&d, &root, &e_p, &e_n, 2);
    assert!(checked > n, "only {checked} nodes checked");
}

#[test]
fn farmer_uppers_are_closed_patterns() {
    let d = small_analog();
    let min_sup = 4;
    let farmer = Farmer::new(MiningParams::new(1).min_sup(min_sup).lower_bounds(false)).mine(&d);
    let closed: HashSet<Vec<u32>> = carpenter(&d, min_sup)
        .patterns
        .iter()
        .map(|p| p.items.as_slice().to_vec())
        .collect();
    for g in &farmer.groups {
        assert!(
            closed.contains(g.upper.as_slice()),
            "IRG upper bound must be a closed pattern: {:?}",
            g.upper
        );
    }
}

#[test]
fn all_closed_miners_agree_on_analog() {
    let d = small_analog();
    for min_sup in [3usize, 5] {
        let canon_carp: HashSet<(Vec<u32>, usize)> = carpenter(&d, min_sup)
            .patterns
            .iter()
            .map(|p| (p.items.as_slice().to_vec(), p.support()))
            .collect();
        let canon_charm: HashSet<(Vec<u32>, usize)> = charm(&d, min_sup)
            .closed
            .iter()
            .map(|c| (c.items.as_slice().to_vec(), c.support()))
            .collect();
        let canon_closet: HashSet<(Vec<u32>, usize)> = closet(&d, min_sup)
            .closed
            .iter()
            .map(|c| (c.items.as_slice().to_vec(), c.support))
            .collect();
        assert_eq!(canon_carp, canon_charm, "min_sup={min_sup}");
        assert_eq!(canon_charm, canon_closet, "min_sup={min_sup}");
    }
}

#[test]
fn column_e_matches_farmer_on_analog() {
    let d = small_analog();
    let params = MiningParams::new(1)
        .min_sup(5)
        .min_conf(0.7)
        .lower_bounds(false);
    let farmer = Farmer::new(params.clone()).mine(&d);
    let cole = column_e(&d, &params, Some(200_000_000)).expect_done("within budget");
    let canon = |uppers: Vec<Vec<u32>>| -> HashSet<Vec<u32>> { uppers.into_iter().collect() };
    assert_eq!(
        canon(
            farmer
                .groups
                .iter()
                .map(|g| g.upper.as_slice().to_vec())
                .collect()
        ),
        canon(
            cole.groups
                .iter()
                .map(|g| g.upper.as_slice().to_vec())
                .collect()
        ),
    );
}

#[test]
fn replication_scales_counts_not_results() {
    let d = small_analog();
    let base = Farmer::new(MiningParams::new(1).min_sup(2).lower_bounds(false)).mine(&d);
    let rep = replicate::replicate_rows(&d, 3);
    let scaled = Farmer::new(MiningParams::new(1).min_sup(6).lower_bounds(false)).mine(&rep);
    // same upper bounds, tripled supports
    let canon = |r: &farmer_suite::core::MineResult| -> HashSet<(Vec<u32>, usize)> {
        r.groups
            .iter()
            .map(|g| (g.upper.as_slice().to_vec(), g.sup))
            .collect()
    };
    let base_scaled: HashSet<(Vec<u32>, usize)> = base
        .groups
        .iter()
        .map(|g| (g.upper.as_slice().to_vec(), g.sup * 3))
        .collect();
    assert_eq!(canon(&scaled), base_scaled);
}

#[test]
fn classification_beats_chance_on_separable_analog() {
    let m = PaperDataset::Leukemia.synth_config(0.01).generate();
    let (n_train, _) = PaperDataset::Leukemia.table2_split();
    let (tr, te) = m.stratified_split(n_train, 7);
    let split = DiscretizedSplit::fit(&tr, &te, &Discretizer::EntropyMdl);

    let majority = te
        .labels()
        .iter()
        .filter(|&&l| l == 1)
        .count()
        .max(te.labels().iter().filter(|&&l| l == 0).count()) as f64
        / te.n_rows() as f64;

    let irg = IrgClassifier::train(&split.train, 0.7, 0.8);
    let irg_acc = farmer_suite::classify::eval::accuracy(
        split.test.labels(),
        &irg.predict_dataset(&split.test),
    );
    assert!(irg_acc >= majority, "IRG {irg_acc} vs majority {majority}");

    let cba = CbaClassifier::train(&split.train, 0.7, 0.8);
    let cba_acc = farmer_suite::classify::eval::accuracy(
        split.test.labels(),
        &cba.predict_dataset(&split.test),
    );
    assert!(cba_acc >= 0.5, "CBA {cba_acc}");

    let svm = SvmClassifier::train(&tr, &SvmConfig::default());
    assert!(svm.score(&te) >= majority, "SVM {}", svm.score(&te));
}

#[test]
fn io_roundtrip_preserves_mining_results() {
    let d = small_analog();
    let dir = std::env::temp_dir().join("farmer-suite-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("analog.txt");
    farmer_suite::dataset::io::save_transactions(&d, &path).unwrap();
    let d2 = farmer_suite::dataset::io::load_transactions(&path).unwrap();

    let params = MiningParams::new(1).min_sup(3).lower_bounds(false);
    let a = Farmer::new(params.clone()).mine(&d);
    let b = Farmer::new(params).mine(&d2);
    // item ids may be permuted by interning order; compare via names
    let canon = |r: &farmer_suite::core::MineResult, d: &Dataset| -> HashSet<Vec<String>> {
        r.groups
            .iter()
            .map(|g| {
                let mut names: Vec<String> =
                    g.upper.iter().map(|i| d.item_name(i).to_string()).collect();
                names.sort();
                names
            })
            .collect()
    };
    assert_eq!(canon(&a, &d), canon(&b, &d2));
}
