//! Full paper-scale dimensions (24,481 genes on the BC analog) — proof
//! that nothing in the stack assumes the scaled-down defaults.
//!
//! Ignored by default because debug builds make it slow; run with
//!
//! ```text
//! cargo test --release --test paper_scale -- --ignored
//! ```

use farmer_suite::core::{Farmer, MiningParams};
use farmer_suite::dataset::discretize::Discretizer;
use farmer_suite::dataset::select::{select_top_genes, GeneMetric};
use farmer_suite::dataset::synth::PaperDataset;

#[test]
#[ignore = "paper-scale run; use --release -- --ignored"]
fn full_scale_breast_cancer_analog() {
    let p = PaperDataset::BreastCancer;
    let (rows, cols, _) = p.table1_shape();
    let matrix = p.synth_config(1.0).generate();
    assert_eq!(matrix.n_rows(), rows);
    assert_eq!(matrix.n_genes(), cols);

    // full column count straight through the miner
    let data = Discretizer::EqualDepth { buckets: 10 }.discretize(&matrix);
    assert_eq!(data.n_items(), cols * 10);
    let result = Farmer::new(MiningParams::new(1).min_sup(9).lower_bounds(false)).mine(&data);
    assert!(!result.stats.budget_exhausted);
    assert!(
        !result.is_empty(),
        "paper-scale BC at minsup 9 must yield IRGs"
    );

    // and the practical route: feature-select to 2000 genes first
    let selected = select_top_genes(&matrix, GeneMetric::InfoGain, 2000);
    assert_eq!(selected.n_genes(), 2000);
    let data2 = Discretizer::EqualDepth { buckets: 10 }.discretize(&selected);
    let result2 = Farmer::new(MiningParams::new(1).min_sup(9).lower_bounds(false)).mine(&data2);
    assert!(!result2.is_empty());
}
