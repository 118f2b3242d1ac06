//! Per-sample triage with top-k covering rule groups: instead of one
//! global confidence cutoff, ask for each patient sample "which are the
//! k strongest rules that apply to *this* sample?" — the follow-up
//! direction of the FARMER authors (RCBT, SIGMOD 2005).
//!
//! ```text
//! cargo run --release --example sample_triage
//! ```

use farmer_suite::core::topk::mine_top_k;
use farmer_suite::dataset::discretize::Discretizer;
use farmer_suite::dataset::synth::PaperDataset;

fn main() {
    let analog = PaperDataset::ColonTumor;
    let matrix = analog.synth_config(0.05).generate();
    let data = Discretizer::EqualDepth { buckets: 10 }.discretize(&matrix);
    println!(
        "{} analog: {} samples x {} items\n",
        analog.code(),
        data.n_rows(),
        data.n_items()
    );

    // the 3 best tumor-predicting rule groups covering each sample,
    // among groups with at least 4 supporting tumor samples
    let k = 3;
    let result = mine_top_k(&data, 1, k, 4);
    println!(
        "top-{k} covering rule groups per sample ({} search nodes, {} floor prunes)\n",
        result.stats.nodes_visited, result.stats.pruned_floor
    );

    let mut uncovered = 0usize;
    let mut misleading = 0usize;
    for (r, groups) in result.per_row.iter().enumerate().take(12) {
        let label = data.class_name(data.label(r as u32));
        match groups.first() {
            None => {
                println!("sample {r:>2} [{label:>8}]  — no covering group");
                uncovered += 1;
            }
            Some(best) => {
                println!(
                    "sample {r:>2} [{label:>8}]  best: {} items, sup {}, conf {:.0}%  (of {} groups)",
                    best.upper.len(),
                    best.sup,
                    best.confidence() * 100.0,
                    groups.len()
                );
                // a high-confidence tumor rule on a normal sample is the
                // interesting (misleading) case a global cutoff hides
                if data.label(r as u32) == 0 && best.confidence() > 0.8 {
                    misleading += 1;
                }
            }
        }
    }
    println!("\n(first 12 samples shown)");
    let covered = result.per_row.iter().filter(|g| !g.is_empty()).count();
    println!(
        "coverage: {covered}/{} samples have at least one group; {uncovered} of the first 12 uncovered; {misleading} normal samples matched a strong tumor rule",
        data.n_rows()
    );
}
