//! The drop-in-your-own-data workflow, end to end on files: write an
//! expression CSV (with missing values, as real exports have), load it
//! back, impute, discretize with two supervised methods, mine, and
//! compare what each discretization exposes.
//!
//! ```text
//! cargo run --release --example real_data_workflow
//! ```

use farmer_suite::core::{Farmer, MiningParams};
use farmer_suite::dataset::discretize::Discretizer;
use farmer_suite::dataset::io::{load_matrix_csv, save_matrix_csv};
use farmer_suite::dataset::synth::SynthConfig;
use farmer_support::rng::{Rng, SeedableRng, StdRng};

fn main() {
    let dir = std::env::temp_dir().join("farmer-real-data-workflow");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("cohort.csv");

    // pretend this came from a lab: synthesize, then knock out 2% of the
    // values the way real exports arrive with NAs
    let matrix = SynthConfig {
        n_rows: 50,
        n_genes: 300,
        n_class1: 24,
        n_signature: 90,
        shift: 1.4,
        clusters_per_class: 2,
        cluster_spread: 1.6,
        cluster_noise: 0.4,
        ..Default::default()
    }
    .generate();
    save_matrix_csv(&matrix, &csv).expect("write csv");
    // punch NA holes directly in the file? easier to re-load and damage
    let mut damaged = load_matrix_csv(&csv).expect("load csv");
    {
        let mut rng = StdRng::seed_from_u64(9);
        let mut values: Vec<f64> = (0..damaged.n_rows())
            .flat_map(|r| damaged.row(r).to_vec())
            .collect();
        for v in values.iter_mut() {
            if rng.gen_bool(0.02) {
                *v = f64::NAN;
            }
        }
        damaged = farmer_suite::dataset::ExpressionMatrix::new(
            damaged.n_rows(),
            damaged.n_genes(),
            values,
            damaged.labels().to_vec(),
            2,
        );
    }
    println!(
        "cohort: {} samples x {} genes, {} missing values",
        damaged.n_rows(),
        damaged.n_genes(),
        damaged.n_missing()
    );

    // impute, then compare the two supervised discretizations
    let clean = damaged.impute_gene_means();
    assert!(!clean.has_missing());
    for (name, disc) in [
        ("entropy-MDL", Discretizer::EntropyMdl),
        (
            "ChiMerge(4.61)",
            Discretizer::ChiMerge {
                threshold: 4.61,
                max_intervals: 6,
            },
        ),
    ] {
        let data = disc.discretize(&clean);
        let params = MiningParams::new(1).min_sup(8).min_conf(0.9);
        let result = Farmer::new(params).mine(&data);
        println!(
            "\n{name}: {} informative items -> {} IRGs",
            data.n_items(),
            result.len()
        );
        let groups = &result.groups;
        if let Some(best) = groups
            .iter()
            .max_by(|a, b| a.confidence().partial_cmp(&b.confidence()).unwrap())
        {
            println!("  strongest group: {}", best.display(&data));
            // which other groups mention its first gene-bin?
            if let Some(first_item) = best.upper.iter().next() {
                println!(
                    "  groups mentioning {}: {}",
                    data.item_name(first_item),
                    groups
                        .iter()
                        .filter(|g| g.upper.contains(first_item))
                        .count()
                );
            }
        }
        // triage one sample: of the groups that fire on it (some lower
        // bound, a most general member, lies inside the sample), take the
        // best by confidence, then support, then the shorter upper bound
        let sample = data.row(0);
        let best = groups
            .iter()
            .filter(|g| g.lower.iter().any(|l| l.is_subset(sample)))
            .max_by(|a, b| {
                a.confidence()
                    .partial_cmp(&b.confidence())
                    .expect("finite")
                    .then(a.sup.cmp(&b.sup))
                    .then(b.upper.len().cmp(&a.upper.len()))
            });
        match best {
            Some(g) => println!(
                "  sample 0 [{}] fires {} (conf {:.0}%)",
                data.class_name(data.label(0)),
                g.display(&data),
                g.confidence() * 100.0
            ),
            None => println!("  sample 0 fires no group"),
        }
    }
}
