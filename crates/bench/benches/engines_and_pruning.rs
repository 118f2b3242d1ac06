//! Ablation benches: the search with each pruning strategy toggled off
//! (DESIGN.md A1), and MineLB's share of a mine.

use farmer_bench::workloads::WorkloadCache;
use farmer_core::{Farmer, MiningParams, PruningConfig};
use farmer_dataset::synth::PaperDataset;
use farmer_support::bench::Criterion;
use farmer_support::{criterion_group, criterion_main};
use std::time::Duration;

fn pruning_ablation(c: &mut Criterion) {
    let cache = WorkloadCache::new(0.05);
    let d = cache.efficiency(PaperDataset::ColonTumor);
    let params = MiningParams::new(1)
        .min_sup(4)
        .min_conf(0.8)
        .lower_bounds(false);
    let mut group = c.benchmark_group("pruning_CT");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let configs: Vec<(&str, PruningConfig)> = vec![
        ("all", PruningConfig::all()),
        (
            "no_compression",
            PruningConfig {
                strategy1_compression: false,
                ..PruningConfig::all()
            },
        ),
        (
            "no_duplicate",
            PruningConfig {
                strategy2_duplicate: false,
                ..PruningConfig::all()
            },
        ),
        (
            "no_bounds",
            PruningConfig {
                strategy3_loose: false,
                strategy3_tight: false,
                ..PruningConfig::all()
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_function(name, |b| {
            b.iter(|| Farmer::new(params.clone()).with_pruning(cfg).mine(&d))
        });
    }
    group.finish();
}

fn lower_bounds(c: &mut Criterion) {
    let cache = WorkloadCache::new(0.05);
    let d = cache.efficiency(PaperDataset::ColonTumor);
    let mut group = c.benchmark_group("minelb_CT");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, on) in [("with_lower_bounds", true), ("upper_bounds_only", false)] {
        let params = MiningParams::new(1).min_sup(4).lower_bounds(on);
        group.bench_function(name, |b| b.iter(|| Farmer::new(params.clone()).mine(&d)));
    }
    group.finish();
}

criterion_group!(benches, pruning_ablation, lower_bounds);
criterion_main!(benches);
