//! Deterministic workload construction for the evaluation.
//!
//! The paper's five clinical datasets are replaced by synthetic analogs
//! (see `farmer-dataset`'s `synth` module and DESIGN.md §3); this module
//! fixes the exact recipes used by every experiment so each figure is
//! regenerated from identical inputs:
//!
//! * **efficiency experiments** (Figures 10/11, scalability): equal-depth
//!   discretization with 10 buckets, target class 1 — the paper's §4.1
//!   setup;
//! * **classification experiments** (Table 2): entropy/MDL
//!   discretization learned on the training half only — the §4.2 setup.
//!
//! Column counts are scaled by `col_scale` (default [`DEFAULT_COL_SCALE`])
//! so the deliberately-slow column-enumeration baselines finish; scale
//! 1.0 reproduces the paper's full dimensions.

use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::PaperDataset;
use farmer_dataset::{Dataset, DatasetBuilder, ExpressionMatrix};
use farmer_support::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use farmer_support::thread::Mutex;
use std::collections::HashMap;

/// Default fraction of the paper's column count used by the harness.
///
/// 0.05 keeps every baseline sweep under laptop-minutes while preserving
/// hundreds-to-thousands of columns (still far above the row count, the
/// regime the paper targets).
pub const DEFAULT_COL_SCALE: f64 = 0.05;

/// The equal-depth bucket count of §4.1.
pub const EFFICIENCY_BUCKETS: usize = 10;

/// Builds the raw expression matrix analog of one paper dataset.
pub fn matrix_for(p: PaperDataset, col_scale: f64) -> ExpressionMatrix {
    p.synth_config(col_scale).generate()
}

/// Builds the §4.1 efficiency workload: equal-depth, 10 buckets.
pub fn efficiency_dataset(p: PaperDataset, col_scale: f64) -> Dataset {
    let m = matrix_for(p, col_scale);
    Discretizer::EqualDepth {
        buckets: EFFICIENCY_BUCKETS,
    }
    .discretize(&m)
}

/// Mining parameters used with [`skewed_synth`] by the scheduler guard
/// and the parallel determinism matrix: `(target_class, min_sup)`.
pub const SKEWED_SYNTH_PARAMS: (u32, usize) = (1, 2);

/// A deliberately *skewed* synthetic workload: a handful of "hub" rows
/// share most of a dense item pool, so their depth-1 subtrees are orders
/// of magnitude heavier than the rest. The hubs sit at row indices
/// `0, 4, 8, …` — under a static `i % threads` split with 4 workers they
/// all land on worker 0, which is exactly the imbalance the work-stealing
/// scheduler exists to fix. Fully deterministic (fixed seed).
pub fn skewed_synth() -> Dataset {
    const N_POS: usize = 38;
    const N_NEG: usize = 38;
    const HUB_POOL: u32 = 50;
    const SPARSE_POOL: u32 = 56;
    let mut rng = StdRng::seed_from_u64(0xFA12_3E57);
    let mut b = DatasetBuilder::new(2);
    let hub_items: Vec<u32> = (0..HUB_POOL).collect();
    for r in 0..N_POS {
        if r % 4 == 0 {
            // hub: a large random subset of the shared dense pool
            let mut items = hub_items.clone();
            items.shuffle(&mut rng);
            items.truncate(44);
            items.extend((0..12).map(|_| HUB_POOL + rng.gen_range(0..SPARSE_POOL)));
            b.add_row(items, 1);
        } else {
            let items: Vec<u32> = (0..18)
                .map(|_| HUB_POOL + rng.gen_range(0..SPARSE_POOL))
                .collect();
            b.add_row(items, 1);
        }
    }
    for _ in 0..N_NEG {
        // negatives touch a sliver of the hub pool so hub subtrees keep
        // non-trivial confidence structure, plus sparse filler
        let mut items: Vec<u32> = (0..6).map(|_| rng.gen_range(0..HUB_POOL)).collect();
        items.extend((0..14).map(|_| HUB_POOL + rng.gen_range(0..SPARSE_POOL)));
        b.add_row(items, 0);
    }
    b.build()
}

/// Per-dataset minimum-support grids for Figure 10, chosen like the
/// paper chose theirs: descending until FARMER needs on the order of
/// seconds (the baselines hit their budgets much earlier).
pub fn fig10_minsup_grid(p: PaperDataset) -> Vec<usize> {
    match p {
        // grids calibrated per analog so the whole sweep stays in
        // laptop-minutes while the column-enumeration blowup is visible
        PaperDataset::BreastCancer => vec![9, 8, 7, 6, 5],
        PaperDataset::LungCancer => vec![9, 8, 7, 6, 5],
        PaperDataset::ColonTumor => vec![7, 6, 5, 4, 3],
        PaperDataset::ProstateCancer => vec![10, 9, 8, 7, 6],
        PaperDataset::Leukemia => vec![8, 7, 6, 5, 4],
    }
}

/// The Figure 11 confidence grid (the paper sweeps 0–99%).
pub fn fig11_minconf_grid() -> Vec<f64> {
    vec![0.0, 0.5, 0.7, 0.8, 0.85, 0.9, 0.99]
}

/// Fixed `minsup` for Figure 11 ("we set minsup = 1" in the paper;
/// the analogs use a small value per dataset to keep the unpruned
/// baseline points finite).
pub fn fig11_minsup(p: PaperDataset) -> usize {
    match p {
        PaperDataset::BreastCancer => 5,
        PaperDataset::LungCancer => 6,
        PaperDataset::ColonTumor => 3,
        PaperDataset::ProstateCancer => 7,
        PaperDataset::Leukemia => 4,
    }
}

/// A process-wide cache of efficiency datasets so sweeps and benches do
/// not re-synthesize (synthesis + discretization dominate setup).
pub struct WorkloadCache {
    col_scale: f64,
    cache: Mutex<HashMap<PaperDataset, Dataset>>,
}

impl WorkloadCache {
    /// Creates a cache at the given column scale.
    pub fn new(col_scale: f64) -> Self {
        WorkloadCache {
            col_scale,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The configured column scale.
    pub fn col_scale(&self) -> f64 {
        self.col_scale
    }

    /// The efficiency dataset of `p`, built on first use.
    pub fn efficiency(&self, p: PaperDataset) -> Dataset {
        if let Some(d) = self.cache.lock().get(&p) {
            return d.clone();
        }
        let d = efficiency_dataset(p, self.col_scale);
        self.cache.lock().insert(p, d.clone());
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_dataset_shape() {
        let d = efficiency_dataset(PaperDataset::ColonTumor, 0.02);
        let (rows, _, _) = PaperDataset::ColonTumor.table1_shape();
        assert_eq!(d.n_rows(), rows);
        // 10 buckets per surviving gene
        assert!(d.n_items() >= 64);
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn grids_are_sane() {
        for p in PaperDataset::all() {
            let grid = fig10_minsup_grid(p);
            assert!(grid.windows(2).all(|w| w[0] > w[1]), "descending grid");
            assert!(fig11_minsup(p) >= 1);
        }
        let conf = fig11_minconf_grid();
        assert!(conf.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cache_returns_identical_datasets() {
        let cache = WorkloadCache::new(0.01);
        let a = cache.efficiency(PaperDataset::Leukemia);
        let b = cache.efficiency(PaperDataset::Leukemia);
        assert_eq!(a.n_items(), b.n_items());
        assert_eq!(a.labels(), b.labels());
        assert_eq!(cache.col_scale(), 0.01);
    }
}
