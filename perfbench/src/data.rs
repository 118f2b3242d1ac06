//! Seeded workload inputs. Seed 0 reproduces the datasets the
//! repository's own benches use, so first numbers line up with the
//! ROADMAP baseline; any other seed perturbs the generator's RNG seed.

use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::PaperDataset;
use farmer_dataset::{Dataset, DatasetBuilder};
use farmer_support::rng::{Rng, SeedableRng, SliceRandom, StdRng};

/// Fraction of the paper's column count (`farmer-bench`'s default).
const COL_SCALE: f64 = 0.05;

/// The §4.1 equal-depth bucket count.
const BUCKETS: usize = 10;

/// The leukemia analog (72 rows × 3,560 items at seed 0), discretized
/// equal-depth into 10 buckets like the §4.1 efficiency experiments.
pub fn leukemia(seed: u64) -> Dataset {
    let mut cfg = PaperDataset::Leukemia.synth_config(COL_SCALE);
    cfg.seed = cfg.seed.wrapping_add(seed);
    Discretizer::EqualDepth { buckets: BUCKETS }.discretize(&cfg.generate())
}

/// A seeded copy of `farmer_bench::workloads::skewed_synth`: 76 rows
/// where the hub rows `0, 4, 8, …` share most of a dense item pool,
/// so their depth-1 subtrees dwarf the rest.
pub fn skewed(seed: u64) -> Dataset {
    const N_POS: usize = 38;
    const N_NEG: usize = 38;
    const HUB_POOL: u32 = 50;
    const SPARSE_POOL: u32 = 56;
    let mut rng = StdRng::seed_from_u64(0xFA12_3E57u64.wrapping_add(seed));
    let mut b = DatasetBuilder::new(2);
    let hub_items: Vec<u32> = (0..HUB_POOL).collect();
    for r in 0..N_POS {
        if r % 4 == 0 {
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
        let mut items: Vec<u32> = (0..6).map(|_| rng.gen_range(0..HUB_POOL)).collect();
        items.extend((0..14).map(|_| HUB_POOL + rng.gen_range(0..SPARSE_POOL)));
        b.add_row(items, 0);
    }
    b.build()
}
