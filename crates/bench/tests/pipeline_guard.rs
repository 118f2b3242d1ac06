//! Live perf guard for the incremental remine (ignored by default —
//! speedup assertions only mean something in release on a quiet
//! machine):
//!
//! ```text
//! cargo test --release -p farmer-bench --test pipeline_guard -- --ignored
//! ```
//!
//! The leukemia analog (72 rows, ~3.5k items) is mined at `min_sup 4`
//! for every class. For each delta of 1–3 rows (at most 5% of the
//! rows), the last rows are held out, an [`IncrementalMiner`]
//! bootstraps on the rest, and one `apply_rows` + `groups()` is timed
//! against a cold mine (every class, then the canonical sort) of the
//! merged dataset — what a daemon without the delta-restricted frontier
//! would pay per arrival. The output must be byte-identical and at
//! least 2× faster at every delta size.

use farmer_bench::workloads::{efficiency_dataset, DEFAULT_COL_SCALE};
use farmer_core::{canonical_sort, dump_groups, Engine, Farmer, MiningParams, RuleGroup};
use farmer_dataset::synth::PaperDataset;
use farmer_dataset::{ClassLabel, Dataset};
use farmer_pipeline::IncrementalMiner;
use rowset::IdList;
use std::time::Instant;

const MIN_SUP: usize = 4;

/// Cold reference: a full mine of every class, in canonical order.
fn cold_mine(d: &Dataset) -> Vec<RuleGroup> {
    let mut groups = Vec::new();
    for class in 0..d.n_classes() as u32 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(MIN_SUP))
                .mine(d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    groups
}

/// (cold ms, incremental ms) with the last `k` rows as the delta: the
/// median, by speedup, of three back-to-back pairs. A pair's two runs
/// share the host's state, so a slow spell cannot land on one side
/// only, as it can when each side keeps its own best of three. Both
/// windows end when the groups are in hand; the dumps are formatted
/// and compared after the clocks stop. The bootstrap (harvest plus the
/// first `groups()`, which warms the lower-bound memo) is paid once
/// per daemon start, not per arrival, so it stays outside the timed
/// window.
fn measure(full: &Dataset, k: usize) -> (f64, f64) {
    let base_rows = full.n_rows() - k;
    let (base, _) = full.split_at(base_rows);
    let delta: Vec<(IdList, ClassLabel)> = (base_rows..full.n_rows())
        .map(|r| (full.row(r as u32).clone(), full.label(r as u32)))
        .collect();
    let mut pairs = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = Instant::now();
        let cold = cold_mine(full);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

        let params = MiningParams::new(0).min_sup(MIN_SUP);
        let mut miner = IncrementalMiner::new(base.clone(), params, Engine::Bitset, 0);
        let _ = miner.groups();
        let t0 = Instant::now();
        miner.apply_rows(&delta).expect("apply delta");
        let groups = miner.groups();
        let inc_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            dump_groups(&groups),
            dump_groups(&cold),
            "incremental output diverged from the cold mine at delta {k}"
        );
        pairs.push((cold_ms, inc_ms));
    }
    pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    pairs[1]
}

#[test]
#[ignore = "perf guard; run with --release -- --ignored on a quiet host"]
fn incremental_is_2x_faster_than_cold() {
    let full = efficiency_dataset(PaperDataset::Leukemia, DEFAULT_COL_SCALE);
    for k in [1, 2, 3] {
        let (cold_ms, inc_ms) = measure(&full, k);
        let speedup = cold_ms / inc_ms;
        assert!(
            speedup >= 2.0,
            "delta {k}: incremental only {speedup:.2}x faster than cold \
             ({cold_ms:.1} / {inc_ms:.1} ms)"
        );
    }
}
