//! Live perf guard for the deque scheduler (ignored by default —
//! throughput assertions only mean something in release on a quiet
//! machine):
//!
//! ```text
//! cargo test --release -p farmer-bench --test scheduler_guard -- --ignored
//! ```
//!
//! The committed `BENCH_PR6.json` pins the recorded numbers (checked by
//! `pr6_scheduler --check` in `scripts/verify.sh`); this test re-derives
//! the same bounds from a fresh measurement on the current host.

use farmer_bench::workloads::{skewed_synth, SKEWED_SYNTH_PARAMS};
use farmer_core::{Farmer, MiningParams};
use std::time::Instant;

fn nodes_per_sec(threads: usize) -> f64 {
    let data = skewed_synth();
    let (class, min_sup) = SKEWED_SYNTH_PARAMS;
    let params = MiningParams::new(class)
        .min_sup(min_sup)
        .lower_bounds(false);
    let miner = Farmer::new(params).with_parallelism(threads);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = miner.mine(&data);
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(r.stats.nodes_visited as f64 / secs);
    }
    best
}

#[test]
#[ignore = "perf guard; run with --release -- --ignored on a quiet host"]
fn four_thread_scaling() {
    let t1 = nodes_per_sec(1);
    let t4 = nodes_per_sec(4);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // same bounds as pr6_scheduler --check: real scaling demanded only
    // when there are real cores; otherwise it's a livelock guard
    let bound = if cores >= 4 { 1.5 } else { 0.25 };
    let scaling = t4 / t1;
    assert!(
        scaling >= bound,
        "t=4 scaling {scaling:.2}x below {bound:.2}x on {cores} cores \
         ({t1:.0} -> {t4:.0} nodes/s)"
    );
}
