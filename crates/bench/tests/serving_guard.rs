//! Live guards for serving the leukemia-analog artifact (72 rows,
//! ~3.5k items, every class mined at `min_sup 4`). Both are ignored by
//! default: they mine the full efficiency workload, and the throughput
//! floor only means something in release:
//!
//! ```text
//! cargo test --release -p farmer-bench --test serving_guard -- --ignored --test-threads=1
//! ```
//!
//! One test thread keeps the hammer from measuring while the size
//! test mines on another core.
//!
//! The artifact encoding is deterministic, so the v2-vs-v1 size bound
//! holds on every host. The hammer sends 4 clients × 250
//! `/v1/classify` GETs over loopback, once with the default config and
//! once with every request logged and captured in the slow ring. Both
//! runs must shed nothing and clear a 50 req/s collapse floor, and the
//! logged run must keep at least 0.2× the unlogged req/s: any slower
//! means the log lock or the slow ring is serializing the pool.

use farmer_bench::workloads::{efficiency_dataset, DEFAULT_COL_SCALE};
use farmer_core::{canonical_sort, Farmer, MiningParams, RuleGroup};
use farmer_dataset::synth::PaperDataset;
use farmer_dataset::Dataset;
use farmer_serve::{http_get, ArtifactHandle, ServeConfig, ShardedIndex};
use farmer_store::{save_artifact_versioned, Artifact, ArtifactMeta};
use std::sync::Arc;
use std::time::Instant;

const SIZE_RATIO_BOUND: f64 = 5.0;
const MIN_REQS_PER_SEC: f64 = 50.0;
const MIN_LOGGED_RATIO: f64 = 0.2;
const CLIENTS: usize = 4;
const REQS_PER_CLIENT: usize = 250;

/// Every class of the leukemia analog at `min_sup 4`, canonical order.
fn mine_workload() -> (Dataset, Vec<RuleGroup>) {
    let d = efficiency_dataset(PaperDataset::Leukemia, DEFAULT_COL_SCALE);
    let mut groups = Vec::new();
    for class in 0..d.n_classes() as u32 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(4))
                .mine(&d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    (d, groups)
}

/// Serves `groups` with `config` and sends `CLIENTS` × `REQS_PER_CLIENT`
/// classify GETs built from real rows; returns (req/s, requests shed).
fn hammer(d: &Dataset, groups: &[RuleGroup], config: &ServeConfig) -> (f64, u64) {
    let index = ShardedIndex::from_artifact(Artifact {
        meta: ArtifactMeta::from_dataset(d),
        groups: groups.to_vec(),
    });
    let handle = Arc::new(ArtifactHandle::from_index(index));
    let server = farmer_serve::start(handle, config).expect("start server");
    let addr = server.addr().to_string();
    let queries: Vec<String> = (0..d.n_rows().min(16) as u32)
        .map(|r| {
            let items: Vec<&str> = d.row(r).iter().take(12).map(|i| d.item_name(i)).collect();
            format!("/v1/classify?items={}", items.join(","))
        })
        .collect();
    // Each hammer starts a fresh server; without one pass over the
    // queries first, the unlogged run pays the cold start alone and
    // the logged/unlogged ratio reads about 2x too kind.
    for q in &queries {
        assert_eq!(http_get(&addr, q).expect("warm-up GET").status, 200);
    }
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, queries) = (&addr, &queries);
            scope.spawn(move || {
                for i in 0..REQS_PER_CLIENT {
                    let q = &queries[(c + i) % queries.len()];
                    let resp = http_get(addr, q).expect("classify GET");
                    assert_eq!(resp.status, 200, "{q}: {}", resp.body);
                }
            });
        }
    });
    let rps = (CLIENTS * REQS_PER_CLIENT) as f64 / t0.elapsed().as_secs_f64();
    let shed = server.requests_shed();
    server.shutdown();
    (rps, shed)
}

#[test]
#[ignore = "mines the full efficiency workload; run with --release -- --ignored"]
fn live_v2_artifact_is_5x_smaller_than_v1() {
    let (d, groups) = mine_workload();
    let meta = ArtifactMeta::from_dataset(&d);
    let size_of = |version: u32| {
        let path = std::env::temp_dir().join(format!("serving_guard_v{version}.fgi"));
        save_artifact_versioned(&path, &meta, &groups, version).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        let _ = std::fs::remove_file(&path);
        bytes as f64
    };
    let (v1, v2) = (size_of(1), size_of(2));
    let ratio = v1 / v2;
    assert!(
        ratio >= SIZE_RATIO_BOUND,
        "v2 only {ratio:.2}x smaller than v1 ({v1} / {v2} B)"
    );
}

#[test]
#[ignore = "perf guard; run with --release -- --ignored on a quiet host"]
fn hammer_holds_throughput_with_and_without_logging() {
    let (d, groups) = mine_workload();
    let plain = ServeConfig {
        workers: CLIENTS,
        ..ServeConfig::default()
    };
    let log_path =
        std::env::temp_dir().join(format!("serving_guard_access_{}.jsonl", std::process::id()));
    let logged = ServeConfig {
        log_out: Some(log_path.to_str().unwrap().to_string()),
        slow_ms: 0,
        ..plain.clone()
    };
    let (rps, shed) = hammer(&d, &groups, &plain);
    let (logged_rps, logged_shed) = hammer(&d, &groups, &logged);
    let _ = std::fs::remove_file(&log_path);
    for (label, rps, shed) in [("plain", rps, shed), ("logged", logged_rps, logged_shed)] {
        assert_eq!(shed, 0, "{label} hammer shed {shed} requests");
        assert!(
            rps >= MIN_REQS_PER_SEC,
            "{label} hammer at {rps:.0} req/s, under the {MIN_REQS_PER_SEC} floor"
        );
    }
    let ratio = logged_rps / rps;
    assert!(
        ratio >= MIN_LOGGED_RATIO,
        "logged serving at {:.1}% of unlogged ({logged_rps:.0} / {rps:.0} req/s)",
        ratio * 100.0
    );
}
