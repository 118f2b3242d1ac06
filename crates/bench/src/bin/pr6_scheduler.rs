//! Scheduler guard: parallel scaling of the deque scheduler on the
//! hub-skewed workload whose depth-1 imbalance the scheduler was built
//! for.
//!
//! Usage:
//!
//! ```text
//! pr6_scheduler [--out BENCH_PR6.json]   measure and write the report
//! pr6_scheduler --check BENCH_PR6.json   enforce the scaling bound
//! ```
//!
//! The report records the host's core count alongside the numbers, and
//! `--check` scales its demands to the machine that *measured* the
//! report: on a ≥ 4-core host the 4-thread run must clear 1.5× the
//! 1-thread throughput (the whole point of work stealing + adaptive
//! splitting), while on smaller hosts — where 4 workers time-slice one
//! core — it only has to avoid regressing below a no-worse-than bound.
//! Reports written before the shared memo table was removed carry
//! extra `memo_*` keys; `--check` ignores them.
//! `FARMER_BENCH_SAMPLES` controls repetitions (default 3, best run
//! wins).

use farmer_bench::workloads::{skewed_synth, SKEWED_SYNTH_PARAMS};
use farmer_core::{Farmer, MiningParams};
use farmer_support::json::{Json, ObjBuilder};
use std::time::Instant;

/// Scaling demanded of t=4 vs t=1 when the recording host had ≥ 4
/// cores. 1.5× is deliberately below the 4× ideal: the skewed
/// workload's serial fraction (root scan + merge) and the shared budget
/// pool cap realizable speedup well under linear.
const SCALE_BOUND_MULTICORE: f64 = 1.5;

/// Floor when the recording host had < 4 cores. Four workers
/// time-slicing one core legitimately lose real throughput (4× the
/// scratch-arena cache footprint, context switches mid-subtree), so
/// this is a livelock guard, not a fairness bound: a starving loop that
/// spun instead of backing off measures well under 0.1×. Generous
/// headroom on purpose: single-core throughput ratios are noisy and a
/// guard that flakes gets deleted.
const SCALE_BOUND_UNDERSIZED: f64 = 0.25;

struct Measured {
    threads: usize,
    nodes: u64,
    nodes_per_sec: f64,
    steals: u64,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Best-of-`samples` skewed_synth mine at the given parallelism.
fn measure(threads: usize, samples: usize) -> Measured {
    let data = skewed_synth();
    let (class, min_sup) = SKEWED_SYNTH_PARAMS;
    let params = MiningParams::new(class)
        .min_sup(min_sup)
        .lower_bounds(false);
    let miner = Farmer::new(params).with_parallelism(threads);
    let mut out = Measured {
        threads,
        nodes: 0,
        nodes_per_sec: 0.0,
        steals: 0,
    };
    for _ in 0..samples {
        let t0 = Instant::now();
        let r = miner.mine(&data);
        let secs = t0.elapsed().as_secs_f64();
        out.nodes = r.stats.nodes_visited;
        out.nodes_per_sec = out.nodes_per_sec.max(out.nodes as f64 / secs);
        out.steals = r.sched.steals;
    }
    out
}

fn row(m: &Measured) -> Json {
    ObjBuilder::new()
        .field("threads", m.threads)
        .field("nodes", m.nodes)
        .field("nodes_per_sec", m.nodes_per_sec)
        .field("steals", m.steals)
        .build()
}

fn run(out_path: &str) {
    let samples: usize = std::env::var("FARMER_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let t1 = measure(1, samples);
    let t4 = measure(4, samples);
    for m in [&t1, &t4] {
        eprintln!(
            "skewed_synth t={}: {:>9} nodes  {:>12.0} nodes/s  {} steals",
            m.threads, m.nodes, m.nodes_per_sec, m.steals,
        );
    }
    eprintln!(
        "t4/t1 scaling: {:.2}x on {} host cores",
        t4.nodes_per_sec / t1.nodes_per_sec,
        host_cores()
    );
    let report = ObjBuilder::new()
        .field("schema", "farmer-scheduler-guard-v1")
        .field("pr", 6usize)
        .field("samples", samples)
        .field("host_cores", host_cores())
        .field("workload", "skewed_synth")
        .field("cases", Json::Arr(vec![row(&t1), row(&t4)]))
        .build();
    std::fs::write(out_path, format!("{}\n", report.pretty())).expect("write report");
    eprintln!("wrote {out_path}");
}

/// Enforces the scaling bound and the node-count equality on an
/// existing report; exits non-zero (panics) on violations.
fn check(path: &str) {
    let text = std::fs::read_to_string(path).expect("read report");
    let j = Json::parse(&text).expect("report must parse as JSON");
    assert_eq!(
        j["schema"].as_str(),
        Some("farmer-scheduler-guard-v1"),
        "bad schema tag"
    );
    assert_eq!(j["pr"].as_u64(), Some(6));
    let recorded_cores = j["host_cores"].as_u64().expect("host_cores missing");
    let cases = match &j["cases"] {
        Json::Arr(c) => c,
        other => panic!("cases must be an array, got {other:?}"),
    };
    let find = |threads: u64| -> &Json {
        cases
            .iter()
            .find(|c| c["threads"].as_u64() == Some(threads))
            .unwrap_or_else(|| panic!("no t={threads} case in report"))
    };
    let t1 = find(1);
    let t4 = find(4);
    let t1_nps = t1["nodes_per_sec"].as_f64().expect("t1 nodes_per_sec");
    let t4_nps = t4["nodes_per_sec"].as_f64().expect("t4 nodes_per_sec");
    assert_eq!(
        t1["nodes"].as_u64(),
        // every parallel worker tallies the shared root once, so t=4
        // visits exactly 3 more nodes than t=1 — anything else means
        // the schedulers explored different trees
        t4["nodes"].as_u64().map(|n| n - 3),
        "t=1 and t=4 explored different trees"
    );
    let bound = if recorded_cores >= 4 {
        SCALE_BOUND_MULTICORE
    } else {
        SCALE_BOUND_UNDERSIZED
    };
    let scaling = t4_nps / t1_nps;
    assert!(
        scaling >= bound,
        "t=4 scaling {scaling:.2}x below the {bound:.2}x bound \
         (recorded on a {recorded_cores}-core host)"
    );
    eprintln!("{path}: OK — {scaling:.2}x scaling (bound {bound:.2}x on {recorded_cores} cores)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => check(args.get(1).expect("--check <path>")),
        Some("--out") => run(args.get(1).expect("--out <path>")),
        None => run("BENCH_PR6.json"),
        Some(other) => panic!("unknown argument {other}"),
    }
}
