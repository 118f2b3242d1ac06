//! `mine_dense` and `mine_skewed`: each iteration runs one
//! `Farmer::mine` at 1 thread and one at 2 threads, and checks both
//! against a reference mine made during set-up.

use crate::spans::Recorder;
use crate::stats::Dist;
use crate::{data, repeat_setup, Args, Metric, Outcome};
use farmer_core::minelb::mine_lower_bounds;
use farmer_core::trace::{mining_tracer, EventKind, TraceReport};
use farmer_core::{
    canonical_sort, dump_groups, Farmer, MineControl, MineResult, MiningParams, NoOpObserver,
    RuleGroup,
};
use farmer_dataset::Dataset;
use farmer_support::json::Json;
use std::collections::HashMap;
use std::time::Instant;

/// One mining workload: a seeded dataset and the thresholds it is
/// mined at (bitset engine, memo off — the miner's defaults).
pub struct MineSpec {
    pub data: fn(u64) -> Dataset,
    pub class: u32,
    pub min_sup: usize,
    pub lower_bounds: bool,
}

/// The paper's dense regime: the leukemia analog, lower bounds on.
pub const DENSE: MineSpec = MineSpec {
    data: data::leukemia,
    class: 1,
    min_sup: 3,
    lower_bounds: true,
};

/// A short, hub-skewed mine where scheduling and merge dominate t=2;
/// lower bounds off, so MineLB is bypassed.
pub const SKEWED: MineSpec = MineSpec {
    data: data::skewed,
    class: 1,
    min_sup: 2,
    lower_bounds: false,
};

const THREADS: [usize; 2] = [1, 2];

/// Share of a traced run's budget spent untraced, as the baseline of
/// `trace_overhead_pct`.
const UNTRACED_SHARE: f64 = 0.5;

struct Bench {
    data: Dataset,
    params: MiningParams,
    reference: String,
}

impl Bench {
    fn farmer(&self, threads: usize) -> Farmer {
        Farmer::new(self.params.clone()).with_parallelism(threads)
    }
}

fn digest(mut groups: Vec<RuleGroup>) -> String {
    canonical_sort(&mut groups);
    dump_groups(&groups)
}

/// Generates the dataset, mines the reference at t=1, and warms up
/// with one checked mine at t=2.
fn setup(spec: &MineSpec, seed: u64, out: &mut Outcome) -> Bench {
    let data = (spec.data)(seed);
    let params = MiningParams::new(spec.class)
        .min_sup(spec.min_sup)
        .lower_bounds(spec.lower_bounds);
    let reference = digest(Farmer::new(params.clone()).mine(&data).groups);
    let bench = Bench {
        data,
        params,
        reference,
    };
    let warm = bench.farmer(2).mine(&bench.data);
    check(out, &bench, warm);
    bench
}

/// Counts the mine and flags it when its groups differ from the
/// reference.
fn check(out: &mut Outcome, bench: &Bench, result: MineResult) {
    out.attempted += 1;
    if digest(result.groups) != bench.reference {
        out.failed += 1;
        out.mismatched += 1;
    }
}

pub fn run(spec: &MineSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut checks = Outcome::default();
    let bench = repeat_setup(&mut out, |_| setup(spec, args.seed, &mut checks));
    out.attempted += checks.attempted;
    out.failed += checks.failed;
    out.mismatched += checks.mismatched;
    let untraced_budget = if args.trace {
        args.budget().mul_f64(UNTRACED_SHARE)
    } else {
        args.budget()
    };

    // Untraced: the end-to-end numbers (and the overhead baseline).
    let mut wall = [Vec::new(), Vec::new()];
    let start = Instant::now();
    loop {
        for (k, &threads) in THREADS.iter().enumerate() {
            let t0 = Instant::now();
            let result = bench.farmer(threads).mine(&bench.data);
            wall[k].push(t0.elapsed().as_secs_f64() * 1e3);
            check(&mut out, &bench, result);
        }
        if start.elapsed() >= untraced_budget {
            break;
        }
    }
    out.notes = vec![
        ("t1_ms".to_string(), Json::from(wall[0].clone())),
        ("t2_ms".to_string(), Json::from(wall[1].clone())),
    ];
    let [t1, t2] = wall.map(Dist::new);
    if !args.trace {
        // The mean, not the median: a run holds a few dozen mines, split
        // between the host's slow and fast phases, and the median jumps
        // between the two (spread 0.15-0.23 across 10 seeds on a 2-core
        // host, against 0.12-0.16 for the mean of the same samples).
        out.metrics = vec![
            Metric::new("op_ms", t1.mean(), t1.len(), "mean"),
            Metric::tail("op_tail_ms", &t1),
            Metric::new("op2_ms", t2.mean(), t2.len(), "mean"),
        ];
        return out;
    }
    traced(&bench, args, &t1, out)
}

/// Per-layer numbers gathered over the traced mines.
#[derive(Default)]
struct Layers {
    traced_t1_ms: Vec<f64>,
    transpose_ms: Vec<f64>,
    enumerate_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    lower_bounds_ms: Vec<f64>,
    lower_bound_calls: Vec<f64>,
    steals: Vec<f64>,
    imbalance: Vec<f64>,
    nodes: u64,
    groups: u64,
    pruned_duplicate: u64,
    rows_compressed: u64,
    call_us: Vec<f64>,
}

/// The miner's own phase spans, drained from its tracer, named by the
/// layer that owns them (`merge` has no public entry point to time).
fn miner_spans(report: &TraceReport) -> Vec<(&'static str, usize, u64, u64)> {
    let mut open: HashMap<(usize, u16), Vec<u64>> = HashMap::new();
    let mut spans = Vec::new();
    for e in &report.events {
        match e.kind {
            EventKind::Begin => open.entry((e.lane, e.span)).or_default().push(e.t_ns),
            EventKind::End => {
                let Some(start) = open.get_mut(&(e.lane, e.span)).and_then(Vec::pop) else {
                    continue;
                };
                let name = match report.span_names.get(e.span as usize).map(String::as_str) {
                    Some("transpose") => "dataset.transpose",
                    Some("enumerate") => "miner.enumerate",
                    Some("merge") => "miner.merge",
                    Some("lower_bounds") => "minelb.lower_bounds",
                    _ => continue,
                };
                spans.push((name, e.lane, start, e.t_ns));
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    spans
}

fn traced(bench: &Bench, args: &Args, untraced_t1: &Dist, mut out: Outcome) -> Outcome {
    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    let budget = args.budget().mul_f64(1.0 - UNTRACED_SHARE);
    let start = Instant::now();
    let mut op = 0u64;
    loop {
        for threads in THREADS {
            op += 1;
            let tracer = mining_tracer(threads);
            let offset = rec.now_ns();
            let t0 = Instant::now();
            let result = bench.farmer(threads).mine_session_traced(
                &bench.data,
                &MineControl::new(),
                &mut NoOpObserver,
                &tracer,
            );
            let t1 = Instant::now();
            let root = rec.push(
                format!("miner.mine_t{threads}"),
                op,
                None,
                0,
                rec.ns(t0),
                rec.ns(t1),
            );
            let report = tracer.drain();
            let mut enumerate_ms = 0.0;
            for (name, lane, s, e) in miner_spans(&report) {
                let i = rec.push(name, op, Some(root), lane, offset + s, offset + e);
                let ms = rec.spans()[i].ms();
                match name {
                    "dataset.transpose" => layers.transpose_ms.push(ms),
                    "miner.enumerate" => enumerate_ms += ms,
                    "miner.merge" => layers.merge_ms.push(ms),
                    _ => layers.lower_bounds_ms.push(ms),
                }
            }
            let lb_calls = report
                .hist_names
                .iter()
                .position(|n| n == "lower_bound")
                .map_or(0, |h| report.hists[h].count());
            layers.lower_bound_calls.push(lb_calls as f64);
            if threads == 1 {
                layers.traced_t1_ms.push((t1 - t0).as_secs_f64() * 1e3);
                layers.enumerate_ms.push(enumerate_ms);
                layers.nodes = result.stats.nodes_visited;
                layers.groups = result.groups.len() as u64;
                layers.pruned_duplicate = result.stats.pruned_duplicate;
                layers.rows_compressed = result.stats.rows_compressed;
                if layers.call_us.is_empty() && bench.params.lower_bounds {
                    probe_lower_bounds(bench, &result.groups, &mut layers, &mut out);
                }
            } else {
                let nodes = &result.sched.worker_nodes;
                let mean = nodes.iter().sum::<u64>() as f64 / nodes.len().max(1) as f64;
                let max = nodes.iter().copied().max().unwrap_or(0) as f64;
                layers
                    .imbalance
                    .push(if mean > 0.0 { max / mean } else { 0.0 });
                layers.steals.push(result.sched.steals as f64);
            }
            check(&mut out, bench, result);
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let t1_split = rec.split("miner.mine_t1");
    let t2_split = rec.split("miner.mine_t2");
    let traced_t1 = Dist::new(layers.traced_t1_ms.clone());
    let enumerate = Dist::new(layers.enumerate_ms.clone());
    let p50 = |v: &[f64]| Dist::new(v.to_vec());
    let lb = p50(&layers.lower_bound_calls);
    out.metrics = vec![
        Metric::p50("dataset.transpose_ms", &p50(&layers.transpose_ms)),
        Metric::p50("miner.enumerate_ms", &enumerate),
        Metric::once("miner.nodes_visited", layers.nodes as f64),
        Metric::new(
            "miner.nodes_per_s",
            layers.nodes as f64 / (enumerate.median() / 1e3),
            enumerate.len(),
            "nodes / p50 enumerate",
        ),
        Metric::once(
            "miner.groups_per_node",
            layers.groups as f64 / layers.nodes.max(1) as f64,
        ),
        Metric::once("miner.pruned_duplicate", layers.pruned_duplicate as f64),
        Metric::once("miner.rows_compressed", layers.rows_compressed as f64),
        Metric::p50("miner.merge_ms", &p50(&layers.merge_ms)),
        Metric::p50("miner.steals", &p50(&layers.steals)),
        Metric::p50("miner.worker_imbalance", &p50(&layers.imbalance)),
        Metric::p50("minelb.total_ms", &p50(&layers.lower_bounds_ms)),
        Metric::p50("minelb.calls", &lb),
        Metric::p50("minelb.call_p50_us", &p50(&layers.call_us)),
        Metric::new(
            "trace_overhead_pct",
            100.0 * (traced_t1.median() - untraced_t1.median()) / untraced_t1.median(),
            traced_t1.len() + untraced_t1.len(),
            "p50 traced vs untraced t=1 mine",
        ),
        Metric::new(
            "trace.blocking_gap_pct",
            t1_split.gap_pct().max(t2_split.gap_pct()),
            t1_split.totals_ms.len() + t2_split.totals_ms.len(),
            "worse of t=1 and t=2",
        ),
    ];
    out.tables = vec![
        ("miner.mine_t1".to_string(), t1_split.table_json()),
        ("miner.mine_t2".to_string(), t2_split.table_json()),
    ];
    out.lanes = vec![(0, "main"), (1, "worker-0"), (2, "worker-1")];
    out.spans = Some(rec);
    out
}

/// Times `mine_lower_bounds` once per mined group, off the measured
/// path, and checks each answer against the group's lower bounds.
fn probe_lower_bounds(bench: &Bench, groups: &[RuleGroup], layers: &mut Layers, out: &mut Outcome) {
    for g in groups {
        let t0 = Instant::now();
        let mut lower = mine_lower_bounds(&g.upper, &g.support_set, &bench.data);
        layers.call_us.push(t0.elapsed().as_secs_f64() * 1e6);
        lower.sort_unstable();
        let mut expected = g.lower.clone();
        expected.sort_unstable();
        out.attempted += 1;
        if lower != expected {
            out.failed += 1;
            out.mismatched += 1;
        }
    }
}
