//! Seeded, layer-by-layer benchmark of the FARMER workspace: mining
//! (`mine_dense`, `mine_skewed`) and serving with streaming ingest
//! (`serve_ingest`).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine_dense --seed 0 --seconds 25 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it repeats them with their sample counts and statistics, plus the
//! run's provenance (core count, git rev, rustc). Full reports, the
//! per-layer self-time tables and Chrome traces land in `perfbench/out/`.
//!
//! Every layer is timed from outside, around calls into its public
//! functions; the program itself is not changed. See `README.md` for
//! what each metric means on each workload.

mod data;
mod mine;
mod serve;
mod spans;
mod stats;

use farmer_support::json::{Json, ObjBuilder};
use spans::Recorder;
use stats::Dist;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, with units.
/// `op` and `op2` are each workload's two user-facing operations; the
/// statistic behind each number is in the report (see `README.md`).
const END_TO_END: &[(&str, &str)] = &[
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op2_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A layer a workload
/// leaves idle reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("dataset.transpose_ms", "ms"),
    ("miner.enumerate_ms", "ms"),
    ("miner.nodes_visited", "count"),
    ("miner.nodes_per_s", "1/s"),
    ("miner.groups_per_node", "ratio"),
    ("miner.pruned_duplicate", "count"),
    ("miner.rows_compressed", "count"),
    ("miner.merge_ms", "ms"),
    ("miner.steals", "count"),
    ("miner.worker_imbalance", "ratio"),
    ("minelb.total_ms", "ms"),
    ("minelb.calls", "count"),
    ("minelb.call_p50_us", "us"),
    ("pipeline.apply_rows_ms", "ms"),
    ("pipeline.groups_ms", "ms"),
    ("pipeline.generations", "count"),
    ("pipeline.wait_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("store.publish_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.journal_append_us", "us"),
    ("index.build_ms", "ms"),
    ("index.reload_ms", "ms"),
    ("index.classify_us", "us"),
    ("index.matches_per_query", "count"),
    ("http.self_us", "us"),
    ("http.shed", "count"),
    ("http.generator_late_p99_ms", "ms"),
    ("http.served_per_sent", "ratio"),
    ("http.classify_p99_ms", "ms"),
    ("http.max_rps", "1/s"),
    ("trace_overhead_pct", "%"),
    ("trace.blocking_gap_pct", "%"),
];

const WORKLOADS: &[&str] = &["mine_dense", "mine_skewed", "serve_ingest"];

/// One reported number with the statistic and sample count behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    pub stat: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize, stat: impl Into<String>) -> Self {
        Metric {
            name,
            value,
            samples,
            stat: stat.into(),
        }
    }

    /// The median of `d`.
    pub fn p50(name: &'static str, d: &Dist) -> Self {
        Self::new(name, d.median(), d.len(), "p50")
    }

    /// The highest percentile of `d` with ten samples beyond it.
    pub fn tail(name: &'static str, d: &Dist) -> Self {
        let (p, v) = d.tail();
        Self::new(name, v, d.len(), format!("p{p}"))
    }

    /// A count or ratio read once per run.
    pub fn once(name: &'static str, value: f64) -> Self {
        Self::new(name, value, 1, "value")
    }
}

/// What a workload hands back to the driver-facing report.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations: errors, non-200 answers, sheds and wrong
    /// outputs.
    pub failed: u64,
    /// Operations whose output differed from the reference (also
    /// counted in `failed`).
    pub mismatched: u64,
    /// Seconds per set-up; the median is `setup_s`.
    pub setup_s: Vec<f64>,
    /// `VmHWM` once set-up and warm-up are done, in MiB.
    pub setup_rss_mb: f64,
    pub metrics: Vec<Metric>,
    /// Spans of a traced run.
    pub spans: Option<Recorder>,
    pub lanes: Vec<(usize, &'static str)>,
    /// Per-layer self-time tables of a traced run, by operation kind.
    pub tables: Vec<(String, Json)>,
    pub notes: Vec<(String, Json)>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Repeats `set_up` at least 3 times and until it has taken a second
/// (at most 15 times), recording each duration in `out.setup_s`, and
/// keeps the last instance; earlier ones are dropped before the next
/// starts. Then records the peak resident set.
pub fn repeat_setup<T>(out: &mut Outcome, mut set_up: impl FnMut(usize) -> T) -> T {
    let start = Instant::now();
    let mut last = None;
    for k in 0..15 {
        if k >= 3 && start.elapsed() >= Duration::from_secs(1) {
            break;
        }
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up(k));
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.setup_rss_mb = peak_rss_mb();
    last.expect("at least one set-up")
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit the sources came from, when they sit in a git checkout.
fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn metric_json(m: &Metric, unit: &str) -> Json {
    ObjBuilder::new()
        .field("value", m.value)
        .field("unit", unit)
        .field("samples", m.samples)
        .field("stat", m.stat.as_str())
        .build()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let mut outcome = match args.workload.as_str() {
        "mine_dense" => mine::run(&mine::DENSE, &args),
        "mine_skewed" => mine::run(&mine::SKEWED, &args),
        _ => serve::run(&args, &out_dir),
    };

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        let setup = Dist::new(outcome.setup_s.clone());
        outcome.metrics.push(Metric::p50("setup_s", &setup));
        outcome.metrics.push(Metric::new(
            "peak_rss_mb",
            outcome.setup_rss_mb,
            1,
            "VmHWM after set-up",
        ));
    }
    for m in &outcome.metrics {
        assert!(
            catalog.iter().any(|&(n, _)| n == m.name),
            "workload reported {} outside the catalog",
            m.name
        );
    }
    let mut reported = ObjBuilder::new();
    let mut detailed = ObjBuilder::new();
    for &(name, unit) in catalog {
        let idle = Metric::new(name, 0.0, 0, "idle");
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or(&idle);
        // JSON has no infinity; a latency made infinite by failed
        // requests reads as the largest number instead
        let value = if m.value.is_nan() {
            0.0
        } else {
            m.value.clamp(f64::MIN, f64::MAX)
        };
        reported = reported.field(
            name,
            ObjBuilder::new()
                .field("value", value)
                .field("unit", unit)
                .build(),
        );
        detailed = detailed.field(name, metric_json(m, unit));
    }

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let provenance = ObjBuilder::new()
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .field("git_rev", git_rev(bench_dir.parent().unwrap_or(&bench_dir)))
        .field("rustc", env!("PERFBENCH_RUSTC"))
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .build();
    let mut report = ObjBuilder::new()
        .field("provenance", provenance)
        .field("error_rate", error_rate)
        .field("vm_hwm_end_mb", peak_rss_mb())
        .field("metrics", detailed.build());
    if let Some(rec) = &outcome.spans {
        let path = out_dir.join(format!("{tag}.chrome.json"));
        if let Err(e) = std::fs::write(&path, rec.chrome_json(&outcome.lanes).to_string()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        report = report.field("chrome_trace", path.display().to_string());
    }
    let mut tables = ObjBuilder::new();
    for (kind, table) in &outcome.tables {
        eprintln!("self-time split of {kind}: {}", table.to_string());
        tables = tables.field(kind, table.clone());
    }
    let mut notes = ObjBuilder::new();
    for (k, v) in &outcome.notes {
        notes = notes.field(k, v.clone());
    }
    let report = report
        .field("self_time", tables.build())
        .field("notes", notes.build())
        .build();
    let path = out_dir.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, report.pretty()) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{}", report.to_string());
    let result = ObjBuilder::new()
        .field("correct", outcome.mismatched == 0)
        .field("attempted", outcome.attempted.max(1))
        .field("failed", outcome.failed)
        .field("metrics", reported.build())
        .build();
    println!("{}", result.to_string());
}
