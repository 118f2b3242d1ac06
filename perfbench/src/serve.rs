//! `serve_ingest`: reads and writes sharing one serving process.
//!
//! Set-up holds 8 seed-chosen rows of the leukemia analog out, starts
//! an in-process [`Pipeline`] over the rest, and serves it with
//! `farmer_serve::start`. The run then has three phases:
//!
//! 1. **verify** — open-loop `GET /v1/classify` at the nominal rate with
//!    no ingest; every answer must equal a direct
//!    `ShardedIndex::classify` of the same sample.
//! 2. **nominal** — the same traffic while a second thread posts the
//!    held-out rows one at a time to `POST /v1/admin/ingest` and times
//!    each until `ArtifactHandle::epoch` advances. After the 8th row
//!    the served groups must equal a cold mine of all 72 rows. The
//!    pipeline then restarts from a new base, with another 8
//!    seed-chosen rows held out.
//! 3. **ladder** — one second of classify at each of a few fixed
//!    absolute rates, ingest still running. `http.max_rps` is the
//!    highest rate reached, from the verify rung up, before the first
//!    rung that misses the latency limit.
//!
//! Pipeline restarts are benchmark scaffolding, not user traffic:
//! classify requests overlapping one are left out of the latency
//! statistics (they still count as attempted and can still fail).

use crate::spans::Recorder;
use crate::stats::Dist;
use crate::{data, repeat_setup, Args, Metric, Outcome};
use farmer_core::{canonical_sort, dump_groups, Engine, Farmer, MiningParams, RuleGroup};
use farmer_dataset::Dataset;
use farmer_pipeline::{IncrementalMiner, Notify, Pipeline, PipelineConfig, PipelineHandle};
use farmer_serve::{
    http_get, http_post, ArtifactHandle, IngestHook, IngestRow, ServeConfig, ServerHandle,
    ShardedIndex,
};
use farmer_store::{
    dataset_fingerprint, publish_artifact, read_artifact, ArtifactMeta, ArtifactWriter,
    JournalWriter, VERSION,
};
use farmer_support::json::{Json, ObjBuilder};
use farmer_support::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use farmer_support::thread::Mutex;
use rowset::IdList;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Classify rate of the verify and nominal phases (requests/s).
const NOMINAL_RPS: f64 = 500.0;
/// Ladder rungs above the nominal rate: fixed absolute rates ≥15%
/// apart. The top one is below what the single generator thread can
/// send while a remine shares the host (~3k/s on 2 cores; ~10k/s
/// closed loop on an idle one).
const LADDER_RPS: [f64; 3] = [1000.0, 1400.0, 2000.0];
/// A rung meets the limit when its p99 (timed from when each request
/// was due) and the generator's own p99 lateness both stay within it.
/// Generous against a ~0.3 ms median: on two cores a remine can hold a
/// core for tens of ms, and scheduler delays of a few ms are routine.
const LATENCY_LIMIT_MS: f64 = 25.0;
const RUNG: Duration = Duration::from_secs(1);
const VERIFY: Duration = Duration::from_secs(2);

const HELD_OUT: usize = 8;
const MIN_SUP: usize = 4;
const DEBOUNCE_MS: u64 = 25;
/// Spacing of ingest posts, well above the debounce window.
const INGEST_INTERVAL: Duration = Duration::from_millis(150);
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);
/// How often the ingest thread checks for the epoch to advance; coarse
/// enough not to steal the host's two cores from the code under test.
const POLL: Duration = Duration::from_millis(2);

const SAMPLE_ITEMS: usize = 12;
const SAMPLES: usize = 256;
const WARMUP_REQUESTS: usize = 200;
const TOKEN: &str = "perfbench-admin";
/// Theta handed to `ArtifactHandle::load`; unused with default
/// sharding (`n_shards = 0`), which is what `farmer serve` runs.
const THETA: f64 = 0.8;
/// Classify calls per sample when timing the index on its own.
const INDEX_PROBE_REPEATS: usize = 20;

/// The server's ingest hook, pointed at whichever pipeline is current:
/// the server keeps one hook across the benchmark's pipeline restarts.
struct Forward(Mutex<Arc<PipelineHandle>>);

impl Forward {
    fn target(&self) -> Arc<PipelineHandle> {
        Arc::clone(&self.0.lock())
    }
}

impl IngestHook for Forward {
    fn ingest(&self, rows: &[IngestRow]) -> Result<usize, String> {
        self.target().ingest(rows)
    }

    fn activity(&self) -> u64 {
        self.target().activity()
    }

    fn stats(&self) -> Json {
        self.target().stats()
    }

    fn metrics_text(&self) -> String {
        self.target().metrics_text()
    }
}

struct Query {
    path: String,
    sample: IdList,
    expected: (u32, Option<u32>),
}

struct Live {
    dir: PathBuf,
    full: Dataset,
    handle: Arc<ArtifactHandle>,
    forward: Arc<Forward>,
    server: ServerHandle,
    addr: String,
    queries: Vec<Query>,
}

/// One ingest cycle: the base rows a pipeline starts from, the held-out
/// rows then posted one at a time, and what the server must serve once
/// all of them are in.
struct Cycle {
    base: Dataset,
    held: Vec<(IdList, u32)>,
    /// `dump_groups` of a cold mine of base + held-out rows.
    reference: String,
}

/// What the ingest thread owns: the running pipeline, its cycle, and
/// the RNG that picks each cycle's held-out rows.
struct Writer {
    pipeline: Pipeline,
    cycle: Cycle,
    rng: StdRng,
}

fn params() -> MiningParams {
    MiningParams::new(0).min_sup(MIN_SUP)
}

fn digest(groups: &[RuleGroup]) -> String {
    let mut groups = groups.to_vec();
    canonical_sort(&mut groups);
    dump_groups(&groups)
}

/// Starts a pipeline over `base` from an empty journal. The artifact is
/// removed first, so the start publishes the base groups (and, with an
/// in-process `notify`, swaps them into the server).
fn start_pipeline(dir: &Path, base: &Dataset, notify: Notify) -> Pipeline {
    let journal = dir.join("rows.fgd");
    let artifact = dir.join("irgs.fgi");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&artifact);
    let mut cfg = PipelineConfig::new(journal, artifact);
    cfg.params = params();
    cfg.debounce_ms = DEBOUNCE_MS;
    cfg.threads = 1;
    cfg.notify = notify;
    Pipeline::start(base.clone(), cfg).expect("start pipeline")
}

/// Holds 8 rows of `full` out, picked by `rng`. Each cycle holds out
/// other rows, so a run averages the remine cost over many rows rather
/// than the 8 one seed happens to pick.
fn next_cycle(full: &Dataset, rng: &mut StdRng) -> Cycle {
    let n = full.n_rows();
    let mut rows: Vec<u32> = (0..n as u32).collect();
    rows.shuffle(rng);
    let held_ids = &rows[..HELD_OUT];
    let mut order: Vec<u32> = (0..n as u32).filter(|r| !held_ids.contains(r)).collect();
    order.extend(held_ids);
    let merged = full.permuted(&order);
    let (base, _) = merged.split_at(n - HELD_OUT);
    let held = (n - HELD_OUT..n)
        .map(|r| (merged.row(r as u32).clone(), merged.label(r as u32)))
        .collect();
    let mut cold = Vec::new();
    for class in 0..merged.n_classes() as u32 {
        let mut p = params();
        p.target_class = class;
        cold.extend(Farmer::new(p).mine(&merged).groups);
    }
    Cycle {
        base,
        held,
        reference: digest(&cold),
    }
}

fn setup(seed: u64, dir: PathBuf) -> (Live, Writer) {
    std::fs::create_dir_all(&dir).expect("create run directory");
    let full = data::leukemia(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_7E11);
    let cycle = next_cycle(&full, &mut rng);
    let pipeline = start_pipeline(&dir, &cycle.base, Notify::None);
    let handle =
        Arc::new(ArtifactHandle::load(dir.join("irgs.fgi"), THETA, 0).expect("load artifact"));
    pipeline
        .handle()
        .set_notify(Notify::InProcess(Arc::clone(&handle)));
    let forward = Arc::new(Forward(Mutex::new(pipeline.handle())));
    let hook: Arc<dyn IngestHook> = forward.clone();
    let config = ServeConfig {
        workers: 2,
        admin_token: Some(TOKEN.to_string()),
        ingest: Some(hook),
        ..ServeConfig::default()
    };
    let server = farmer_serve::start(Arc::clone(&handle), &config).expect("start server");
    let addr = server.addr().to_string();

    let index = handle.current();
    let queries = (0..SAMPLES)
        .map(|_| {
            let r = rng.gen_range(0..full.n_rows()) as u32;
            let mut items: Vec<u32> = full.row(r).iter().collect();
            items.shuffle(&mut rng);
            items.truncate(SAMPLE_ITEMS);
            items.sort_unstable();
            let names: Vec<&str> = items.iter().map(|&i| full.item_name(i)).collect();
            let sample = IdList::from_sorted(items);
            let p = index.classify(&sample);
            Query {
                path: format!("/v1/classify?items={}", names.join(",")),
                sample,
                expected: (p.class, p.group),
            }
        })
        .collect::<Vec<_>>();
    for q in queries.iter().cycle().take(WARMUP_REQUESTS) {
        let resp = http_get(&addr, &q.path).expect("warm-up request");
        assert_eq!(resp.status, 200, "warm-up: {}", resp.body);
    }
    let live = Live {
        dir,
        full,
        handle,
        forward,
        server,
        addr,
        queries,
    };
    let writer = Writer {
        pipeline,
        cycle,
        rng,
    };
    (live, writer)
}

/// Sleeps until shortly before `due`, then spins the rest, so the
/// generator wakes on time without burning a core between requests.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One classify request of an open-loop phase.
struct Sent {
    due: Instant,
    send: Instant,
    done: Instant,
    ok: bool,
}

#[derive(Default)]
struct Phase {
    rate: f64,
    requests: Vec<Sent>,
    failed: u64,
    mismatched: u64,
}

/// Sends `GET /v1/classify` on a fixed schedule for `len` from one
/// thread (open loop: a slow answer delays later sends, and each
/// request is timed from when it was due). With `verify`, answers must
/// match the index classified directly.
fn open_loop(live: &Live, rate: f64, len: Duration, verify: bool, rng: &mut StdRng) -> Phase {
    let mut phase = Phase {
        rate,
        ..Phase::default()
    };
    let period = Duration::from_secs_f64(1.0 / rate);
    let n = (len.as_secs_f64() * rate).round().max(1.0) as u32;
    let start = Instant::now() + Duration::from_millis(1);
    for i in 0..n {
        let due = start + period * i;
        wait_until(due);
        let q = &live.queries[rng.gen_range(0..live.queries.len())];
        let send = Instant::now();
        let resp = http_get(&live.addr, &q.path);
        let done = Instant::now();
        let ok = match resp {
            Ok(r) if r.status == 200 => {
                let right = !verify || answer(&r.body) == Some(q.expected);
                phase.mismatched += u64::from(!right);
                right
            }
            _ => false,
        };
        phase.failed += u64::from(!ok);
        phase.requests.push(Sent {
            due,
            send,
            done,
            ok,
        });
    }
    phase
}

/// `(class, group)` of a classify answer.
fn answer(body: &str) -> Option<(u32, Option<u32>)> {
    let j = Json::parse(body).ok()?;
    let class = j.get("class")?.as_u64()? as u32;
    let group = match j.get("group")? {
        Json::Null => None,
        g => Some(g.as_u64()? as u32),
    };
    Some((class, group))
}

/// Latencies of `phase` (from due, from send) and generator lateness,
/// in ms, leaving out requests that overlap a pipeline restart. A
/// failed request counts as missing any limit: its latency from due is
/// infinite.
fn latencies(phase: &Phase, restarts: &[(Instant, Instant)]) -> (Dist, Dist, Dist) {
    let kept = phase
        .requests
        .iter()
        .filter(|s| !restarts.iter().any(|&(a, b)| s.due < b && s.done > a));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut due, mut send, mut late) = (Vec::new(), Vec::new(), Vec::new());
    for s in kept {
        due.push(if s.ok {
            ms(s.done - s.due)
        } else {
            f64::INFINITY
        });
        send.push(ms(s.done - s.send));
        late.push(ms(s.send.saturating_duration_since(s.due)));
    }
    (Dist::new(due), Dist::new(send), Dist::new(late))
}

fn meets_limit(phase: &Phase, restarts: &[(Instant, Instant)]) -> bool {
    let (due, _, late) = latencies(phase, restarts);
    !due.is_empty()
        && due.percentile(99.0) <= LATENCY_LIMIT_MS
        && late.percentile(99.0) <= LATENCY_LIMIT_MS
}

/// One ingest, with the moments it passed each observable boundary:
/// post sent, post answered, rows applied (`applied_rows` moved),
/// artifact published (`generation` moved), index swapped (`epoch`
/// moved).
struct Ingest {
    cycle: usize,
    row: usize,
    t: [Instant; 5],
}

/// Stage times of one held-out row, replayed off the serving path on a
/// shadow miner, journal, artifact and handle.
#[derive(Default)]
struct Stages {
    append_us: f64,
    apply_ms: f64,
    groups_ms: f64,
    encode_ms: f64,
    bytes: f64,
    publish_ms: f64,
    load_ms: f64,
    build_ms: f64,
    reload_ms: f64,
}

#[derive(Default)]
struct IngestLog {
    ingests: Vec<Ingest>,
    restarts: Vec<(Instant, Instant)>,
    /// Ingest posts sent.
    posts: u64,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    generations: u64,
    /// Per completed cycle (indexed like `Ingest::cycle`), per
    /// held-out row.
    shadow: Vec<Vec<Stages>>,
}

fn ingest_body(items: &IdList, label: u32) -> String {
    let ids: Vec<String> = items.iter().map(|i| i.to_string()).collect();
    format!(
        "{{\"rows\":[{{\"items\":[{}],\"label\":{label}}}]}}",
        ids.join(",")
    )
}

/// Posts each cycle's held-out rows one at a time until `stop`, then
/// restarts the pipeline on the next cycle's base rows.
fn ingest_loop(live: &Live, mut w: Writer, stop: &AtomicBool, shadow: bool) -> IngestLog {
    let mut log = IngestLog::default();
    let mut next = Instant::now();
    'cycles: for cycle in 0.. {
        for (row, (items, label)) in w.cycle.held.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                break 'cycles;
            }
            wait_until(next);
            let ph = w.pipeline.handle();
            let (epoch, applied, generation) =
                (live.handle.epoch(), ph.applied_rows(), ph.generation());
            let t0 = Instant::now();
            let resp = http_post(
                &live.addr,
                "/v1/admin/ingest",
                &ingest_body(items, *label),
                Some(TOKEN),
            );
            let t1 = Instant::now();
            log.posts += 1;
            log.attempted += 1;
            if !matches!(resp, Ok(ref r) if r.status == 200) {
                log.failed += 1;
                break;
            }
            let (mut t2, mut t3) = (None, None);
            let visible = loop {
                let now = Instant::now();
                if live.handle.epoch() != epoch {
                    break true;
                }
                if t2.is_none() && ph.applied_rows() != applied {
                    t2 = Some(now);
                }
                if t3.is_none() && ph.generation() != generation {
                    t3 = Some(now);
                }
                if now - t1 > VISIBLE_TIMEOUT {
                    break false;
                }
                std::thread::sleep(POLL);
            };
            let t4 = Instant::now();
            if !visible {
                log.failed += 1;
                break;
            }
            let t3 = t3.unwrap_or(t4);
            log.ingests.push(Ingest {
                cycle,
                row,
                t: [t0, t1, t2.unwrap_or(t3), t3, t4],
            });
            next = (t0 + INGEST_INTERVAL).max(t4);
            if row + 1 == w.cycle.held.len() {
                log.attempted += 1;
                if digest(live.handle.current().groups()) != w.cycle.reference {
                    log.failed += 1;
                    log.mismatched += 1;
                }
            }
        }
        let restart = Instant::now();
        log.generations += w.pipeline.handle().generation();
        w.pipeline.shutdown();
        if shadow {
            log.shadow.push(replay(live, &w.cycle));
        }
        w.cycle = next_cycle(&live.full, &mut w.rng);
        w.pipeline = start_pipeline(
            &live.dir,
            &w.cycle.base,
            Notify::InProcess(Arc::clone(&live.handle)),
        );
        *live.forward.0.lock() = w.pipeline.handle();
        log.restarts.push((restart, Instant::now()));
        next = Instant::now();
    }
    log.generations += w.pipeline.handle().generation();
    log
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Replays a cycle's held-out rows through the pipeline's stages one
/// call at a time — journal append, `apply_rows`, `groups`, encode,
/// publish, load, index build, reload — on files of its own.
fn replay(live: &Live, cycle: &Cycle) -> Vec<Stages> {
    let dir = live.dir.join("shadow");
    std::fs::create_dir_all(&dir).expect("create shadow directory");
    let artifact = dir.join("irgs.fgi");
    let mut miner = IncrementalMiner::new(cycle.base.clone(), params(), Engine::Bitset, 1);
    let meta = ArtifactMeta::from_dataset(miner.data());
    publish_artifact(&artifact, &meta, &miner.groups(), VERSION).expect("publish shadow base");
    let handle = ArtifactHandle::load(&artifact, THETA, 0).expect("load shadow artifact");
    let mut journal =
        JournalWriter::create(&dir.join("rows.fgd"), dataset_fingerprint(&cycle.base))
            .expect("create shadow journal");
    let mut stages = Vec::new();
    for (items, label) in &cycle.held {
        let mut s = Stages::default();
        let t = Instant::now();
        journal.append(items, *label).expect("journal append");
        s.append_us = ms_since(t) * 1e3;
        journal.sync().expect("journal sync");
        let t = Instant::now();
        miner
            .apply_rows(&[(items.clone(), *label)])
            .expect("apply held-out row");
        s.apply_ms = ms_since(t);
        let t = Instant::now();
        let groups = miner.groups();
        s.groups_ms = ms_since(t);
        let meta = ArtifactMeta::from_dataset(miner.data());
        let t = Instant::now();
        let mut bytes = Cursor::new(Vec::new());
        let mut w = ArtifactWriter::new(&mut bytes, &meta).expect("open encoder");
        for g in &groups {
            w.write_group(g).expect("encode group");
        }
        w.finish().expect("finish encoding");
        s.encode_ms = ms_since(t);
        let bytes = bytes.into_inner();
        s.bytes = bytes.len() as f64;
        let t = Instant::now();
        publish_artifact(&artifact, &meta, &groups, VERSION).expect("publish shadow artifact");
        s.publish_ms = ms_since(t);
        let t = Instant::now();
        let decoded = read_artifact(&bytes).expect("decode artifact");
        s.load_ms = ms_since(t);
        let t = Instant::now();
        let index = ShardedIndex::from_artifact(decoded);
        s.build_ms = ms_since(t);
        std::hint::black_box(index);
        let t = Instant::now();
        handle.reload().expect("reload shadow handle");
        s.reload_ms = ms_since(t);
        stages.push(s);
    }
    stages
}

pub fn run(args: &Args, out_dir: &Path) -> Outcome {
    let run_dir = out_dir.join(format!("serve-{}", std::process::id()));
    let mut out = Outcome::default();
    let (live, writer) = repeat_setup(&mut out, |k| {
        setup(args.seed, run_dir.join(format!("setup{k}")))
    });
    let served_before = live.server.requests_served();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC1A5_51F7);
    let mut rec = Recorder::new();

    // Phase 1: answers checked against the index, no ingest. A traced
    // run splits it into an untraced and a traced half.
    let verify = if args.trace {
        let half = VERIFY / 2;
        let untraced = open_loop(&live, NOMINAL_RPS, half, true, &mut rng);
        let traced = open_loop(&live, NOMINAL_RPS, half, true, &mut rng);
        record_classify(&mut rec, &traced, 1_000_000);
        vec![untraced, traced]
    } else {
        vec![open_loop(&live, NOMINAL_RPS, VERIFY, true, &mut rng)]
    };

    // Phases 2 and 3 share the ingest thread.
    let nominal_len = args
        .budget()
        .saturating_sub(VERIFY + RUNG * LADDER_RPS.len() as u32)
        .max(RUNG);
    let stop = AtomicBool::new(false);
    let (nominal, ladder, log) = std::thread::scope(|s| {
        let ingest = s.spawn(|| ingest_loop(&live, writer, &stop, args.trace));
        let nominal = open_loop(&live, NOMINAL_RPS, nominal_len, false, &mut rng);
        let mut ladder = Vec::new();
        for rate in LADDER_RPS {
            // restarts are only known once the ingest thread is done,
            // so every rung runs and all are judged afterwards
            ladder.push(open_loop(&live, rate, RUNG, false, &mut rng));
        }
        stop.store(true, Ordering::SeqCst);
        let log = ingest.join().expect("ingest thread panicked");
        (nominal, ladder, log)
    });

    let mut classifies = 0;
    for p in verify.iter().chain([&nominal]).chain(ladder.iter()) {
        classifies += p.requests.len() as u64;
        out.failed += p.failed;
        out.mismatched += p.mismatched;
    }
    let sent = classifies + log.posts;
    out.attempted += classifies + log.attempted;
    out.failed += log.failed;
    out.mismatched += log.mismatched;

    let mut max_rps = 0.0;
    for p in verify.iter().take(1).chain(ladder.iter()) {
        if !meets_limit(p, &log.restarts) {
            break;
        }
        max_rps = p.rate;
    }
    let visible = Dist::new(
        log.ingests
            .iter()
            .map(|i| (i.t[4] - i.t[1]).as_secs_f64() * 1e3)
            .collect(),
    );
    let (classify, _, _) = latencies(&nominal, &log.restarts);
    out.notes = vec![
        ("ingests".to_string(), Json::from(log.ingests.len())),
        ("restarts".to_string(), Json::from(log.restarts.len())),
        (
            "ladder".to_string(),
            Json::Arr(
                verify
                    .iter()
                    .take(1)
                    .chain([&nominal])
                    .chain(ladder.iter())
                    .map(|p| rung_json(p, &log.restarts))
                    .collect(),
            ),
        ),
    ];

    if args.trace {
        std::thread::sleep(Duration::from_millis(20));
        let served = live.server.requests_served() - served_before;
        traced_metrics(
            &mut out, &live, &mut rec, &verify, &nominal, &log, served, sent,
        );
        out.metrics.extend([
            Metric::new(
                "http.classify_p99_ms",
                classify.percentile(99.0),
                classify.len(),
                "p99",
            ),
            Metric::new(
                "http.max_rps",
                max_rps,
                ladder.len() + 1,
                "highest rung meeting the limit",
            ),
        ]);
        out.spans = Some(rec);
    } else {
        out.metrics = vec![
            Metric::p50("op_ms", &visible),
            Metric::tail("op_tail_ms", &visible),
            Metric::p50("op2_ms", &classify),
        ];
    }
    let Live { server, .. } = live;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&run_dir);
    out
}

fn rung_json(p: &Phase, restarts: &[(Instant, Instant)]) -> Json {
    let (due, send, late) = latencies(p, restarts);
    ObjBuilder::new()
        .field("rate", p.rate)
        .field("requests", p.requests.len() as u64)
        .field("failed", p.failed)
        .field("p50_ms", due.median())
        .field("p90_ms", due.percentile(90.0))
        .field("p99_ms", due.percentile(99.0))
        .field("from_send_p50_ms", send.median())
        .field("from_send_p99_ms", send.percentile(99.0))
        .field("generator_late_p99_ms", late.percentile(99.0))
        .field("meets_limit", meets_limit(p, restarts))
        .build()
}

/// Records each classify request as an operation: the generator's
/// lateness, then the request itself.
fn record_classify(rec: &mut Recorder, phase: &Phase, first_op: u64) {
    for (k, s) in phase.requests.iter().enumerate() {
        let op = first_op + k as u64;
        let root = rec.push("http.classify", op, None, 1, rec.ns(s.due), rec.ns(s.done));
        rec.push(
            "loadgen.late",
            op,
            Some(root),
            1,
            rec.ns(s.due),
            rec.ns(s.send),
        );
    }
}

fn stage_dist(log: &IngestLog, f: impl Fn(&Stages) -> f64) -> Dist {
    Dist::new(log.shadow.iter().flatten().map(f).collect())
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    out: &mut Outcome,
    live: &Live,
    rec: &mut Recorder,
    verify: &[Phase],
    nominal: &Phase,
    log: &IngestLog,
    served: u64,
    sent: u64,
) {
    record_classify(rec, nominal, 2_000_000);
    // Each ingest of a replayed cycle: its post, then the path to
    // visibility split at the observed boundaries, with the replayed
    // stage times of the same row placing the cuts the daemon does not
    // expose.
    let mut wait = Vec::new();
    for (k, i) in log.ingests.iter().enumerate() {
        let Some(stage) = log.shadow.get(i.cycle).and_then(|c| c.get(i.row)) else {
            continue;
        };
        let op = 3_000_000 + k as u64;
        let ns = |t: Instant| rec.ns(t);
        let [t0, t1, t2, t3, t4] = i.t.map(ns);
        let apply = (stage.apply_ms * 1e6) as u64;
        let groups = (stage.groups_ms * 1e6) as u64;
        let (publish, reload) = (stage.publish_ms, stage.reload_ms);
        rec.push("http.ingest_post", op, None, 2, t0, t1);
        let root = rec.push("pipeline.ingest_visible", op, None, 2, t1, t4);
        let apply_start = t2.saturating_sub(apply).max(t1);
        let groups_end = (t2 + groups).min(t3).max(t2);
        rec.push("pipeline.wait", op, Some(root), 2, t1, apply_start);
        rec.push("pipeline.apply_rows", op, Some(root), 2, apply_start, t2);
        rec.push("pipeline.groups", op, Some(root), 2, t2, groups_end);
        rec.push(
            "store.publish",
            op,
            Some(root),
            2,
            groups_end,
            t3.max(groups_end),
        );
        rec.push("index.reload", op, Some(root), 2, t3, t4);
        let visible = (t4 - t1) as f64 / 1e6;
        wait.push(visible - (apply + groups) as f64 / 1e6 - publish - reload);
    }

    let index = live.handle.current();
    let mut classify_us = Vec::new();
    let mut matches = Vec::new();
    for q in &live.queries {
        for _ in 0..INDEX_PROBE_REPEATS {
            let t = Instant::now();
            std::hint::black_box(index.classify(std::hint::black_box(&q.sample)));
            classify_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        matches.push(index.matches(&q.sample).len() as f64);
    }
    let classify_us = Dist::new(classify_us);
    let (_, service, late) = latencies(nominal, &log.restarts);
    let (untraced, _, _) = latencies(&verify[0], &[]);
    let (traced, _, _) = latencies(&verify[1], &[]);
    let visible_split = rec.split("pipeline.ingest_visible");
    let classify_split = rec.split("http.classify");
    out.metrics = vec![
        Metric::p50("pipeline.apply_rows_ms", &stage_dist(log, |s| s.apply_ms)),
        Metric::p50("pipeline.groups_ms", &stage_dist(log, |s| s.groups_ms)),
        Metric::once("pipeline.generations", log.generations as f64),
        Metric::p50("pipeline.wait_ms", &Dist::new(wait)),
        Metric::p50("store.encode_ms", &stage_dist(log, |s| s.encode_ms)),
        Metric::p50("store.artifact_bytes", &stage_dist(log, |s| s.bytes)),
        Metric::p50("store.publish_ms", &stage_dist(log, |s| s.publish_ms)),
        Metric::p50("store.load_ms", &stage_dist(log, |s| s.load_ms)),
        Metric::p50("store.journal_append_us", &stage_dist(log, |s| s.append_us)),
        Metric::p50("index.build_ms", &stage_dist(log, |s| s.build_ms)),
        Metric::p50("index.reload_ms", &stage_dist(log, |s| s.reload_ms)),
        Metric::p50("index.classify_us", &classify_us),
        Metric::p50("index.matches_per_query", &Dist::new(matches)),
        Metric::new(
            "http.self_us",
            service.median() * 1e3 - classify_us.median(),
            service.len(),
            "p50 client (from send) - p50 index.classify_us",
        ),
        Metric::once("http.shed", live.server.requests_shed() as f64),
        Metric::new(
            "http.generator_late_p99_ms",
            late.percentile(99.0),
            late.len(),
            "p99",
        ),
        Metric::once("http.served_per_sent", served as f64 / sent.max(1) as f64),
        Metric::new(
            "trace_overhead_pct",
            100.0 * (traced.median() - untraced.median()) / untraced.median(),
            traced.len() + untraced.len(),
            "p50 classify, traced vs untraced verify halves",
        ),
        Metric::new(
            "trace.blocking_gap_pct",
            visible_split.gap_pct().max(classify_split.gap_pct()),
            visible_split.totals_ms.len() + classify_split.totals_ms.len(),
            "worse of ingest_visible and classify",
        ),
    ];
    out.tables = vec![
        (
            "pipeline.ingest_visible".to_string(),
            visible_split.table_json(),
        ),
        ("http.classify".to_string(), classify_split.table_json()),
    ];
    out.lanes = vec![(1, "classify generator"), (2, "ingest poster")];
}
