//! The remine daemon: journal in, fresh artifacts out.
//!
//! One background thread owns the [`IncrementalMiner`] and runs the
//! ingest→remine→publish loop:
//!
//! 1. **Ingest** — rows arrive through [`PipelineHandle::ingest`]
//!    (wired to `POST /v1/admin/ingest` via the
//!    [`farmer_serve::IngestHook`] impl) or from another process
//!    appending to the same `.fgd` journal (`farmer ingest`). Either
//!    way the journal file is the single source of truth; the hook
//!    only validates and appends.
//! 2. **Remine** — the loop polls the journal. When it grows, the
//!    daemon waits for a quiet window of `debounce_ms` (so a burst of
//!    arrivals coalesces into one remine — single-flight by
//!    construction, there is only the one thread), then feeds every
//!    unapplied record to the miner's delta-restricted search.
//! 3. **Publish** — the refreshed groups are written with
//!    [`farmer_store::publish_artifact`] (temp file → fsync → atomic
//!    rename), the generation counter bumps, and the configured
//!    [`Notify`] target is told: an in-process
//!    [`ArtifactHandle::reload`] for `serve --watch`, or an
//!    authenticated `POST /v1/admin/reload` for a remote server.
//!
//! Failures never wedge the loop: a publish or notify error is
//! counted and surfaced in [`PipelineHandle::stats`] /
//! [`PipelineHandle::metrics_text`], a poison journal row is skipped
//! past (with the error recorded) rather than retried forever.

use crate::engine::IncrementalMiner;
use farmer_core::MiningParams;
use farmer_dataset::Dataset;
use farmer_serve::{http_post, ArtifactHandle, IngestHook, IngestRow};
use farmer_store::{
    dataset_fingerprint, publish_artifact, read_journal, ArtifactMeta, JournalWriter, VERSION,
};
use farmer_support::json::{Json, ObjBuilder};
use farmer_support::thread::Mutex;
use rowset::IdList;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Who to tell after an artifact publish lands.
pub enum Notify {
    /// Nobody — consumers poll the artifact path themselves.
    None,
    /// Swap a server in this process (`serve --watch`).
    InProcess(Arc<ArtifactHandle>),
    /// `POST /v1/admin/reload` on a remote server (`mine --watch
    /// --notify-url`).
    Remote {
        /// The server's `host:port`.
        addr: String,
        /// Bearer token for the admin endpoint, if it requires one.
        token: Option<String>,
    },
}

/// How the daemon ingests, remines, and publishes.
pub struct PipelineConfig {
    /// The `.fgd` row journal (created if absent; its header must
    /// fingerprint-match the base dataset).
    pub journal: PathBuf,
    /// The `.fgi` artifact to (re)publish.
    pub artifact: PathBuf,
    /// Mining thresholds; `target_class` is ignored — the mined
    /// classes come from [`classes`](Self::classes).
    pub params: MiningParams,
    /// Which classes to mine into the artifact. `None` mines every
    /// class; `Some(vec![c])` matches a `mine --class c --save-irgs`
    /// artifact.
    pub classes: Option<Vec<u32>>,
    /// Worker threads per mine (0 = sequential).
    pub threads: usize,
    /// Quiet window after the last journal growth before a remine
    /// starts; coalesces arrival bursts.
    pub debounce_ms: u64,
    /// Journal poll cadence. 0 picks a default derived from the
    /// debounce window.
    pub poll_ms: u64,
    /// Publish notification target.
    pub notify: Notify,
}

impl PipelineConfig {
    /// A config with the given paths and everything else defaulted:
    /// `min_sup = 1` mining of every class, sequential,
    /// 200 ms debounce, no notification.
    pub fn new(journal: impl Into<PathBuf>, artifact: impl Into<PathBuf>) -> Self {
        PipelineConfig {
            journal: journal.into(),
            artifact: artifact.into(),
            params: MiningParams::new(0),
            classes: None,
            threads: 0,
            debounce_ms: 200,
            poll_ms: 0,
            notify: Notify::None,
        }
    }

    fn effective_poll(&self) -> Duration {
        let ms = if self.poll_ms > 0 {
            self.poll_ms
        } else {
            (self.debounce_ms / 4).clamp(10, 250)
        };
        Duration::from_millis(ms)
    }
}

/// The shared, thread-safe face of a running pipeline: the ingest
/// door, the counters, and the stats/metrics surfaces. This is what
/// plugs into [`farmer_serve::ServeConfig::ingest`].
pub struct PipelineHandle {
    writer: Mutex<JournalWriter>,
    n_items: usize,
    n_classes: u32,
    /// Monotonic liveness: rows journaled + publishes landed.
    activity: AtomicU64,
    ingested_rows: AtomicU64,
    applied_rows: AtomicU64,
    current_rows: AtomicU64,
    remines: AtomicU64,
    publishes: AtomicU64,
    publish_failures: AtomicU64,
    /// Successful publishes since start — the artifact generation.
    generation: AtomicU64,
    last_error: Mutex<Option<String>>,
    notify: Mutex<Notify>,
}

impl PipelineHandle {
    fn record_error(&self, e: String) {
        *self.last_error.lock() = Some(e);
    }

    /// Artifact generation: successful publishes since the daemon
    /// started.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Rows folded into the currently published artifact (beyond the
    /// base dataset).
    pub fn applied_rows(&self) -> u64 {
        self.applied_rows.load(Ordering::Relaxed)
    }

    /// The most recent pipeline error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Swaps the publish notification target. Lets `serve --watch`
    /// start the pipeline first (so the initial publish can create a
    /// missing artifact), load the server handle from it, and only
    /// then point notifications at that handle.
    pub fn set_notify(&self, notify: Notify) {
        *self.notify.lock() = notify;
    }
}

impl IngestHook for PipelineHandle {
    fn ingest(&self, rows: &[IngestRow]) -> Result<usize, String> {
        // Validate the whole batch before journaling anything, so the
        // append loop below can only fail on I/O.
        for (k, (items, label)) in rows.iter().enumerate() {
            if *label >= self.n_classes {
                return Err(format!(
                    "row {k}: label {label} out of range (dataset has {} classes)",
                    self.n_classes
                ));
            }
            for w in items.windows(2) {
                if w[1] <= w[0] {
                    return Err(format!("row {k}: item ids must be strictly ascending"));
                }
            }
            if let Some(&m) = items.last() {
                if m as usize >= self.n_items {
                    return Err(format!(
                        "row {k}: item id {m} out of range (dataset has {} items)",
                        self.n_items
                    ));
                }
            }
        }
        let mut w = self.writer.lock();
        for (items, label) in rows {
            let ids = IdList::from_sorted(items.clone());
            w.append(&ids, *label).map_err(|e| e.to_string())?;
        }
        w.sync().map_err(|e| e.to_string())?;
        drop(w);
        self.ingested_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.activity.fetch_add(1, Ordering::Relaxed);
        Ok(rows.len())
    }

    fn activity(&self) -> u64 {
        self.activity.load(Ordering::Relaxed)
    }

    fn stats(&self) -> Json {
        let (last_error, base) = (
            match self.last_error.lock().clone() {
                Some(e) => Json::Str(e),
                None => Json::Null,
            },
            self.current_rows.load(Ordering::Relaxed) - self.applied_rows.load(Ordering::Relaxed),
        );
        ObjBuilder::new()
            .field("generation", self.generation.load(Ordering::Relaxed) as i64)
            .field(
                "ingested_rows",
                self.ingested_rows.load(Ordering::Relaxed) as i64,
            )
            .field(
                "applied_rows",
                self.applied_rows.load(Ordering::Relaxed) as i64,
            )
            .field("base_rows", base as i64)
            .field("remines", self.remines.load(Ordering::Relaxed) as i64)
            .field("publishes", self.publishes.load(Ordering::Relaxed) as i64)
            .field(
                "publish_failures",
                self.publish_failures.load(Ordering::Relaxed) as i64,
            )
            .field("last_error", last_error)
            .build()
    }

    fn metrics_text(&self) -> String {
        let counter = |name: &str, v: u64| {
            format!("# TYPE farmer_pipeline_{name} counter\nfarmer_pipeline_{name} {v}\n")
        };
        let mut out = String::new();
        out.push_str(&counter(
            "ingested_rows_total",
            self.ingested_rows.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "remines_total",
            self.remines.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "publishes_total",
            self.publishes.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "publish_failures_total",
            self.publish_failures.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "# TYPE farmer_pipeline_generation gauge\nfarmer_pipeline_generation {}\n",
            self.generation.load(Ordering::Relaxed)
        ));
        out
    }
}

/// A running ingest→remine→publish daemon. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the loop and joins the thread.
pub struct Pipeline {
    handle: Arc<PipelineHandle>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Pipeline {
    /// Opens (or creates) the journal against `base`, replays any
    /// backlog through the miner, publishes the initial artifact when
    /// there was a backlog or none exists yet, and starts the loop.
    pub fn start(base: Dataset, mut config: PipelineConfig) -> Result<Pipeline, String> {
        let fingerprint = dataset_fingerprint(&base);
        let writer =
            JournalWriter::open_append(&config.journal, fingerprint).map_err(|e| e.to_string())?;
        let journal = read_journal(&config.journal).map_err(|e| e.to_string())?;
        let backlog: Vec<(IdList, u32)> = journal
            .records
            .into_iter()
            .map(|r| (r.items, r.label))
            .collect();

        let handle = Arc::new(PipelineHandle {
            writer: Mutex::new(writer),
            n_items: base.n_items(),
            n_classes: base.n_classes() as u32,
            activity: AtomicU64::new(0),
            ingested_rows: AtomicU64::new(0),
            applied_rows: AtomicU64::new(0),
            current_rows: AtomicU64::new(0),
            remines: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            publish_failures: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            last_error: Mutex::new(None),
            notify: Mutex::new(std::mem::replace(&mut config.notify, Notify::None)),
        });

        let classes = config
            .classes
            .clone()
            .unwrap_or_else(|| (0..base.n_classes() as u32).collect());
        let mut miner =
            IncrementalMiner::for_classes(base, config.params.clone(), classes, config.threads);
        let mut applied = 0usize;
        if !backlog.is_empty() {
            miner.apply_rows(&backlog).map_err(|e| e.to_string())?;
            applied = backlog.len();
            handle.remines.fetch_add(1, Ordering::Relaxed);
        }
        handle.applied_rows.store(applied as u64, Ordering::Relaxed);
        handle
            .current_rows
            .store(miner.n_rows() as u64, Ordering::Relaxed);
        if applied > 0 || !config.artifact.exists() {
            publish(&mut miner, &config, &handle);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("farmer-pipeline".into())
                .spawn(move || run_loop(miner, config, handle, stop, applied))
                .map_err(|e| format!("spawning pipeline thread: {e}"))?
        };
        Ok(Pipeline {
            handle,
            stop,
            thread: Some(thread),
        })
    }

    /// The shared handle, for wiring into
    /// [`farmer_serve::ServeConfig::ingest`] and for stats polling.
    pub fn handle(&self) -> Arc<PipelineHandle> {
        Arc::clone(&self.handle)
    }

    /// Stops the loop and joins the daemon thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_loop(
    mut miner: IncrementalMiner,
    config: PipelineConfig,
    handle: Arc<PipelineHandle>,
    stop: Arc<AtomicBool>,
    mut applied: usize,
) {
    let poll = config.effective_poll();
    let debounce = Duration::from_millis(config.debounce_ms);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        let journal = match read_journal(&config.journal) {
            Ok(j) => j,
            Err(e) => {
                handle.record_error(format!("journal read: {e}"));
                continue;
            }
        };
        if journal.records.len() <= applied {
            continue;
        }
        // Debounce: wait for a quiet window so a burst coalesces into
        // one remine, then take *everything* queued by the time the
        // window closes (single-flight).
        let mut latest = journal;
        let mut quiet_since = Instant::now();
        while quiet_since.elapsed() < debounce && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(poll.min(debounce));
            match read_journal(&config.journal) {
                Ok(j) if j.records.len() > latest.records.len() => {
                    latest = j;
                    quiet_since = Instant::now();
                }
                Ok(_) => {}
                Err(e) => handle.record_error(format!("journal read: {e}")),
            }
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let delta: Vec<(IdList, u32)> = latest.records[applied..]
            .iter()
            .map(|r| (r.items.clone(), r.label))
            .collect();
        let n_new = delta.len();
        if let Err(e) = miner.apply_rows(&delta) {
            // A poison row would otherwise hot-loop; skip past it and
            // surface the error instead.
            handle.record_error(format!("remine skipped {n_new} journal rows: {e}"));
            applied = latest.records.len();
            continue;
        }
        applied = latest.records.len();
        handle.remines.fetch_add(1, Ordering::Relaxed);
        handle.applied_rows.store(applied as u64, Ordering::Relaxed);
        handle
            .current_rows
            .store(miner.n_rows() as u64, Ordering::Relaxed);
        publish(&mut miner, &config, &handle);
    }
}

/// Writes the miner's current groups to the artifact path (atomic
/// rename), bumps the generation, and notifies the configured target.
/// Failures are counted and recorded, never propagated — the old
/// artifact keeps serving.
fn publish(miner: &mut IncrementalMiner, config: &PipelineConfig, handle: &PipelineHandle) {
    let groups = miner.groups();
    let meta = ArtifactMeta::from_dataset(miner.data());
    match publish_artifact(&config.artifact, &meta, &groups, VERSION) {
        Ok(_) => {
            handle.publishes.fetch_add(1, Ordering::Relaxed);
            handle.generation.fetch_add(1, Ordering::Relaxed);
            handle.activity.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            handle.publish_failures.fetch_add(1, Ordering::Relaxed);
            handle.record_error(format!("publish: {e}"));
            return;
        }
    }
    let notify = handle.notify.lock();
    match &*notify {
        Notify::None => {}
        Notify::InProcess(h) => {
            if let Err(e) = h.reload() {
                handle.record_error(format!("in-process reload: {e}"));
            }
        }
        Notify::Remote { addr, token } => {
            match http_post(addr, "/v1/admin/reload", "{}", token.as_deref()) {
                Ok(resp) if resp.status == 200 => {}
                Ok(resp) => handle.record_error(format!(
                    "remote reload: {addr} answered HTTP {}",
                    resp.status
                )),
                Err(e) => handle.record_error(format!("remote reload: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_store::Artifact;

    fn base() -> Dataset {
        farmer_dataset::paper_example()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fgd-daemon-{}-{name}", std::process::id()))
    }

    fn wait_for<F: Fn() -> bool>(what: &str, f: F) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn ingest_remine_publish_round_trip() {
        let journal = tmp("rt.fgd");
        let artifact = tmp("rt.fgi");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
        let data = base();
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 50;
        let mut pipeline = Pipeline::start(data.clone(), cfg).unwrap();
        let handle = pipeline.handle();
        // Initial publish (no artifact existed).
        wait_for("initial publish", || handle.generation() >= 1);
        let before = Artifact::load(&artifact).unwrap();
        assert_eq!(before.meta.n_rows, data.n_rows() as u64);

        let n = handle
            .ingest(&[(vec![0, 2, 4], 1), (vec![1, 3], 0)])
            .unwrap();
        assert_eq!(n, 2);
        wait_for("remine publish", || handle.generation() >= 2);
        wait_for("rows applied", || handle.applied_rows() == 2);
        let after = Artifact::load(&artifact).unwrap();
        assert_eq!(after.meta.n_rows, data.n_rows() as u64 + 2);
        assert!(handle.last_error().is_none(), "{:?}", handle.last_error());

        // Stats and metrics surfaces reflect the run.
        let stats = handle.stats().to_string();
        assert!(stats.contains("\"generation\""), "{stats}");
        let metrics = handle.metrics_text();
        assert!(
            metrics.contains("farmer_pipeline_publishes_total"),
            "{metrics}"
        );
        pipeline.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn restart_replays_the_journal_backlog() {
        let journal = tmp("replay.fgd");
        let artifact = tmp("replay.fgi");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
        let data = base();
        {
            let mut cfg = PipelineConfig::new(&journal, &artifact);
            cfg.debounce_ms = 50;
            let mut p = Pipeline::start(data.clone(), cfg).unwrap();
            let h = p.handle();
            h.ingest(&[(vec![0, 1], 0)]).unwrap();
            wait_for("first run publish", || h.applied_rows() == 1);
            p.shutdown();
        }
        // A fresh daemon over the same journal folds the backlog in
        // before serving its first artifact.
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 50;
        let mut p = Pipeline::start(data.clone(), cfg).unwrap();
        assert_eq!(p.handle().applied_rows(), 1);
        let art = Artifact::load(&artifact).unwrap();
        assert_eq!(art.meta.n_rows, data.n_rows() as u64 + 1);
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn ingest_rejects_bad_rows_without_journaling() {
        let journal = tmp("bad.fgd");
        let artifact = tmp("bad.fgi");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
        let data = base();
        let n_items = data.n_items() as u32;
        let n_classes = data.n_classes() as u32;
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 50;
        let mut p = Pipeline::start(data, cfg).unwrap();
        let h = p.handle();
        assert!(h.ingest(&[(vec![0], n_classes)]).is_err());
        assert!(h.ingest(&[(vec![n_items], 0)]).is_err());
        assert!(h.ingest(&[(vec![2, 1], 0)]).is_err());
        // Mixed batch: one good, one bad — nothing lands.
        assert!(h.ingest(&[(vec![0], 0), (vec![1, 1], 0)]).is_err());
        assert_eq!(
            read_journal(&journal).unwrap().records.len(),
            0,
            "rejected batches must not reach the journal"
        );
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn in_process_notify_advances_the_server_epoch() {
        let journal = tmp("notify.fgd");
        let artifact = tmp("notify.fgi");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
        let data = base();
        // Seed the artifact so a handle can load it first.
        {
            let mut cfg = PipelineConfig::new(&journal, &artifact);
            cfg.debounce_ms = 50;
            let p = Pipeline::start(data.clone(), cfg).unwrap();
            wait_for("seed publish", || p.handle().generation() >= 1);
        }
        let server = Arc::new(ArtifactHandle::load(&artifact, 0.8, 1).unwrap());
        assert_eq!(server.epoch(), 0);
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 50;
        cfg.notify = Notify::InProcess(Arc::clone(&server));
        let mut p = Pipeline::start(data, cfg).unwrap();
        let h = p.handle();
        let activity_before = h.activity();
        h.ingest(&[(vec![0, 3], 1)]).unwrap();
        wait_for("notify reload", || server.epoch() >= 1);
        assert!(
            h.activity() > activity_before,
            "ingest+publish must move the liveness counter"
        );
        assert!(h.last_error().is_none(), "{:?}", h.last_error());
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }
}
