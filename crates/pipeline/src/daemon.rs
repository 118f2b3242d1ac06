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
//!    only validates and appends, then wakes the loop.
//! 2. **Remine** — the loop tails the journal from the byte offset
//!    past the last record it took, when an in-process ingest wakes
//!    it and on a poll that finds other processes' appends. Each
//!    record gets the ingest door's checks ([`check_row`]); one that
//!    fails them is skipped on its own. The rows kept are fed to the
//!    miner's delta-restricted search at once if no remine has
//!    finished within the last `debounce_ms`. Rows that arrive during
//!    a remine or inside that window wait until it closes and then go
//!    into one remine together (single-flight by construction, there
//!    is only the one thread). So there is at most one generation per
//!    window, and a row is served at most one window plus one remine
//!    after the remine it arrived during.
//! 3. **Publish** — the refreshed groups are written with
//!    [`farmer_store::publish_artifact`] (temp file → fsync → atomic
//!    rename → directory fsync), the generation counter bumps, and the
//!    configured [`Notify`] target is told: for `serve --watch`, the
//!    in-process [`ArtifactHandle`] is handed the same groups
//!    ([`ArtifactHandle::install`], no read-back of the file just
//!    written); for a remote server, an authenticated
//!    `POST /v1/admin/reload`.
//!
//! Failures never wedge the loop: a publish or notify error is
//! counted and surfaced in [`PipelineHandle::stats`] /
//! [`PipelineHandle::metrics_text`], and a journal row that does not
//! fit the base dataset is skipped with the error recorded, while the
//! rows around it still land.

use crate::engine::IncrementalMiner;
use farmer_core::MiningParams;
use farmer_dataset::{check_row, Dataset};
use farmer_serve::{http_post, ArtifactHandle, IngestHook, IngestRow};
use farmer_store::{
    dataset_fingerprint, publish_artifact, read_journal_from, Artifact, ArtifactMeta,
    JournalRecord, JournalWriter, VERSION,
};
use farmer_support::json::{Json, ObjBuilder};
use farmer_support::thread::Mutex;
use rowset::IdList;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// Who to tell after an artifact publish lands.
pub enum Notify {
    /// Nobody — consumers poll the artifact path themselves.
    None,
    /// Swap a server in this process (`serve --watch`): after each
    /// publish it is handed the published groups
    /// ([`ArtifactHandle::install`]), so it must serve the artifact
    /// path the pipeline publishes.
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
    /// The least gap between one generation and the next remine. Rows
    /// taken when no remine has finished within the last `debounce_ms`
    /// are remined at once; rows that arrive during a remine or inside
    /// that window wait until it closes and go into one remine, so
    /// there is at most one generation per window. Every remine
    /// attempt opens the window, one whose fold or publish failed
    /// included. In-process ingests are seen at once; appends by other
    /// processes are found by a journal poll every
    /// `(debounce_ms / 4).clamp(10, 250)` ms.
    pub debounce_ms: u64,
    /// Publish notification target.
    pub notify: Notify,
}

impl PipelineConfig {
    /// A config with the given paths and everything else defaulted:
    /// `min_sup = 1` mining of every class, sequential, a 200 ms
    /// remine window, no notification.
    pub fn new(journal: impl Into<PathBuf>, artifact: impl Into<PathBuf>) -> Self {
        PipelineConfig {
            journal: journal.into(),
            artifact: artifact.into(),
            params: MiningParams::new(0),
            classes: None,
            threads: 0,
            debounce_ms: 200,
            notify: Notify::None,
        }
    }

    /// How often the loop looks for appends nobody woke it for: those
    /// of other processes.
    fn poll(&self) -> Duration {
        Duration::from_millis((self.debounce_ms / 4).clamp(10, 250))
    }
}

/// Wakes the remine loop before its poll timeout: set by an in-process
/// append and by shutdown.
#[derive(Default)]
struct Wake {
    state: Mutex<WakeState>,
    cv: Condvar,
}

#[derive(Default)]
struct WakeState {
    /// An in-process append landed since the loop last woke.
    appended: bool,
    stop: bool,
}

impl Wake {
    fn signal(&self, set: impl FnOnce(&mut WakeState)) {
        set(&mut self.state.lock());
        self.cv.notify_one();
    }

    /// Waits until an append or a stop is signalled or `timeout`
    /// passes, consumes the append signal, and returns whether the loop
    /// must stop.
    fn wait(&self, timeout: Duration) -> bool {
        let (mut state, _) = self
            .cv
            .wait_timeout_while(self.state.lock(), timeout, |s| !s.appended && !s.stop)
            .unwrap_or_else(PoisonError::into_inner);
        state.appended = false;
        state.stop
    }
}

/// The shared, thread-safe face of a running pipeline: the ingest
/// door, the counters, and the stats/metrics surfaces. This is what
/// plugs into [`farmer_serve::ServeConfig::ingest`].
pub struct PipelineHandle {
    writer: Mutex<JournalWriter>,
    n_items: usize,
    n_classes: usize,
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
    /// Journal record bytes the daemon has read, backlog included.
    journal_bytes_read: AtomicU64,
    last_error: Mutex<Option<String>>,
    notify: Mutex<Notify>,
    wake: Wake,
}

impl PipelineHandle {
    fn record_error(&self, e: String) {
        *self.last_error.lock() = Some(e);
    }

    /// The journal records the miner can fold, in order. A record that
    /// fails the ingest door's checks (another process wrote it) is
    /// left out on its own and named in the last error by its position
    /// in the journal; `first` is the position of `records[0]`.
    fn foldable(&self, records: Vec<JournalRecord>, first: usize) -> Vec<(IdList, u32)> {
        let mut rows = Vec::with_capacity(records.len());
        for (k, r) in records.into_iter().enumerate() {
            match check_row(r.items.as_slice(), r.label, self.n_items, self.n_classes) {
                Ok(()) => rows.push((r.items, r.label)),
                Err(e) => self.record_error(format!("skipped journal row {}: {e}", first + k)),
            }
        }
        rows
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
            check_row(items, *label, self.n_items, self.n_classes)
                .map_err(|e| format!("row {k}: {e}"))?;
        }
        let mut w = self.writer.lock();
        for (items, label) in rows {
            let ids = IdList::from_sorted(items.clone());
            w.append(&ids, *label).map_err(|e| e.to_string())?;
        }
        w.sync().map_err(|e| e.to_string())?;
        drop(w);
        self.wake.signal(|s| s.appended = true);
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
            .field(
                "journal_bytes_read",
                self.journal_bytes_read.load(Ordering::Relaxed) as i64,
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
        out.push_str(&counter(
            "journal_bytes_read_total",
            self.journal_bytes_read.load(Ordering::Relaxed),
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
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Pipeline {
    /// Opens (or creates) the journal against `base`, replays any
    /// backlog through the miner (skipping, and recording, each row
    /// that does not fit `base`), publishes the initial artifact when
    /// rows were replayed or none exists yet, and starts the loop.
    pub fn start(base: Dataset, mut config: PipelineConfig) -> Result<Pipeline, String> {
        let fingerprint = dataset_fingerprint(&base);
        let (writer, journal) =
            JournalWriter::open_append(&config.journal, fingerprint).map_err(|e| e.to_string())?;
        let (offset, taken) = (journal.end, journal.records.len());

        let handle = Arc::new(PipelineHandle {
            writer: Mutex::new(writer),
            n_items: base.n_items(),
            n_classes: base.n_classes(),
            activity: AtomicU64::new(0),
            ingested_rows: AtomicU64::new(0),
            applied_rows: AtomicU64::new(0),
            current_rows: AtomicU64::new(0),
            remines: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            publish_failures: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            journal_bytes_read: AtomicU64::new(journal.bytes_read),
            last_error: Mutex::new(None),
            notify: Mutex::new(std::mem::replace(&mut config.notify, Notify::None)),
            wake: Wake::default(),
        });
        let backlog = handle.foldable(journal.records, 0);

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

        let thread = {
            let handle = Arc::clone(&handle);
            std::thread::Builder::new()
                .name("farmer-pipeline".into())
                .spawn(move || run_loop(miner, config, handle, offset, taken))
                .map_err(|e| format!("spawning pipeline thread: {e}"))?
        };
        Ok(Pipeline {
            handle,
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
        self.handle.wake.signal(|s| s.stop = true);
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

/// Tails the journal from byte `offset`, past the first `taken`
/// records, and remines what it takes until the pipeline stops.
fn run_loop(
    mut miner: IncrementalMiner,
    config: PipelineConfig,
    handle: Arc<PipelineHandle>,
    mut offset: u64,
    mut taken: usize,
) {
    let poll = config.poll();
    let debounce = Duration::from_millis(config.debounce_ms);
    let mut delta: Vec<(IdList, u32)> = Vec::new();
    // When the last remine attempt finished: rows taken less than
    // `debounce` after it wait in `delta`. The loop starts idle, so
    // the first rows it takes go at once.
    let mut last: Option<Instant> = None;
    loop {
        let timeout = match last {
            Some(t) if !delta.is_empty() => {
                poll.min((t + debounce).saturating_duration_since(Instant::now()))
            }
            _ => poll,
        };
        if handle.wake.wait(timeout) {
            return;
        }
        match read_journal_from(&config.journal, offset) {
            Ok(tail) => {
                handle
                    .journal_bytes_read
                    .fetch_add(tail.bytes_read, Ordering::Relaxed);
                offset = tail.end;
                let n = tail.records.len();
                delta.extend(handle.foldable(tail.records, taken));
                taken += n;
            }
            Err(e) => handle.record_error(format!("journal read: {e}")),
        }
        if delta.is_empty() || last.is_some_and(|t| t.elapsed() < debounce) {
            continue;
        }
        // Everything taken by now goes into one remine (single-flight).
        let delta = std::mem::take(&mut delta);
        match miner.apply_rows(&delta) {
            Ok(()) => {
                handle.remines.fetch_add(1, Ordering::Relaxed);
                handle
                    .applied_rows
                    .fetch_add(delta.len() as u64, Ordering::Relaxed);
                handle
                    .current_rows
                    .store(miner.n_rows() as u64, Ordering::Relaxed);
                publish(&mut miner, &config, &handle);
            }
            // The rows passed `foldable`'s checks, so this is not
            // expected; drop them rather than retry them forever.
            Err(e) => {
                let n = delta.len();
                handle.record_error(format!("remine skipped {n} journal rows: {e}"));
            }
        }
        // Every attempt, failed or not, opens the next window, so
        // nothing can hot-loop.
        last = Some(Instant::now());
    }
}

/// Writes the miner's current groups to the artifact path (atomic
/// rename), bumps the generation, and notifies the configured target.
/// Failures are counted and recorded, never propagated — the old
/// artifact keeps serving.
fn publish(miner: &mut IncrementalMiner, config: &PipelineConfig, handle: &PipelineHandle) {
    let groups = miner.groups();
    let meta = ArtifactMeta::from_dataset(miner.data());
    if let Err(e) = publish_artifact(&config.artifact, &meta, &groups, VERSION) {
        handle.publish_failures.fetch_add(1, Ordering::Relaxed);
        handle.record_error(format!("publish: {e}"));
        return;
    }
    handle.publishes.fetch_add(1, Ordering::Relaxed);
    handle.generation.fetch_add(1, Ordering::Relaxed);
    handle.activity.fetch_add(1, Ordering::Relaxed);
    let notify = handle.notify.lock();
    match &*notify {
        Notify::None => {}
        // The publish has landed, so serving these groups cannot run
        // ahead of the artifact on disk; reading it back would only
        // decode what is already in hand.
        Notify::InProcess(h) => {
            h.install(Artifact {
                meta,
                groups,
                version: VERSION,
            });
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
    use farmer_core::dump_groups;
    use farmer_store::{read_journal, JOURNAL_HEADER_LEN};

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
        let server = Arc::new(ArtifactHandle::load(&artifact, 0.8, 0).unwrap());
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

    /// Journal and artifact paths for one test, cleared of leftovers.
    fn paths(name: &str) -> (PathBuf, PathBuf) {
        let (journal, artifact) = (tmp(&format!("{name}.fgd")), tmp(&format!("{name}.fgi")));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
        (journal, artifact)
    }

    /// Starts a pipeline that publishes the base groups, then points
    /// it at a server handle loaded from that artifact, the way
    /// `serve --watch` wires itself.
    fn serving(
        journal: &PathBuf,
        artifact: &PathBuf,
        debounce_ms: u64,
    ) -> (Pipeline, Arc<ArtifactHandle>) {
        let mut cfg = PipelineConfig::new(journal, artifact);
        cfg.debounce_ms = debounce_ms;
        let p = Pipeline::start(base(), cfg).unwrap();
        let server = Arc::new(ArtifactHandle::load(artifact, 0.8, 0).unwrap());
        p.handle()
            .set_notify(Notify::InProcess(Arc::clone(&server)));
        (p, server)
    }

    #[test]
    fn idle_polls_read_no_journal_bytes_twice() {
        let (journal, artifact) = paths("tail");
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 40;
        let poll = cfg.poll();
        let mut p = Pipeline::start(base(), cfg).unwrap();
        let h = p.handle();
        let rows = [(vec![0, 3], 1), (vec![1, 2, 5], 0), (vec![4], 1)];
        for (k, row) in rows.iter().enumerate() {
            h.ingest(std::slice::from_ref(row)).unwrap();
            wait_for("row applied", || h.applied_rows() == k as u64 + 1);
        }
        std::thread::sleep(poll * 10);
        let record_bytes = std::fs::metadata(&journal).unwrap().len() - JOURNAL_HEADER_LEN as u64;
        let metrics = h.metrics_text();
        assert!(
            metrics.contains(&format!(
                "farmer_pipeline_journal_bytes_read_total {record_bytes}\n"
            )),
            "expected {record_bytes} record bytes read:\n{metrics}"
        );
        assert!(h.last_error().is_none(), "{:?}", h.last_error());
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn in_process_publish_serves_what_a_reload_of_the_file_would() {
        let (journal, artifact) = paths("install");
        let (mut p, server) = serving(&journal, &artifact, 30);
        let h = p.handle();
        let attempts = server.reload_attempts();
        let rows = vec![(vec![0, 3, 5], 1), (vec![1, 2], 0)];
        h.ingest(&rows).unwrap();
        wait_for("in-process swap", || server.epoch() >= 1);
        assert!(h.last_error().is_none(), "{:?}", h.last_error());
        assert_eq!(server.artifact_version(), VERSION);
        assert_eq!(server.reload_attempts(), attempts + 1);

        let served = server.current();
        let from_file = ArtifactHandle::load(&artifact, 0.8, 0).unwrap().current();
        assert_eq!(
            dump_groups(served.groups()),
            dump_groups(from_file.groups())
        );
        assert_eq!(served.meta(), from_file.meta());
        let appended: Vec<(IdList, u32)> = rows
            .into_iter()
            .map(|(items, label)| (IdList::from_sorted(items), label))
            .collect();
        let merged = base().appended(&appended).unwrap();
        assert_eq!(served.meta().n_rows, merged.n_rows() as u64);
        for r in 0..merged.n_rows() as u32 {
            let sample = merged.row(r);
            assert_eq!(
                served.classify(sample),
                from_file.classify(sample),
                "row {r}"
            );
            assert_eq!(served.matches(sample), from_file.matches(sample), "row {r}");
        }
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn failed_publish_leaves_the_served_index_alone() {
        let (journal, artifact) = paths("nopublish");
        let (mut p, server) = serving(&journal, &artifact, 30);
        let h = p.handle();
        let before = dump_groups(server.current().groups());
        let generation = h.generation();
        // A directory at the artifact path refuses the publish's rename.
        std::fs::remove_file(&artifact).unwrap();
        std::fs::create_dir(&artifact).unwrap();
        h.ingest(&[(vec![0, 3], 1)]).unwrap();
        wait_for("publish failure", || {
            h.publish_failures.load(Ordering::Relaxed) == 1
        });
        assert_eq!(server.epoch(), 0);
        assert_eq!(dump_groups(server.current().groups()), before);
        assert_eq!(h.generation(), generation);
        assert_eq!(h.applied_rows(), 1);
        assert!(
            h.last_error().is_some_and(|e| e.starts_with("publish:")),
            "{:?}",
            h.last_error()
        );
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir(&artifact);
    }

    #[test]
    fn an_idle_pipeline_remines_at_once_however_long_the_window() {
        let (journal, artifact) = paths("leading");
        // Far longer than the 30 s `wait_for`: only a remine that does
        // not wait out the window can publish in time.
        let (mut p, server) = serving(&journal, &artifact, 60_000);
        let h = p.handle();
        let generation = h.generation();
        h.ingest(&[(vec![0, 3], 1)]).unwrap();
        wait_for("leading-edge publish", || server.epoch() >= 1);
        assert_eq!(h.generation(), generation + 1);
        assert_eq!(h.applied_rows(), 1);
        assert_eq!(server.current().meta().n_rows, base().n_rows() as u64 + 1);
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn a_steady_stream_is_remined_once_per_window() {
        let (journal, artifact) = paths("stream");
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 300;
        let mut p = Pipeline::start(base(), cfg).unwrap();
        let h = p.handle();
        let generation = h.generation();
        // Rows far closer together than the window, for several
        // windows: a quiet window would never open.
        let start = Instant::now();
        let mut sent = 0u32;
        while start.elapsed() < Duration::from_secs(2) {
            h.ingest(&[(vec![sent % 4, 4 + sent % 3], sent % 2)])
                .unwrap();
            sent += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        // The first row goes at once, and the window closes several
        // times more before the stream stops.
        let during = h.generation() - generation;
        assert!(
            during >= 2,
            "{during} generations while {sent} rows streamed in"
        );
        wait_for("stream applied", || h.applied_rows() == sent as u64);
        assert!(h.last_error().is_none(), "{:?}", h.last_error());
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn a_burst_is_at_most_two_remines_a_window_apart() {
        let (journal, artifact) = paths("burst");
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 2_000;
        let window = Duration::from_millis(cfg.debounce_ms);
        let mut p = Pipeline::start(base(), cfg).unwrap();
        let h = p.handle();
        let generation = h.generation();
        let start = Instant::now();
        for row in [(vec![0, 3], 1), (vec![1, 2], 0), (vec![4, 5], 1)] {
            h.ingest(&[row]).unwrap();
        }
        // When each generation was first seen: never before it landed.
        // Done once every row is applied and every remine published.
        let mut seen = Vec::new();
        let deadline = start + Duration::from_secs(30);
        loop {
            let landed = h.generation() - generation;
            if landed as usize > seen.len() {
                seen.resize(landed as usize, Instant::now());
            }
            if h.applied_rows() == 3 && landed == h.remines.load(Ordering::Relaxed) {
                break;
            }
            assert!(Instant::now() < deadline, "timed out waiting for the burst");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A trailing window could not have remined before `start +
        // window`. The idle pipeline takes the first row at once: the
        // window is long against the few fsyncs that take.
        assert!(
            seen[0] < start + window,
            "first generation seen {:?} after the burst began",
            seen[0] - start
        );
        // Another full window: nothing may follow.
        std::thread::sleep(window);
        let remines = h.remines.load(Ordering::Relaxed);
        assert!(remines <= 2, "{remines} remines for a burst of three");
        assert_eq!(h.generation(), generation + remines);
        assert_eq!(h.applied_rows(), 3);
        // The first generation landed after the burst began, and the
        // second no sooner than a window after the first.
        if remines == 2 {
            assert!(
                seen[1] >= start + window,
                "second generation seen {:?} after the burst began",
                seen[1] - start
            );
        }
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn a_poison_row_is_skipped_and_later_rows_still_land() {
        let (journal, artifact) = paths("poison");
        let data = base();
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 20;
        let mut p = Pipeline::start(data.clone(), cfg).unwrap();
        let h = p.handle();
        // Another process's append that the ingest door would refuse:
        // an item id past the dataset's dictionary.
        let (mut w, _) = JournalWriter::open_append(&journal, dataset_fingerprint(&data)).unwrap();
        w.append(&IdList::from_sorted(vec![data.n_items() as u32]), 0)
            .unwrap();
        drop(w);
        wait_for("poison row skipped", || {
            h.last_error()
                .is_some_and(|e| e.starts_with("skipped journal row 0: item id"))
        });
        let generation = h.generation();
        h.ingest(&[(vec![0, 3], 1)]).unwrap();
        wait_for("good row published", || h.generation() == generation + 1);
        assert_eq!(h.applied_rows(), 1);
        assert_eq!(h.remines.load(Ordering::Relaxed), 1);
        assert_eq!(
            Artifact::load(&artifact).unwrap().meta.n_rows,
            data.n_rows() as u64 + 1
        );
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn a_poison_row_costs_only_itself_live_and_after_a_restart() {
        let (journal, artifact) = paths("poison-mixed");
        let data = base();
        let (mut p, server) = serving(&journal, &artifact, 200);
        let h = p.handle();
        // Another process appends good, poison, good: the poison row's
        // label names no class.
        let good = [(vec![0, 3], 1), (vec![1, 2, 5], 0)];
        let (mut w, _) = JournalWriter::open_append(&journal, dataset_fingerprint(&data)).unwrap();
        w.append(&IdList::from_sorted(good[0].0.clone()), good[0].1)
            .unwrap();
        w.append(&IdList::from_sorted(vec![1]), data.n_classes() as u32)
            .unwrap();
        w.append(&IdList::from_sorted(good[1].0.clone()), good[1].1)
            .unwrap();
        w.sync().unwrap();
        drop(w);
        let skipped = "skipped journal row 1: label 2 out of range (dataset has 2 classes)";
        let rows = data.n_rows() as u64 + 2;
        wait_for("good rows served", || {
            server.current().meta().n_rows == rows
        });
        assert_eq!(h.applied_rows(), 2);
        assert_eq!(h.last_error().as_deref(), Some(skipped));
        let served = dump_groups(server.current().groups());
        p.shutdown();

        // A restart replays the same journal: the good rows again, the
        // poison row skipped again.
        let mut cfg = PipelineConfig::new(&journal, &artifact);
        cfg.debounce_ms = 200;
        let mut p = Pipeline::start(data, cfg).unwrap();
        let h = p.handle();
        assert_eq!(h.applied_rows(), 2);
        assert_eq!(h.last_error().as_deref(), Some(skipped));
        let replayed = ArtifactHandle::load(&artifact, 0.8, 0).unwrap().current();
        assert_eq!(replayed.meta().n_rows, rows);
        assert_eq!(dump_groups(replayed.groups()), served);
        p.shutdown();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&artifact);
    }
}
