//! [`ArtifactHandle`]: the hot-swappable pointer between the HTTP
//! layer and the index it serves.
//!
//! The server never holds a [`ShardedIndex`] directly — it holds a
//! handle, and every request snapshots [`ArtifactHandle::current`]
//! once (an `Arc` clone) and answers entirely from that snapshot. A
//! [`reload`](ArtifactHandle::reload) (or an
//! [`install`](ArtifactHandle::install) of groups a publisher holds in
//! memory) builds the *new* index off to the side, then swaps the
//! pointer atomically
//! ([`farmer_support::swap::Swap`], which also bumps a monotonically
//! increasing epoch): requests in flight keep the old `Arc` alive and
//! complete against the artifact they started on; requests accepted
//! after the swap see the new one. No request ever observes a
//! half-built index, and a reload that fails (missing file, corrupt
//! artifact) leaves the served index untouched.

use crate::index::ShardedIndex;
use farmer_store::Artifact;
use farmer_support::swap::Swap;
use farmer_support::thread::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A serving slot: the path an artifact was loaded from plus the
/// atomically swappable index built from it.
pub struct ArtifactHandle {
    path: Option<PathBuf>,
    theta: f64,
    /// `.fgi` format version of the artifact the served index was
    /// decoded from (0 for in-memory handles), surfaced by
    /// `/v1/healthz`.
    artifact_version: AtomicU32,
    /// Reload attempts (successful or not) since the handle was built.
    /// The initial load is attempt 0; each [`reload`](Self::reload)
    /// claims the next number, which becomes the *generation* a
    /// publisher can correlate with.
    reload_attempts: AtomicU64,
    /// The most recent failed attempt `(generation, error)`, sticky
    /// across later successes so `/v1/admin/stats` can surface which
    /// generation never made it to serving.
    last_failure: Mutex<Option<(u64, String)>>,
    current: Swap<ShardedIndex>,
}

impl ArtifactHandle {
    /// Loads `path` and builds the initial index at `theta`.
    /// `n_shards` must be 0: the index is one posting table, and any
    /// other value is an error.
    pub fn load(path: impl Into<PathBuf>, theta: f64, n_shards: usize) -> Result<Self, String> {
        if n_shards != 0 {
            return Err(format!(
                "n_shards must be 0 (the index is unsharded), got {n_shards}"
            ));
        }
        let path = path.into();
        let artifact = load_artifact(&path)?;
        let version = artifact.version;
        let index = ShardedIndex::build(artifact, theta);
        Ok(ArtifactHandle {
            path: Some(path),
            theta,
            artifact_version: AtomicU32::new(version),
            reload_attempts: AtomicU64::new(0),
            last_failure: Mutex::new(None),
            current: Swap::new(Arc::new(index)),
        })
    }

    /// Wraps an index built elsewhere (tests, in-memory pipelines).
    /// [`reload`](Self::reload) fails until the handle has a path.
    pub fn from_index(index: ShardedIndex) -> Self {
        ArtifactHandle {
            path: None,
            theta: index.theta(),
            artifact_version: AtomicU32::new(0),
            reload_attempts: AtomicU64::new(0),
            last_failure: Mutex::new(None),
            current: Swap::new(Arc::new(index)),
        }
    }

    /// The path reloads re-read, when the handle has one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Snapshots the currently served index. The returned `Arc` stays
    /// valid across any number of subsequent reloads.
    pub fn current(&self) -> Arc<ShardedIndex> {
        self.current.load()
    }

    /// How many times the served index has been swapped (starts at 0).
    pub fn epoch(&self) -> u64 {
        self.current.epoch()
    }

    /// The `.fgi` format version of the artifact currently serving
    /// (0 when the handle wraps an in-memory index).
    pub fn artifact_version(&self) -> u32 {
        self.artifact_version.load(Ordering::Relaxed)
    }

    /// Reload attempts so far, successful or not.
    pub fn reload_attempts(&self) -> u64 {
        self.reload_attempts.load(Ordering::Relaxed)
    }

    /// The most recent failed reload as `(generation, error)`, where
    /// the generation is the attempt number that failed. Sticky across
    /// later successful reloads; `None` when no reload ever failed.
    pub fn last_reload_failure(&self) -> Option<(u64, String)> {
        self.last_failure.lock().clone()
    }

    /// Re-reads the backing artifact, builds a fresh index, and swaps
    /// it in. Returns the new index on success; on any failure the old
    /// index keeps serving and the error says why.
    pub fn reload(&self) -> Result<Arc<ShardedIndex>, String> {
        let generation = self.reload_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        let load = || -> Result<Artifact, String> {
            let Some(path) = &self.path else {
                return Err("reload unavailable: handle has no artifact path".to_string());
            };
            load_artifact(path)
        };
        match load() {
            Ok(artifact) => Ok(self.swap_in(artifact)),
            Err(e) => {
                *self.last_failure.lock() = Some((generation, e.clone()));
                Err(e)
            }
        }
    }

    /// Swaps in an index built from an artifact already in memory, as
    /// [`reload`](Self::reload) would after reading it from disk: the
    /// attempt is counted and the served format version becomes the
    /// artifact's. A publisher that has just made `artifact` durable at
    /// [`path`](Self::path) calls this to skip reading back what it
    /// wrote; it must call it only once the publish has landed, so the
    /// served index never runs ahead of the file.
    pub fn install(&self, artifact: Artifact) -> Arc<ShardedIndex> {
        self.reload_attempts.fetch_add(1, Ordering::Relaxed);
        self.swap_in(artifact)
    }

    fn swap_in(&self, artifact: Artifact) -> Arc<ShardedIndex> {
        let version = artifact.version;
        let index = Arc::new(ShardedIndex::build(artifact, self.theta));
        self.artifact_version.store(version, Ordering::Relaxed);
        self.current.store(Arc::clone(&index));
        index
    }
}

fn load_artifact(path: &Path) -> Result<Artifact, String> {
    Artifact::load(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_classify::IRG_FINGERPRINT_THETA;
    use farmer_core::{canonical_sort, Farmer, MiningParams};
    use farmer_dataset::{Dataset, DatasetBuilder};
    use farmer_store::{save_artifact, ArtifactMeta, VERSION};

    fn dataset(extra_row: bool) -> Dataset {
        let mut b = DatasetBuilder::new(2);
        b.add_row([0, 1, 2], 0);
        b.add_row([0, 1], 0);
        b.add_row([1, 2, 3], 1);
        b.add_row([0, 3], 1);
        if extra_row {
            b.add_row([2, 3], 1);
        }
        b.build()
    }

    fn write_artifact(path: &Path, extra_row: bool) -> usize {
        let d = dataset(extra_row);
        let mut groups = Vec::new();
        for class in 0..2 {
            groups.extend(
                Farmer::new(MiningParams::new(class).min_sup(1))
                    .mine(&d)
                    .groups,
            );
        }
        canonical_sort(&mut groups);
        save_artifact(path, &ArtifactMeta::from_dataset(&d), &groups).unwrap();
        groups.len()
    }

    #[test]
    fn reload_swaps_while_old_snapshot_survives() {
        let path = std::env::temp_dir().join(format!("fgi-handle-{}.fgi", std::process::id()));
        let n_before = write_artifact(&path, false);
        let handle = ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 0).unwrap();
        assert_eq!(handle.epoch(), 0);

        // A request in flight snapshots the index once…
        let old = handle.current();
        assert_eq!(old.groups().len(), n_before);

        // …the artifact changes on disk and is reloaded…
        let n_after = write_artifact(&path, true);
        assert_ne!(n_before, n_after, "reload must be observable");
        let fresh = handle.reload().unwrap();
        assert_eq!(handle.epoch(), 1);

        // …new snapshots see the new artifact, while the old snapshot
        // still answers from the artifact it started on.
        assert_eq!(fresh.groups().len(), n_after);
        assert_eq!(handle.current().groups().len(), n_after);
        assert_eq!(old.groups().len(), n_before);
        assert_eq!(old.meta().n_rows, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_reload_keeps_serving_the_old_index() {
        let path = std::env::temp_dir().join(format!("fgi-handle-bad-{}.fgi", std::process::id()));
        let n = write_artifact(&path, false);
        let handle = ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 0).unwrap();

        std::fs::write(&path, b"garbage, not an artifact").unwrap();
        let err = handle.reload().unwrap_err();
        assert!(err.contains(".fgi"), "{err}");
        assert_eq!(handle.epoch(), 0, "failed reload must not swap");
        assert_eq!(handle.current().groups().len(), n);
        assert_eq!(handle.reload_attempts(), 1);
        let (generation, msg) = handle.last_reload_failure().unwrap();
        assert_eq!(generation, 1);
        assert!(msg.contains(".fgi"), "{msg}");

        // A later successful reload bumps the attempt counter but the
        // failed generation stays on record.
        write_artifact(&path, true);
        handle.reload().unwrap();
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.reload_attempts(), 2);
        assert_eq!(handle.last_reload_failure().unwrap().0, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reload_at_a_missing_artifact_keeps_serving_and_records_the_failure() {
        let path = std::env::temp_dir().join(format!("fgi-handle-gone-{}.fgi", std::process::id()));
        let n = write_artifact(&path, false);
        let handle = ArtifactHandle::load(&path, IRG_FINGERPRINT_THETA, 0).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(handle.reload().is_err());
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.current().groups().len(), n);
        assert_eq!(handle.last_reload_failure().unwrap().0, 1);
    }

    #[test]
    fn load_and_reload_serve_the_handle_theta() {
        let path =
            std::env::temp_dir().join(format!("fgi-handle-theta-{}.fgi", std::process::id()));
        write_artifact(&path, false);
        let handle = ArtifactHandle::load(&path, 0.5, 0).unwrap();
        assert_eq!(handle.current().theta(), 0.5);
        write_artifact(&path, true);
        assert_eq!(handle.reload().unwrap().theta(), 0.5);
        assert_eq!(handle.current().theta(), 0.5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_refuses_a_nonzero_shard_count() {
        for n_shards in [1, 2] {
            let err = ArtifactHandle::load("unread.fgi", IRG_FINGERPRINT_THETA, n_shards)
                .err()
                .expect("a nonzero n_shards must be refused");
            assert!(err.contains("n_shards"), "{err}");
        }
    }

    #[test]
    fn pathless_handle_refuses_reload() {
        let d = dataset(false);
        let idx = ShardedIndex::build(
            Artifact {
                meta: ArtifactMeta::from_dataset(&d),
                groups: Vec::new(),
                version: VERSION,
            },
            0.8,
        );
        let handle = ArtifactHandle::from_index(idx);
        assert!(handle.path().is_none());
        assert!(handle.reload().unwrap_err().contains("no artifact path"));
    }
}
