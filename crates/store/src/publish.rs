//! Atomic artifact publication.
//!
//! A live server memory-maps nothing — it re-reads the `.fgi` file on
//! reload, or is handed the published groups in memory — but a
//! half-written artifact at the published path would still fail a
//! reload and leave a window where a *new* server could not start. [`publish_artifact`] closes the window with the classic
//! write-temp / fsync / rename / fsync-dir sequence: at every instant
//! the published path holds either the previous complete artifact or
//! the new complete artifact, never a prefix of one, and after the
//! function returns the rename survives power loss.

use crate::{save_artifact, ArtifactMeta, Result, StoreError, VERSION};
use farmer_core::RuleGroup;
use std::fs::File;
use std::path::{Path, PathBuf};

/// Writes `groups` as a complete artifact and atomically installs it at
/// `path`, returning the payload checksum.
///
/// The bytes go to a dot-prefixed temporary in the *same directory*
/// (renames are only atomic within a filesystem), are fsynced, and are
/// renamed over `path`; the directory is then fsynced so the rename
/// itself is durable. On any failure the temporary is removed and
/// `path` is left untouched.
///
/// `version` must be [`VERSION`], the only version written; any other
/// value is [`StoreError::VersionSkew`].
pub fn publish_artifact(
    path: &Path,
    meta: &ArtifactMeta,
    groups: &[RuleGroup],
    version: u32,
) -> Result<u64> {
    if version != VERSION {
        return Err(StoreError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| StoreError::corrupt(format!("publish path {path:?} has no file name")))?;
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let installed = (|| -> Result<u64> {
        let checksum = save_artifact(&tmp, meta, groups)?;
        File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(checksum)
    })();
    if installed.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return installed;
    }
    // Make the rename itself durable. Failure here (some filesystems
    // refuse to open directories) leaves a published, readable artifact
    // whose directory entry merely isn't fsynced — not worth failing
    // the publish over.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    installed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Artifact, VERSION_V1};

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fgi-publish-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta() -> ArtifactMeta {
        ArtifactMeta {
            n_rows: 4,
            class_names: vec!["pos".into(), "neg".into()],
            class_counts: vec![2, 2],
            item_names: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn publish_installs_a_loadable_artifact_and_leaves_no_temp() {
        let dir = tmp_dir();
        let path = dir.join("publish.fgi");
        let checksum = publish_artifact(&path, &meta(), &[], VERSION).unwrap();
        assert!(checksum != 0);
        let art = Artifact::load(&path).unwrap();
        assert_eq!(art.groups.len(), 0);
        assert_eq!(art.meta.n_rows, 4);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("publish.fgi.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file left behind: {leftovers:?}");
    }

    #[test]
    fn publish_replaces_an_existing_artifact_in_place() {
        let dir = tmp_dir();
        let path = dir.join("replace.fgi");
        let c1 = publish_artifact(&path, &meta(), &[], VERSION).unwrap();
        let mut m2 = meta();
        m2.n_rows = 5;
        m2.class_counts = vec![3, 2];
        let c2 = publish_artifact(&path, &m2, &[], VERSION).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(Artifact::load(&path).unwrap().meta.n_rows, 5);
    }

    #[test]
    fn publish_writes_only_the_current_version() {
        let dir = tmp_dir();
        let path = dir.join("skew.fgi");
        for version in [VERSION_V1, VERSION + 1] {
            let err = publish_artifact(&path, &meta(), &[], version).unwrap_err();
            assert!(
                matches!(err, StoreError::VersionSkew { found, supported: VERSION } if found == version),
                "{err:?}"
            );
        }
        assert!(!path.exists());
    }

    #[test]
    fn publish_rejects_a_directoryless_path() {
        let err = publish_artifact(Path::new(".."), &meta(), &[], VERSION).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }
}
