//! Edge cases at the format's encoding boundaries: 10-byte varints,
//! artifacts with no groups at all, and rowset chunks that end exactly
//! on (or one row past) the 4096-bit chunk boundary. Each case is
//! written and read back in v2, and read from committed v1 bytes of the
//! same input (`tests/data/v1-*.fgi`, written by the v1 writer before
//! it was retired).

use farmer_core::RuleGroup;
use farmer_store::{read_artifact, save_artifact, Artifact, ArtifactMeta, VERSION, VERSION_V1};
use rowset::{IdList, RowSet};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgi-edge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The artifact `meta` and `groups` in v2 (written to a temp file and
/// loaded back), then in v1 (the committed `tests/data/v1-{name}.fgi`).
fn both_versions(name: &str, meta: &ArtifactMeta, groups: &[RuleGroup]) -> [(u32, Artifact); 2] {
    let path = tmp(&format!("{name}-v2.fgi"));
    save_artifact(&path, meta, groups).unwrap();
    let v1 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/data/v1-{name}.fgi"));
    [
        (VERSION, Artifact::load(&path).unwrap()),
        (VERSION_V1, Artifact::load(&v1).unwrap()),
    ]
}

/// The largest LEB128 varints (10 bytes for `u64::MAX`) must survive
/// the v2 dictionary, where `n_rows` and the class counts are
/// varint-coded. No groups ride along — a `u64::MAX`-row bitset cannot
/// exist — so this isolates the integer coding itself.
#[test]
fn u64_max_varints_survive_the_dictionary() {
    let meta = ArtifactMeta {
        n_rows: u64::MAX,
        class_names: vec!["huge".into(), "tiny".into()],
        class_counts: vec![u64::MAX, u64::MAX - 1],
        item_names: vec!["g0".into()],
    };
    for (version, art) in both_versions("u64-max", &meta, &[]) {
        assert_eq!(art.meta.n_rows, u64::MAX, "v{version}");
        assert_eq!(art.meta.class_counts, vec![u64::MAX, u64::MAX - 1]);
        assert!(art.groups.is_empty());
    }
}

/// An artifact holding zero groups is legal (a fresh deployment before
/// any mining finishes publishes one): the trailer count must agree
/// and the file must load in both format versions.
#[test]
fn empty_group_list_round_trips() {
    let meta = ArtifactMeta {
        n_rows: 10,
        class_names: vec!["a".into(), "b".into()],
        class_counts: vec![6, 4],
        item_names: vec!["x".into(), "y".into(), "z".into()],
    };
    for (version, art) in both_versions("empty", &meta, &[]) {
        assert!(art.groups.is_empty(), "v{version}");
        assert_eq!(art.meta, meta, "v{version}");
    }
    // Same input, same bytes, same checksum on a rewrite.
    let path = tmp("empty.fgi");
    let checksum = save_artifact(&path, &meta, &[]).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert!(read_artifact(&bytes).unwrap().groups.is_empty());
    assert_eq!(
        save_artifact(&tmp("empty2.fgi"), &meta, &[]).unwrap(),
        checksum
    );
    assert_eq!(std::fs::read(tmp("empty2.fgi")).unwrap(), bytes);
}

fn one_group(cap: usize, rows: &[usize]) -> (ArtifactMeta, RuleGroup) {
    let meta = ArtifactMeta {
        n_rows: cap as u64,
        class_names: vec!["c".into()],
        class_counts: vec![cap as u64],
        item_names: vec!["i0".into(), "i1".into()],
    };
    let mut support_set = RowSet::empty(cap);
    for &r in rows {
        support_set.insert(r);
    }
    let upper = IdList::from_sorted(vec![0, 1]);
    let g = RuleGroup {
        upper: upper.clone(),
        lower: vec![upper],
        sup: rows.len(),
        neg_sup: 0,
        class: 0,
        n_rows: cap,
        n_class: cap,
        support_set,
    };
    (meta, g)
}

/// The v2 rowset codec splits the bitset into 4096-bit chunks. Pin the
/// boundary: capacities of exactly 4096 bits, one bit less, and one bit
/// more, with the interesting rows sitting on either side of the seam.
#[test]
fn rowset_chunk_boundary_at_exactly_4096_bits() {
    let cases: &[(usize, &[usize])] = &[
        (4095, &[4094]),       // last row of a partial final chunk
        (4096, &[4095]),       // last row of an exactly-full chunk
        (4096, &[0]),          // lone bit far from the seam
        (4096, &[]),           // empty set at the boundary capacity
        (4097, &[4096]),       // first row of a 1-bit second chunk
        (4097, &[4095, 4096]), // a run straddling the seam
    ];
    for (case, &(cap, rows)) in cases.iter().enumerate() {
        let (meta, g) = one_group(cap, rows);
        for (version, art) in both_versions(&format!("chunk-{case}"), &meta, &[g]) {
            assert_eq!(art.groups.len(), 1, "case {case} v{version}");
            let got = &art.groups[0];
            assert_eq!(got.support_set.capacity(), cap, "case {case} v{version}");
            assert_eq!(got.support_set.to_vec(), rows, "case {case} v{version}");
            assert_eq!(got.sup, rows.len());
            assert_eq!(got.upper.as_slice(), &[0, 1]);
        }
    }
}

/// A dense run crossing the chunk seam must also survive — the writer
/// splits runs at chunk boundaries and the reader reassembles them.
#[test]
fn dense_run_across_the_chunk_seam_round_trips() {
    let rows: Vec<usize> = (4000..4200).collect();
    let (meta, g) = one_group(8192, &rows);
    for (version, art) in both_versions("seam-run", &meta, &[g]) {
        assert_eq!(art.groups[0].support_set.to_vec(), rows, "v{version}");
    }
}
