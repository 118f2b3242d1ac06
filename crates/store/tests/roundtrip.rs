//! Round-trip property tests: `save → load` must reproduce the mined
//! rule groups byte-for-byte (as pinned by `farmer_core::dump_groups`)
//! and the dataset metadata exactly. v1 is read-only: its leg decodes
//! committed bytes from `tests/data/`.

use farmer_core::{canonical_sort, dump_groups, Farmer, MiningParams, RuleGroup};
use farmer_dataset::{Dataset, DatasetBuilder};
use farmer_store::{read_artifact, ArtifactMeta, ArtifactWriter, HEADER_LEN, VERSION, VERSION_V1};
use farmer_support::check::prelude::*;
use std::io::Cursor;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (3usize..8, 3usize..10).prop_flat_map(|(n_rows, n_items)| {
        collection::vec(
            (
                collection::btree_set(0..n_items as u32, 1..n_items),
                0u32..2,
            ),
            n_rows,
        )
        .prop_map(|rows| {
            let mut b = DatasetBuilder::new(2);
            for (items, label) in rows {
                b.add_row(items, label);
            }
            b.build()
        })
    })
}

/// Mines both classes of `d` in canonical order.
fn mine_all(d: &Dataset, min_sup: usize) -> Vec<RuleGroup> {
    let mut groups = Vec::new();
    for class in 0..d.n_classes() as u32 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(min_sup))
                .mine(d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    groups
}

/// Writes to an in-memory buffer via the streaming writer.
fn save_to_vec(meta: &ArtifactMeta, groups: &[RuleGroup]) -> Vec<u8> {
    let mut buf = Cursor::new(Vec::new());
    let mut w = ArtifactWriter::new(&mut buf, meta).unwrap();
    for g in groups {
        w.write_group(g).unwrap();
    }
    w.finish().unwrap();
    buf.into_inner()
}

/// The byte length of `groups` in the fixed-width v1 layout (see the
/// `farmer-store` crate docs): the header, the dictionary with
/// `u32`-length-prefixed names, each record's integers, id lists and
/// bitset words, and the trailing `u32` group count.
fn v1_len(meta: &ArtifactMeta, groups: &[RuleGroup]) -> usize {
    let names = |names: &[String]| names.iter().map(|s| 4 + s.len()).sum::<usize>();
    let dict = 8 + 4 + names(&meta.class_names) + 8 * meta.n_classes() + 4;
    let records: usize = groups
        .iter()
        .map(|g| {
            let lower: usize = g.lower.iter().map(|l| 4 + 4 * l.len()).sum();
            4 + 4 * 8
                + (4 + 4 * g.upper.len())
                + 4
                + lower
                + 8
                + 4
                + 8 * g.support_set.words().len()
        })
        .sum();
    HEADER_LEN + dict + names(&meta.item_names) + records + 4
}

check! {
    #![config(cases = 48)]

    /// save → load reproduces a byte-identical group dump and the
    /// exact metadata, for arbitrary mined datasets, and the loaded
    /// groups re-serialize to the very same bytes.
    #[test]
    fn save_load_round_trips(d in arb_dataset(), min_sup in 1usize..3) {
        let groups = mine_all(&d, min_sup);
        let meta = ArtifactMeta::from_dataset(&d);
        let bytes = save_to_vec(&meta, &groups);
        let art = read_artifact(&bytes).unwrap();
        prop_assert_eq!(&art.meta, &meta);
        prop_assert_eq!(dump_groups(&art.groups), dump_groups(&groups));
        prop_assert_eq!(save_to_vec(&art.meta, &art.groups), bytes.clone());
        // v2 is the compact encoding: never larger than v1.
        let v1 = v1_len(&meta, &groups);
        prop_assert!(bytes.len() <= v1, "v2 {} > v1 {}", bytes.len(), v1);
    }
}

/// Cross-version matrix: committed v1 bytes (written by the v1 writer
/// before it was retired) and fresh v2 bytes of the same three-class
/// mine load to identical groups and metadata.
#[test]
fn cross_version_matrix() {
    let mut b = DatasetBuilder::new(3);
    b.add_row([0, 1, 2, 5], 0);
    b.add_row([0, 1, 5], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3, 4], 1);
    b.add_row([2, 3, 4], 2);
    b.add_row([0, 2, 4, 5], 2);
    let d = b.build();
    let groups = mine_all(&d, 1);
    assert!(!groups.is_empty());
    let meta = ArtifactMeta::from_dataset(&d);
    let reference = dump_groups(&groups);
    let v1 = include_bytes!("data/v1-three-class.fgi").to_vec();
    assert_eq!(v1.len(), v1_len(&meta, &groups));
    for (version, bytes) in [(VERSION_V1, v1), (VERSION, save_to_vec(&meta, &groups))] {
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            version,
            "header carries the version"
        );
        let art = read_artifact(&bytes).unwrap();
        assert_eq!(art.meta, meta, "v{version} metadata");
        assert_eq!(dump_groups(&art.groups), reference, "v{version} groups");
    }
}

/// `read_artifact` reports the format version of the header it
/// validated: 1 for every committed v1 fixture, 2 for a fresh file.
#[test]
fn read_artifact_reports_the_header_version() {
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut v1_files = 0;
    for entry in std::fs::read_dir(&data).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("v1-") && name.ends_with(".fgi") {
            let art = read_artifact(&std::fs::read(&path).unwrap()).unwrap();
            assert_eq!(art.version, VERSION_V1, "{name}");
            v1_files += 1;
        }
    }
    assert!(v1_files > 0, "no v1 fixtures under {}", data.display());
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([1, 2], 1);
    let d = b.build();
    let bytes = save_to_vec(&ArtifactMeta::from_dataset(&d), &mine_all(&d, 1));
    assert_eq!(read_artifact(&bytes).unwrap().version, VERSION);
}

#[test]
fn file_round_trip_and_checksum_agree() {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([0, 1], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3], 1);
    b.add_row([2, 3], 0);
    let d = b.build();
    let groups = mine_all(&d, 1);
    assert!(!groups.is_empty(), "seed dataset must mine something");
    let meta = ArtifactMeta::from_dataset(&d);

    let path = std::env::temp_dir().join(format!("fgi-roundtrip-{}.fgi", std::process::id()));
    let checksum = farmer_store::save_artifact(&path, &meta, &groups).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // The returned checksum is the one in the header.
    assert_eq!(
        checksum,
        u64::from_le_bytes(bytes[16..24].try_into().unwrap())
    );
    let art = farmer_store::read_artifact(&bytes).unwrap();
    assert_eq!(dump_groups(&art.groups), dump_groups(&groups));
    assert_eq!(art.meta, meta);
}

#[test]
fn empty_group_set_round_trips() {
    let mut b = DatasetBuilder::new(2);
    b.add_row([0], 0);
    b.add_row([1], 1);
    let d = b.build();
    let meta = ArtifactMeta::from_dataset(&d);
    let bytes = save_to_vec(&meta, &[]);
    let art = read_artifact(&bytes).unwrap();
    assert_eq!(art.meta, meta);
    assert!(art.groups.is_empty());
}
