//! Corrupt-artifact regressions: every damaged file maps to the
//! *specific* [`StoreError`] variant for its kind of damage — and none
//! of them panics. Both format versions get the full treatment; v2
//! additionally gets per-section structural damage and a resealed
//! byte-flip sweep across every section.

use farmer_core::{canonical_sort, dump_groups, Farmer, MiningParams};
use farmer_dataset::DatasetBuilder;
use farmer_store::{
    read_artifact, ArtifactMeta, ArtifactWriter, StoreError, HEADER_LEN, HEADER_LEN_V2, VERSION,
    VERSION_V1,
};
use std::io::Cursor;

/// A small but non-trivial valid artifact to damage. v1 is the
/// committed output of the v1 writer (retired) for the same input.
fn valid_artifact(version: u32) -> Vec<u8> {
    if version == VERSION_V1 {
        return include_bytes!("data/v1-small.fgi").to_vec();
    }
    let mut b = DatasetBuilder::new(2);
    b.add_row([0, 1, 2], 0);
    b.add_row([0, 1], 0);
    b.add_row([1, 2, 3], 1);
    b.add_row([0, 3], 1);
    let d = b.build();
    let mut groups = Vec::new();
    for class in 0..2 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(1))
                .mine(&d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    assert!(!groups.is_empty());
    let meta = ArtifactMeta::from_dataset(&d);
    let mut buf = Cursor::new(Vec::new());
    let mut w = ArtifactWriter::new(&mut buf, &meta).unwrap();
    for g in &groups {
        w.write_group(g).unwrap();
    }
    w.finish().unwrap();
    buf.into_inner()
}

fn header_len(version: u32) -> usize {
    if version == VERSION_V1 {
        HEADER_LEN
    } else {
        HEADER_LEN_V2
    }
}

#[test]
fn pristine_bytes_load() {
    let v1 = read_artifact(&valid_artifact(VERSION_V1)).unwrap();
    let v2 = read_artifact(&valid_artifact(VERSION)).unwrap();
    assert_eq!(v1.meta, v2.meta);
    assert_eq!(dump_groups(&v1.groups), dump_groups(&v2.groups));
}

#[test]
fn truncation_at_every_length_is_truncated_error() {
    for version in [VERSION_V1, VERSION] {
        let bytes = valid_artifact(version);
        // Every proper prefix must be rejected as Truncated — including
        // prefixes shorter than the header — and must never panic.
        for cut in 0..bytes.len() {
            match read_artifact(&bytes[..cut]) {
                Err(StoreError::Truncated { expected, found }) => {
                    assert_eq!(found, cut as u64);
                    assert!(expected > found, "v{version} cut at {cut}");
                }
                other => panic!("v{version} cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn flipped_payload_byte_is_checksum_mismatch() {
    for version in [VERSION_V1, VERSION] {
        let bytes = valid_artifact(version);
        // Flip one byte in each payload word-ish stride; the checksum
        // must catch every one of them.
        for pos in (header_len(version)..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match read_artifact(&bad) {
                Err(StoreError::ChecksumMismatch { stored, computed }) => {
                    assert_ne!(stored, computed, "v{version} flip at {pos}")
                }
                other => {
                    panic!("v{version} flip at {pos}: expected ChecksumMismatch, got {other:?}")
                }
            }
        }
    }
}

#[test]
fn flipped_table_offset_is_corrupt() {
    // The v2 section-table offset lives in the header, outside the
    // checksummed payload; damaging it must surface as Corrupt (the
    // table fails its bounds/shape checks), never as a panic.
    let bytes = valid_artifact(VERSION);
    for byte in 24..HEADER_LEN_V2 {
        for flip in [0x01u8, 0x40, 0xff] {
            let mut bad = bytes.clone();
            bad[byte] ^= flip;
            assert!(
                matches!(read_artifact(&bad), Err(StoreError::Corrupt { .. })),
                "table-offset byte {byte} flip {flip:#x}"
            );
        }
    }
}

#[test]
fn flipped_stored_checksum_is_checksum_mismatch() {
    for version in [VERSION_V1, VERSION] {
        let mut bad = valid_artifact(version);
        bad[16] ^= 0x01; // low byte of the header checksum field
        assert!(matches!(
            read_artifact(&bad),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}

#[test]
fn wrong_magic_is_bad_magic() {
    for version in [VERSION_V1, VERSION] {
        let mut bad = valid_artifact(version);
        bad[..4].copy_from_slice(b"ZIP!");
        match read_artifact(&bad) {
            Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"ZIP!"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
}

#[test]
fn unknown_version_is_version_skew() {
    for bogus in [0, VERSION + 1, 99] {
        let mut bad = valid_artifact(VERSION);
        bad[4..8].copy_from_slice(&bogus.to_le_bytes());
        match read_artifact(&bad) {
            Err(StoreError::VersionSkew { found, supported }) => {
                assert_eq!(found, bogus);
                assert_eq!(supported, VERSION);
            }
            other => panic!("version {bogus}: expected VersionSkew, got {other:?}"),
        }
    }
}

#[test]
fn trailing_garbage_is_corrupt() {
    for version in [VERSION_V1, VERSION] {
        let mut bad = valid_artifact(version);
        bad.extend_from_slice(b"extra");
        assert!(matches!(
            read_artifact(&bad),
            Err(StoreError::Corrupt { .. })
        ));
    }
}

#[test]
fn precedence_magic_before_version_before_checksum() {
    // A file damaged in several ways reports the outermost failure.
    let mut bad = valid_artifact(VERSION_V1);
    bad[4..8].copy_from_slice(&99u32.to_le_bytes());
    bad[HEADER_LEN] ^= 0xff;
    let mut worse = bad.clone();
    worse[..4].copy_from_slice(b"????");
    assert!(matches!(
        read_artifact(&worse),
        Err(StoreError::BadMagic { .. })
    ));
    assert!(matches!(
        read_artifact(&bad),
        Err(StoreError::VersionSkew { found: 99, .. })
    ));
}

/// Rebuilds a structurally damaged v1 payload with a *correct*
/// envelope, so the structural validator (not the checksum) must catch
/// it.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&farmer_store::MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&farmer_support::hash::fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The v2 reseal: correct magic, version, length, checksum, and the
/// caller's table offset.
fn reseal_v2(payload: &[u8], table_offset: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN_V2 + payload.len());
    out.extend_from_slice(&farmer_store::MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&farmer_support::hash::fnv1a(payload).to_le_bytes());
    out.extend_from_slice(&table_offset.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn resealed_structural_damage_is_corrupt_never_panic() {
    let bytes = valid_artifact(VERSION_V1);
    let payload = &bytes[HEADER_LEN..];
    // Miscount the trailing group tally.
    let mut miscounted = payload.to_vec();
    let n = payload.len();
    let count = u32::from_le_bytes(payload[n - 4..].try_into().unwrap());
    miscounted[n - 4..].copy_from_slice(&(count + 1).to_le_bytes());
    assert!(matches!(
        read_artifact(&reseal(&miscounted)),
        Err(StoreError::Corrupt { .. })
    ));
    // Chop the payload mid-record (envelope resealed to match, so this
    // is structural truncation, not file truncation).
    for cut in [n - 5, n - 13, n / 2] {
        assert!(
            matches!(
                read_artifact(&reseal(&payload[..cut])),
                Err(StoreError::Corrupt { .. }),
            ),
            "cut at {cut}"
        );
    }
    // Invalid UTF-8 in the first class name (offset 12 = n_rows u64 +
    // n_class u32, then the u32 length prefix precedes the bytes).
    let mut bad_name = payload.to_vec();
    bad_name[16] = 0xff;
    assert!(matches!(
        read_artifact(&reseal(&bad_name)),
        Err(StoreError::Corrupt { .. })
    ));
}

/// Pulls the v2 section table apart so each section can be damaged in
/// isolation: returns (payload, table_offset, [(id, offset, len); 3]).
fn v2_sections() -> (Vec<u8>, u64, Vec<(u8, u64, u64)>) {
    let bytes = valid_artifact(VERSION);
    let table_offset = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let payload = bytes[HEADER_LEN_V2..].to_vec();
    let t = &payload[table_offset as usize..];
    assert_eq!(t[0], 3);
    let mut sections = Vec::new();
    for i in 0..3 {
        let e = &t[1 + i * 17..];
        sections.push((
            e[0],
            u64::from_le_bytes(e[1..9].try_into().unwrap()),
            u64::from_le_bytes(e[9..17].try_into().unwrap()),
        ));
    }
    (payload, table_offset, sections)
}

#[test]
fn v2_section_table_damage_is_corrupt() {
    let (payload, table_offset, sections) = v2_sections();
    // Table offset pointing past the payload.
    assert!(matches!(
        read_artifact(&reseal_v2(&payload, payload.len() as u64 + 1)),
        Err(StoreError::Corrupt { .. })
    ));
    // Table offset pointing somewhere that is not a valid table.
    assert!(matches!(
        read_artifact(&reseal_v2(&payload, table_offset / 2)),
        Err(StoreError::Corrupt { .. })
    ));
    let to = table_offset as usize;
    // Wrong section count.
    let mut bad = payload.clone();
    bad[to] = 2;
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
    // Wrong section id in slot 0.
    let mut bad = payload.clone();
    bad[to + 1] = 9;
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
    // Non-contiguous: shift the GROUPS offset by one.
    let mut bad = payload.clone();
    let groups_off_pos = to + 1 + 17 + 1;
    bad[groups_off_pos..groups_off_pos + 8].copy_from_slice(&(sections[1].1 + 1).to_le_bytes());
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
    // Sections that do not end at the table: shrink the trailer.
    let mut bad = payload.clone();
    let trailer_len_pos = to + 1 + 2 * 17 + 9;
    bad[trailer_len_pos..trailer_len_pos + 8]
        .copy_from_slice(&(sections[2].2.wrapping_sub(1)).to_le_bytes());
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn v2_dict_damage_is_corrupt() {
    let (payload, table_offset, _) = v2_sections();
    // The dictionary opens with varint n_rows (4 here = 1 byte) then
    // varint class count; force the class count absurdly high so the
    // names run off the section end.
    let mut bad = payload.clone();
    bad[1] = 0x7f;
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
    // Invalid UTF-8 inside the first class name's bytes.
    let mut bad = payload.clone();
    bad[3] = 0xff;
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn v2_groups_and_trailer_damage_is_corrupt() {
    let (payload, table_offset, sections) = v2_sections();
    let groups = sections[1];
    let trailer = sections[2];
    // Chop the groups section mid-record: shrink both the section
    // length and the following offsets consistently, so only the
    // record structure is at fault.
    for shave in [1u64, 2, groups.2 / 2] {
        let mut bad = Vec::new();
        bad.extend_from_slice(&payload[..(groups.1 + groups.2 - shave) as usize]);
        bad.extend_from_slice(&payload[trailer.1 as usize..table_offset as usize]);
        let mut table = vec![3u8];
        for (id, offset, len) in [
            (1u8, 0u64, sections[0].2),
            (2, groups.1, groups.2 - shave),
            (3, trailer.1 - shave, trailer.2),
        ] {
            table.push(id);
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&len.to_le_bytes());
        }
        bad.extend_from_slice(&table);
        assert!(
            matches!(
                read_artifact(&reseal_v2(&bad, table_offset - shave)),
                Err(StoreError::Corrupt { .. })
            ),
            "shave {shave}"
        );
    }
    // Lie in the trailer: bump the declared group count.
    let mut bad = payload.clone();
    let tpos = trailer.1 as usize;
    bad[tpos] = bad[tpos].wrapping_add(1);
    assert!(matches!(
        read_artifact(&reseal_v2(&bad, table_offset)),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn v2_resealed_flip_sweep_never_panics() {
    // Flip every payload byte in turn, reseal the envelope (fresh
    // checksum, same table offset), and parse. Structural validation
    // must classify each one as Ok or a typed error — never a panic,
    // regardless of which section the flip lands in.
    let (payload, table_offset, _) = v2_sections();
    let mut outcomes = [0usize; 2];
    for pos in 0..payload.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = payload.clone();
            bad[pos] ^= flip;
            match read_artifact(&reseal_v2(&bad, table_offset)) {
                Ok(_) => outcomes[0] += 1,
                Err(_) => outcomes[1] += 1,
            }
        }
    }
    // Sanity: the sweep must have exercised both outcomes — a benign
    // flip (e.g. inside a name) and plenty of structural rejections.
    assert!(outcomes[0] > 0, "no flip parsed cleanly: {outcomes:?}");
    assert!(outcomes[1] > 0, "no flip was rejected: {outcomes:?}");
}

#[test]
fn header_only_file_is_truncated_not_corrupt() {
    // A v1 header that promises a payload which never arrives.
    let mut out = Vec::new();
    out.extend_from_slice(&farmer_store::MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    out.extend_from_slice(&100u64.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    match read_artifact(&out) {
        Err(StoreError::Truncated { expected, found }) => {
            assert_eq!(expected, HEADER_LEN as u64 + 100);
            assert_eq!(found, HEADER_LEN as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // A v2 header cut off before its table-offset field.
    let mut out = Vec::new();
    out.extend_from_slice(&farmer_store::MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&100u64.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    match read_artifact(&out) {
        Err(StoreError::Truncated { expected, found }) => {
            assert_eq!(expected, HEADER_LEN_V2 as u64);
            assert_eq!(found, HEADER_LEN as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}
