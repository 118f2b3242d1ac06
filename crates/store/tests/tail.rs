//! Tailing a growing `.fgd` journal with [`read_journal_from`]: from any
//! record boundary it returns exactly the suffix [`read_journal`] would,
//! a partial trailing frame is left for a later read, a damaged complete
//! frame is an error, and no cut of the file panics.

use farmer_store::{
    read_journal, read_journal_from, JournalRecord, JournalWriter, StoreError, JOURNAL_HEADER_LEN,
};
use rowset::IdList;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgd-tail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Writes a journal of records of assorted sizes (an empty row
/// included) and returns its path, its bytes, and the offset of every
/// record boundary: the header's end, then the end of each record.
fn journal(name: &str) -> (PathBuf, Vec<u8>, Vec<u64>) {
    let path = tmp(name);
    let rows: [(&[u32], u32); 5] = [
        (&[0, 3, 7], 1),
        (&[], 0),
        (&[2], 0),
        (&[1, 200, 70_000, 4_000_000], 1),
        (&[5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15], 2),
    ];
    let mut w = JournalWriter::create(&path, 0xabc).unwrap();
    let mut boundaries = vec![JOURNAL_HEADER_LEN as u64];
    for (ids, label) in rows {
        w.append(&IdList::from_sorted(ids.to_vec()), label).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len());
    }
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes, boundaries)
}

fn all_records(path: &Path) -> Vec<JournalRecord> {
    read_journal(path).unwrap().records
}

#[test]
fn tail_from_every_boundary_is_the_read_journal_suffix() {
    let (path, bytes, boundaries) = journal("suffix.fgd");
    let records = all_records(&path);
    assert_eq!(records.len() + 1, boundaries.len());
    for (k, &offset) in boundaries.iter().enumerate() {
        let tail = read_journal_from(&path, offset).unwrap();
        assert_eq!(tail.records, records[k..], "from record {k}");
        assert_eq!(tail.end, bytes.len() as u64, "from record {k}");
        assert_eq!(tail.bytes_read, bytes.len() as u64 - offset);
    }
}

#[test]
fn partial_trailing_frame_is_read_once_it_is_whole() {
    let (path, bytes, boundaries) = journal("partial.fgd");
    let records = all_records(&path);
    let (last, at) = (records.len() - 1, boundaries[boundaries.len() - 2]);
    for cut in at..bytes.len() as u64 {
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();
        let tail = read_journal_from(&path, at).unwrap();
        assert!(tail.records.is_empty(), "cut at {cut}");
        assert_eq!(tail.end, at, "cut at {cut}: the partial frame was consumed");
        assert_eq!(tail.bytes_read, cut - at);
        // The writer finishes the frame; the same offset now reads it.
        std::fs::write(&path, &bytes).unwrap();
        let tail = read_journal_from(&path, at).unwrap();
        assert_eq!(tail.records, records[last..], "cut at {cut}");
        assert_eq!(tail.end, bytes.len() as u64);
    }
}

#[test]
fn flipped_byte_in_a_complete_frame_is_checksum_mismatch() {
    let (path, bytes, boundaries) = journal("flip.fgd");
    for frame in boundaries.windows(2) {
        // Every payload and checksum byte; the 4-byte length prefix
        // frames the record and is covered by the truncation sweep.
        for pos in frame[0] + 4..frame[1] {
            let mut damaged = bytes.clone();
            damaged[pos as usize] ^= 0x20;
            std::fs::write(&path, &damaged).unwrap();
            for &offset in boundaries.iter().filter(|&&b| b <= frame[0]) {
                match read_journal_from(&path, offset) {
                    Err(StoreError::ChecksumMismatch { .. }) => {}
                    other => panic!("byte {pos} from {offset}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn truncation_at_every_length_reads_a_prefix_of_the_records() {
    let (path, bytes, boundaries) = journal("cut.fgd");
    let records = all_records(&path);
    let header = JOURNAL_HEADER_LEN as u64;
    for cut in 0..=bytes.len() as u64 {
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();
        let result = read_journal_from(&path, header);
        if cut < header {
            match result {
                Err(StoreError::Truncated { expected, found }) => {
                    assert_eq!((expected, found), (header, cut));
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
            continue;
        }
        let tail = result.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(tail.records, records[..whole], "cut at {cut}");
        assert_eq!(tail.end, boundaries[whole], "cut at {cut}");
    }
}
