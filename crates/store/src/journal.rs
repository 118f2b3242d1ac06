//! Append-only `.fgd` row journals for streaming ingest.
//!
//! A journal records rows that arrived *after* a base dataset was
//! frozen: each record is one new sample (its item ids plus a class
//! label). The streaming pipeline (`farmer-pipeline`) tails the
//! journal, extends the base dataset with the new rows, and remines
//! incrementally; the `farmer ingest` CLI and the server's
//! `POST /v1/admin/ingest` endpoint both append to the same file, so
//! the journal — not any process's memory — is the source of truth for
//! what has arrived.
//!
//! # The `.fgd` format, version 1
//!
//! All integers are little-endian; varints are LEB128
//! ([`farmer_support::varint`]). A fixed 16-byte header is followed by
//! zero or more self-delimiting, individually checksummed records:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"FGDJ"
//!      4     4  format version (u32) = 1
//!      8     8  base-dataset fingerprint (u64, see below)
//!     16     –  records…
//! ```
//!
//! Each record:
//!
//! ```text
//! u32  payload length in bytes
//! …    payload: varint class label,
//!               varint item count,
//!               delta-coded item ids (varint first id,
//!               then varint gap − 1 per id; strictly ascending)
//! u64  FNV-1a 64 checksum of the payload bytes
//! ```
//!
//! The per-record frame makes two failure modes distinguishable. A
//! **torn tail** — the bytes after the last complete record don't form
//! a whole frame, because a writer died mid-append — is expected under
//! crash-append semantics: [`read_journal`] stops there and reports it
//! via [`Journal::torn_tail`]; [`JournalWriter::open_append`] truncates
//! it so the next append lands on a clean boundary, and hands back the
//! records before it, so an opener that also replays the journal reads
//! it once; [`read_journal_from`]
//! leaves it unread, since to a reader following a live journal it is a
//! frame still being written. A **checksum mismatch on a complete
//! frame** is real corruption and always an error.
//!
//! The header's fingerprint binds the journal to one base dataset
//! ([`dataset_fingerprint`] hashes the shape and both dictionaries), so
//! a journal can never be replayed against a dataset whose item ids
//! mean something else.

use crate::{Result, StoreError};
use farmer_dataset::Dataset;
use farmer_support::hash::{fnv1a, Fnv1a};
use farmer_support::varint;
use rowset::IdList;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The four magic bytes opening every `.fgd` journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"FGDJ";

/// The current (and only) journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Size of the fixed journal header preceding the records.
pub const JOURNAL_HEADER_LEN: usize = 16;

/// Frame overhead per record: the `u32` payload length before the
/// payload and the `u64` checksum after it.
const FRAME_OVERHEAD: usize = 4 + 8;

/// Largest payload [`read_journal`] accepts for a single record. Real
/// rows are a few hundred items; the cap only stops a corrupt length
/// field from allocating gigabytes before the checksum gets a chance to
/// reject the record.
const MAX_RECORD_PAYLOAD: u32 = 1 << 24;

/// A stable digest of a dataset's *shape*: row/item/class counts plus
/// both name dictionaries. Journals embed it so replaying rows against
/// a different base dataset — where the same item ids would name
/// different genes — fails loudly at open time instead of silently
/// corrupting the mined output.
///
/// Row *contents* are deliberately not hashed: the fingerprint must be
/// cheap enough to compute on every open, and the dictionaries already
/// pin what the ids mean.
pub fn dataset_fingerprint(data: &Dataset) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(data.n_rows() as u64);
    h.write_u64(data.n_items() as u64);
    h.write_u64(data.n_classes() as u64);
    for i in 0..data.n_items() {
        h.write(data.item_name(i as u32).as_bytes());
        h.write(&[0xff]);
    }
    for c in 0..data.n_classes() {
        h.write(data.class_name(c as u32).as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}

/// One journaled row: the sample's item ids and its class label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// The row's item ids, strictly ascending.
    pub items: IdList,
    /// The row's class label, an index into the base dataset's class
    /// dictionary.
    pub label: u32,
}

/// A fully read journal: every complete record, in arrival order.
#[derive(Clone, Debug)]
pub struct Journal {
    /// The base-dataset fingerprint from the header.
    pub fingerprint: u64,
    /// Every complete, checksum-verified record.
    pub records: Vec<JournalRecord>,
    /// Whether bytes after the last complete record were ignored — a
    /// writer died mid-append. Expected under crash semantics, surfaced
    /// so callers can log it.
    pub torn_tail: bool,
}

/// Serializes one record payload (label, count, delta-coded ids).
fn encode_record_payload(items: &IdList, label: u32) -> Result<Vec<u8>> {
    let ids = items.as_slice();
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(StoreError::corrupt(
            "journal record item ids not strictly ascending".to_string(),
        ));
    }
    let mut payload = Vec::with_capacity(2 + 2 * ids.len());
    varint::write_u64(&mut payload, label as u64);
    varint::write_u64(&mut payload, ids.len() as u64);
    for (i, &id) in ids.iter().enumerate() {
        let delta = if i == 0 {
            id as u64
        } else {
            (id - ids[i - 1] - 1) as u64
        };
        varint::write_u64(&mut payload, delta);
    }
    Ok(payload)
}

/// Parses one record payload. `at` is the frame's byte offset in the
/// file, named in errors.
fn decode_record_payload(payload: &[u8], at: u64) -> Result<JournalRecord> {
    let mut pos = 0usize;
    let mut next = |field: &str| -> Result<u64> {
        match varint::read_u64(&payload[pos..]) {
            Some((v, used)) => {
                pos += used;
                Ok(v)
            }
            None => Err(StoreError::corrupt(format!(
                "journal record at byte {at}: invalid varint in {field} at payload offset {pos}"
            ))),
        }
    };
    let label = next("label")?;
    if label > u32::MAX as u64 {
        return Err(StoreError::corrupt(format!(
            "journal record at byte {at}: class label {label} exceeds u32"
        )));
    }
    let n = next("item count")?;
    if n > payload.len() as u64 {
        return Err(StoreError::corrupt(format!(
            "journal record at byte {at}: item count {n} larger than the {}-byte payload",
            payload.len()
        )));
    }
    let mut ids = Vec::with_capacity(n as usize);
    let mut prev: u64 = 0;
    for i in 0..n {
        let delta = next("item id")?;
        let id = if i == 0 { delta } else { prev + 1 + delta };
        if id > u32::MAX as u64 {
            return Err(StoreError::corrupt(format!(
                "journal record at byte {at}: item id {id} exceeds u32"
            )));
        }
        ids.push(id as u32);
        prev = id;
    }
    if pos != payload.len() {
        return Err(StoreError::corrupt(format!(
            "journal record at byte {at}: {} bytes left over after the item ids",
            payload.len() - pos
        )));
    }
    Ok(JournalRecord {
        items: IdList::from_sorted(ids),
        label: label as u32,
    })
}

/// Scans `bytes`, which start on a record boundary at file offset
/// `base`, for complete records. Returns the parsed records, the byte
/// offset just past the last complete record (relative to the start of
/// `bytes`), and whether a torn tail follows. Checksum mismatches on
/// *complete* frames are errors; an incomplete trailing frame is not.
fn scan_records(bytes: &[u8], base: u64) -> Result<(Vec<JournalRecord>, usize, bool)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return Ok((records, pos, false));
        }
        if rest.len() < 4 {
            return Ok((records, pos, true));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if len > MAX_RECORD_PAYLOAD {
            // A length this absurd is either a torn frame whose length
            // bytes are garbage or corruption; without a complete frame
            // to checksum the two are indistinguishable, so treat it as
            // torn. open_append truncates it; read_journal reports it.
            return Ok((records, pos, true));
        }
        let frame = FRAME_OVERHEAD + len as usize;
        if rest.len() < frame {
            return Ok((records, pos, true));
        }
        let payload = &rest[4..4 + len as usize];
        let stored = u64::from_le_bytes(rest[4 + len as usize..frame].try_into().unwrap());
        let computed = fnv1a(payload);
        if computed != stored {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        records.push(decode_record_payload(payload, base + pos as u64)?);
        pos += frame;
    }
}

/// Validates a journal header, returning its fingerprint.
fn check_header(bytes: &[u8]) -> Result<u64> {
    if bytes.len() < JOURNAL_HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: JOURNAL_HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
    if magic != JOURNAL_MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != JOURNAL_VERSION {
        return Err(StoreError::VersionSkew {
            found: version,
            supported: JOURNAL_VERSION,
        });
    }
    Ok(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// Reads and validates the journal at `path` without modifying it.
///
/// Stops at a torn trailing frame (reported via
/// [`Journal::torn_tail`]); fails on a bad header, a checksum mismatch
/// in any complete frame, or a malformed payload.
pub fn read_journal(path: &Path) -> Result<Journal> {
    let bytes = std::fs::read(path)?;
    let fingerprint = check_header(&bytes)?;
    let (records, _, torn_tail) =
        scan_records(&bytes[JOURNAL_HEADER_LEN..], JOURNAL_HEADER_LEN as u64)?;
    Ok(Journal {
        fingerprint,
        records,
        torn_tail,
    })
}

/// What [`read_journal_from`] found past its offset, or what
/// [`JournalWriter::open_append`] found in the journal it opened.
#[derive(Clone, Debug)]
pub struct JournalTail {
    /// Every complete, checksum-verified record after the offset.
    pub records: Vec<JournalRecord>,
    /// The byte offset just past the last complete record, where the
    /// next tail read starts. Equal to the offset read from when no
    /// complete record followed it.
    pub end: u64,
    /// Bytes read from the file: everything from the offset to its end.
    pub bytes_read: u64,
}

/// Reads the records that follow byte `offset` of the journal at
/// `path`, for a reader that follows a growing journal without
/// re-reading what it has already applied.
///
/// `offset` must be a record boundary: [`JOURNAL_HEADER_LEN`] or an
/// [`end`](JournalTail::end) an earlier call returned. The header is
/// not re-checked; validate it once (e.g. with
/// [`JournalWriter::open_append`]) before tailing. A partial trailing
/// frame means its writer has not finished: it is left unread, and a
/// later call from the same offset reads it once it is whole. A
/// checksum mismatch on a complete frame is an error, as in
/// [`read_journal`]; so is a file shorter than `offset`, which means
/// the journal was replaced or truncated under the reader.
pub fn read_journal_from(path: &Path, offset: u64) -> Result<JournalTail> {
    assert!(
        offset >= JOURNAL_HEADER_LEN as u64,
        "journal tail offset {offset} falls inside the header"
    );
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len < offset {
        return Err(StoreError::Truncated {
            expected: offset,
            found: len,
        });
    }
    let mut bytes = Vec::new();
    if len > offset {
        file.seek(SeekFrom::Start(offset))?;
        file.read_to_end(&mut bytes)?;
    }
    let (records, end, _) = scan_records(&bytes, offset)?;
    Ok(JournalTail {
        records,
        end: offset + end as u64,
        bytes_read: bytes.len() as u64,
    })
}

/// An appending journal handle.
///
/// Each [`append`](Self::append) writes one complete frame with a
/// single `write_all` on a file opened `O_APPEND`, so concurrent
/// appenders in different processes (the CLI's `farmer ingest` next to
/// a running daemon) interleave at frame granularity rather than
/// corrupting each other. Durability is explicit: call
/// [`sync`](Self::sync) when the rows must survive power loss.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` bound to `fingerprint`,
    /// replacing any existing file.
    pub fn create(path: &Path, fingerprint: u64) -> Result<JournalWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&fingerprint.to_le_bytes());
        file.write_all(&header)?;
        drop(file);
        // Reopen in append mode so every later write lands at the end
        // even if another process appended in between.
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Opens an existing journal for appending, creating it if absent.
    ///
    /// Validates the header, checks the fingerprint against
    /// `fingerprint`, and truncates any torn trailing frame so the next
    /// append starts on a clean record boundary. Complete frames are
    /// checksum-verified on the way, and returned: the tail holds every
    /// record already in the journal (those [`read_journal`] reads) and
    /// the offset past the last one, where a reader following the
    /// journal with [`read_journal_from`] goes on.
    pub fn open_append(path: &Path, fingerprint: u64) -> Result<(JournalWriter, JournalTail)> {
        if !path.exists() {
            let empty = JournalTail {
                records: Vec::new(),
                end: JOURNAL_HEADER_LEN as u64,
                bytes_read: 0,
            };
            return Ok((Self::create(path, fingerprint)?, empty));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let found = check_header(&bytes)?;
        if found != fingerprint {
            return Err(StoreError::corrupt(format!(
                "journal fingerprint {found:#018x} does not match the base \
                 dataset ({fingerprint:#018x}); it was written against a \
                 different dataset"
            )));
        }
        let body = &bytes[JOURNAL_HEADER_LEN..];
        let (records, end, torn) = scan_records(body, JOURNAL_HEADER_LEN as u64)?;
        let end = (JOURNAL_HEADER_LEN + end) as u64;
        if torn {
            file.set_len(end)?;
            file.sync_data()?;
        }
        drop(file);
        let file = OpenOptions::new().append(true).open(path)?;
        let tail = JournalTail {
            records,
            end,
            bytes_read: body.len() as u64,
        };
        Ok((JournalWriter { file }, tail))
    }

    /// Appends one row as a single atomic frame write.
    pub fn append(&mut self, items: &IdList, label: u32) -> Result<()> {
        let payload = encode_record_payload(items, label)?;
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        self.file.write_all(&frame)?;
        Ok(())
    }

    /// Forces appended frames to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fgd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ids(v: &[u32]) -> IdList {
        IdList::from_sorted(v.to_vec())
    }

    #[test]
    fn round_trips_records_through_create_and_read() {
        let path = tmp("roundtrip.fgd");
        let mut w = JournalWriter::create(&path, 0xfeed).unwrap();
        w.append(&ids(&[0, 3, 7]), 1).unwrap();
        w.append(&ids(&[]), 0).unwrap();
        w.append(&ids(&[u32::MAX - 1, u32::MAX]), 2).unwrap();
        w.sync().unwrap();
        let j = read_journal(&path).unwrap();
        assert_eq!(j.fingerprint, 0xfeed);
        assert!(!j.torn_tail);
        assert_eq!(j.records.len(), 3);
        assert_eq!(j.records[0].items.as_slice(), &[0, 3, 7]);
        assert_eq!(j.records[0].label, 1);
        assert_eq!(j.records[1].items.as_slice(), &[] as &[u32]);
        assert_eq!(j.records[2].items.as_slice(), &[u32::MAX - 1, u32::MAX]);
        assert_eq!(j.records[2].label, 2);
    }

    #[test]
    fn open_append_continues_an_existing_journal() {
        let path = tmp("continue.fgd");
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.append(&ids(&[1]), 0).unwrap();
        drop(w);
        let (mut w, _) = JournalWriter::open_append(&path, 7).unwrap();
        w.append(&ids(&[2, 5]), 1).unwrap();
        drop(w);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records.len(), 2);
        assert_eq!(j.records[1].items.as_slice(), &[2, 5]);
    }

    #[test]
    fn open_append_rejects_a_fingerprint_mismatch() {
        let path = tmp("mismatch.fgd");
        JournalWriter::create(&path, 1).unwrap();
        let err = JournalWriter::open_append(&path, 2).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn torn_tail_is_reported_by_read_and_repaired_by_open_append() {
        let path = tmp("torn.fgd");
        let mut w = JournalWriter::create(&path, 9).unwrap();
        w.append(&ids(&[1, 2]), 0).unwrap();
        drop(w);
        // Simulate a crash mid-append: write half a frame.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, 42, 42]).unwrap();
        drop(f);
        let j = read_journal(&path).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.records.len(), 1);
        // Reopening truncates the torn bytes and appends cleanly.
        let (mut w, _) = JournalWriter::open_append(&path, 9).unwrap();
        w.append(&ids(&[3]), 1).unwrap();
        drop(w);
        let j = read_journal(&path).unwrap();
        assert!(!j.torn_tail);
        assert_eq!(j.records.len(), 2);
        assert_eq!(j.records[1].items.as_slice(), &[3]);
    }

    #[test]
    fn open_append_returns_the_records_read_journal_reads() {
        let path = tmp("opened.fgd");
        let mut w = JournalWriter::create(&path, 5).unwrap();
        let rows: [(&[u32], u32); 3] = [(&[0, 3], 1), (&[], 0), (&[2, 7, 9], 0)];
        for (items, label) in rows {
            w.append(&ids(items), label).unwrap();
        }
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 0, 0, 0, 1]).unwrap();
        drop(f);
        let torn_len = std::fs::metadata(&path).unwrap().len();
        let j = read_journal(&path).unwrap();
        assert!(j.torn_tail);

        let (mut w, opened) = JournalWriter::open_append(&path, 5).unwrap();
        assert_eq!(opened.records, j.records);
        assert_eq!(opened.end, std::fs::metadata(&path).unwrap().len());
        assert_eq!(opened.end, torn_len - 5);
        assert_eq!(opened.bytes_read, torn_len - JOURNAL_HEADER_LEN as u64);
        // A reader following the journal goes on from `end`.
        w.append(&ids(&[4]), 1).unwrap();
        let next = read_journal_from(&path, opened.end).unwrap();
        assert_eq!(next.records.len(), 1);
        assert_eq!(next.records[0].items.as_slice(), &[4]);

        // A new journal opens empty, with the tail right past its header.
        let fresh = tmp("opened-fresh.fgd");
        let _ = std::fs::remove_file(&fresh);
        let (_, opened) = JournalWriter::open_append(&fresh, 5).unwrap();
        assert!(opened.records.is_empty());
        assert_eq!(opened.end, JOURNAL_HEADER_LEN as u64);
        assert_eq!(opened.bytes_read, 0);
    }

    #[test]
    fn corrupting_a_complete_frame_is_a_checksum_error() {
        let path = tmp("corrupt.fgd");
        let mut w = JournalWriter::create(&path, 3).unwrap();
        w.append(&ids(&[4, 9]), 1).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit in the (only) complete record.
        let n = bytes.len();
        bytes[JOURNAL_HEADER_LEN + 5] ^= 1;
        std::fs::write(&path, &bytes[..n]).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn header_validation_catches_magic_and_version() {
        let path = tmp("badmagic.fgd");
        std::fs::write(
            &path,
            b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        )
        .unwrap();
        assert!(matches!(
            read_journal(&path).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        let path = tmp("badver.fgd");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&JOURNAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&path).unwrap_err(),
            StoreError::VersionSkew { found: 99, .. }
        ));
    }

    #[test]
    fn fingerprint_tracks_shape_and_dictionaries() {
        let data = farmer_dataset::paper_example();
        let fp = dataset_fingerprint(&data);
        assert_eq!(fp, dataset_fingerprint(&data), "deterministic");
        let grown = data.appended(&[(ids(&[0]), 0)]).unwrap();
        assert_ne!(fp, dataset_fingerprint(&grown), "row count changes it");
    }
}
