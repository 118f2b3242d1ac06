//! Persistent artifacts for mined interesting rule groups.
//!
//! A `farmer mine` run produces a set of IRGs — upper bounds, lower
//! bounds, row-support bitsets, and support/confidence/χ² margins —
//! that the downstream consumers (the serving index in `farmer-serve`,
//! the offline classifiers, ad-hoc queries) want *after* the mining
//! process has exited. This crate defines the `.fgi` on-disk format
//! for that rule base and nothing else: writing is streaming (one
//! group at a time, constant memory beyond the open file), reading is
//! validating (magic, version, declared length, FNV-1a content
//! checksum, then structural checks on every record), and every way a
//! file can be unacceptable maps to a distinct [`StoreError`] variant
//! rather than a panic or a silently wrong result.
//!
//! Two format versions exist. The reader loads both; the writer emits
//! v2 only. v1 files written by earlier releases stay readable, and the
//! store's tests decode committed v1 bytes to keep that reader covered.
//!
//! # The `.fgi` format, version 1
//!
//! All integers are little-endian. The file is a fixed 24-byte header
//! followed by one checksummed payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"FGIA"
//!      4     4  format version (u32) = 1
//!      8     8  payload length in bytes (u64)
//!     16     8  FNV-1a 64 checksum of the payload bytes (u64)
//!     24     –  payload
//! ```
//!
//! Payload layout:
//!
//! ```text
//! n_rows   u64            dataset row count (bitset capacity)
//! n_class  u32            class count
//! per class:              name (u32 len + UTF-8 bytes), row count u64
//! n_items  u32            item dictionary size
//! per item:               name (u32 len + UTF-8 bytes)
//! group records…          self-delimiting, see below
//! n_groups u32            trailing record count (cross-check)
//! ```
//!
//! Each v1 group record: class `u32`; `sup`, `neg_sup`, `n_rows`,
//! `n_class` as `u64`; upper bound (`u32` count + ids); lower bounds
//! (`u32` count, each an id list); the row-support bitset (`u64`
//! capacity + `u32` word count + packed `u64` words, exactly
//! [`rowset::RowSet::words`]).
//!
//! The group count lives *after* the records so a writer can stream
//! groups without knowing how many are coming: it appends the count,
//! then seeks back once to patch the payload length and checksum into
//! the header. The reader knows where the records end because the
//! header declares the payload length.
//!
//! # The `.fgi` format, version 2
//!
//! v2 stores the same information in a fraction of the bytes (5×+
//! smaller on mined microarray workloads) and adds a section table for
//! offset-cursor loading. The header grows to 32 bytes — the first 24
//! are laid out exactly like v1, so every validation layer works
//! before the version branch:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"FGIA"
//!      4     4  format version (u32) = 2
//!      8     8  payload length in bytes (u64)
//!     16     8  FNV-1a 64 checksum of the payload bytes (u64)
//!     24     8  section-table offset within the payload (u64)
//!     32     –  payload
//! ```
//!
//! The payload is three contiguous sections followed by the section
//! table (ZIP-central-directory style, so the writer still streams and
//! hashes strictly forward, patching only the header at finish):
//!
//! * `DICT` — `n_rows` varint; class dictionary (varint count, then
//!   per class varint name length + UTF-8 bytes + varint row count);
//!   item dictionary with front-coded names (varint count, then per
//!   item varint shared-prefix length with the previous name + varint
//!   suffix length + suffix bytes).
//! * `GROUPS` — self-delimiting group records, see below.
//! * `TRAILER` — varint group count (cross-check).
//!
//! The table itself is a `u8` section count then per section `u8` id,
//! `u64` offset, `u64` len; sections must be in order, contiguous from
//! offset 0, and end exactly at the table. All varints are LEB128
//! ([`farmer_support::varint`]).
//!
//! Each v2 group record:
//!
//! * varint `class << 1 | eq`, where `eq` set means the group has
//!   exactly one lower bound equal to its upper bound (the dominant
//!   case in mined output) and no lower-bound bytes follow;
//! * varint `sup` — `neg_sup`, `n_rows`, and `n_class` are *derived*
//!   at read time (`|support| − sup`, `meta.n_rows`,
//!   `meta.class_counts[class]`), which is why
//!   [`ArtifactWriter::write_group`] rejects groups violating those
//!   identities under v2;
//! * the upper bound as a delta-coded id list: varint count, varint
//!   first id, then varint `gap − 1` per subsequent id (ids are
//!   strictly ascending);
//! * unless `eq`: varint lower-bound count, each lower bound
//!   delta-coded as *positions into the upper bound* (lower bounds are
//!   generators of the closed upper bound, hence subsets);
//! * the row-support bitset as run/verbatim hybrid blocks: the
//!   capacity is split into 64-word (4096-row) chunks and each chunk
//!   gets a 1-byte tag — `0` verbatim (varint byte count + the chunk's
//!   logical bytes with trailing zeros trimmed) or `1` runs (varint
//!   run count, then per maximal set-bit run varint gap from the
//!   previous run's end + varint `len − 1`, via
//!   [`rowset::RowSet::runs`]) — whichever encodes smaller.
//!
//! # Ordering
//!
//! The format preserves whatever group order the writer was handed.
//! Callers that want run-independent bytes (the CLI's `--save-irgs`
//! does) sort with [`farmer_core::canonical_sort`] first; the
//! round-trip property tests pin `save → load` to reproduce
//! byte-identical [`farmer_core::dump_groups`] dumps.
//!
//! # Companions
//!
//! Two sibling formats/protocols live here because they share the
//! store's framing idioms and error taxonomy:
//!
//! * the append-only `.fgd` **row journal** for streaming ingest
//!   ([`JournalWriter`], [`read_journal`], [`read_journal_from`]; wire
//!   layout in
//!   [`journal`](self::JOURNAL_MAGIC)'s module docs), and
//! * **atomic publication** of a freshly mined artifact over a live
//!   one ([`publish_artifact`]: temp file → fsync → rename → directory
//!   fsync).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod journal;
mod meta;
mod publish;
mod reader;
mod writer;

pub use error::StoreError;
pub use journal::{
    dataset_fingerprint, read_journal, read_journal_from, Journal, JournalRecord, JournalTail,
    JournalWriter, JOURNAL_HEADER_LEN, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use meta::ArtifactMeta;
pub use publish::publish_artifact;
pub use reader::{read_artifact, Artifact};
pub use writer::{save_artifact, ArtifactWriter};

/// The four magic bytes opening every `.fgi` file.
pub const MAGIC: [u8; 4] = *b"FGIA";

/// The original format version; still read, no longer written.
pub const VERSION_V1: u32 = 1;

/// The current format version, the only one written.
pub const VERSION: u32 = 2;

/// Size of the fixed v1 header preceding the payload.
pub const HEADER_LEN: usize = 24;

/// Size of the fixed v2 header: the v1 header plus the section-table
/// offset.
pub const HEADER_LEN_V2: usize = 32;

/// Byte offset of the payload-length field within the header (both
/// versions).
pub(crate) const LEN_OFFSET: u64 = 8;

/// v2 section ids, in their mandatory file order.
pub const SECTION_DICT: u8 = 1;
/// See [`SECTION_DICT`].
pub const SECTION_GROUPS: u8 = 2;
/// See [`SECTION_DICT`].
pub const SECTION_TRAILER: u8 = 3;

/// Rows per v2 rowset chunk: 64 words of 64 bits.
pub(crate) const CHUNK_BITS: usize = 4096;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
