//! Streaming `.fgi` writer. It writes the current version (v2) only;
//! v1 files stay readable.

use crate::{
    ArtifactMeta, Result, StoreError, CHUNK_BITS, LEN_OFFSET, MAGIC, SECTION_DICT, SECTION_GROUPS,
    SECTION_TRAILER, VERSION,
};
use farmer_core::RuleGroup;
use farmer_support::hash::Fnv1a;
use farmer_support::varint;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Writes an artifact one group at a time.
///
/// The header goes out first with zeroed length/checksum fields; every
/// payload byte is folded into a running FNV-1a as it is written; and
/// [`finish`](Self::finish) appends the trailing group count and the
/// section table, then seeks back exactly once to patch the header.
/// Memory use is constant in the number of groups.
pub struct ArtifactWriter<W: Write + Seek> {
    w: W,
    hasher: Fnv1a,
    payload_len: u64,
    n_groups: u64,
    /// End of the DICT section (== start of GROUPS).
    dict_end: u64,
    // dictionary shape, for validating groups as they stream through
    n_rows: u64,
    n_classes: u32,
    n_items: u32,
    /// Per-class row counts; the reader derives each group's `n_class`
    /// from these, so the writer must hold groups to them.
    class_counts: Vec<u64>,
}

impl<W: Write + Seek> ArtifactWriter<W> {
    /// Opens a stream: writes the placeholder header and the dictionary
    /// section of `meta`.
    pub fn new(mut w: W, meta: &ArtifactMeta) -> Result<Self> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?; // payload_len, patched in finish
        w.write_all(&0u64.to_le_bytes())?; // checksum, patched in finish
        w.write_all(&0u64.to_le_bytes())?; // table offset, patched in finish
        let mut this = ArtifactWriter {
            w,
            hasher: Fnv1a::new(),
            payload_len: 0,
            n_groups: 0,
            dict_end: 0,
            n_rows: meta.n_rows,
            n_classes: meta.n_classes() as u32,
            n_items: meta.n_items() as u32,
            class_counts: meta.class_counts.clone(),
        };
        debug_assert_eq!(meta.class_names.len(), meta.class_counts.len());
        let mut dict = Vec::new();
        varint::write_u64(&mut dict, meta.n_rows);
        varint::write_u64(&mut dict, this.n_classes as u64);
        for (name, &count) in meta.class_names.iter().zip(&meta.class_counts) {
            varint::write_u64(&mut dict, name.len() as u64);
            dict.extend_from_slice(name.as_bytes());
            varint::write_u64(&mut dict, count);
        }
        varint::write_u64(&mut dict, this.n_items as u64);
        let mut prev: &str = "";
        for name in &meta.item_names {
            let shared = name
                .bytes()
                .zip(prev.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            // never split a UTF-8 sequence: back off to a char
            // boundary so the suffix stays valid UTF-8 on its own
            let shared = (0..=shared)
                .rev()
                .find(|&s| name.is_char_boundary(s))
                .unwrap_or(0);
            varint::write_u64(&mut dict, shared as u64);
            varint::write_u64(&mut dict, (name.len() - shared) as u64);
            dict.extend_from_slice(&name.as_bytes()[shared..]);
            prev = name;
        }
        this.put(&dict)?;
        this.dict_end = this.payload_len;
        Ok(this)
    }

    /// Appends one group record. Groups must refer only to the
    /// dictionary the writer was opened with; a group that does not is
    /// rejected here (as [`StoreError::Corrupt`]) instead of producing
    /// a file the reader would reject later. The derived fields must
    /// also hold (`n_rows`/`n_class` matching the dictionary,
    /// `neg_sup == |support| − sup`, lower bounds ⊆ upper bound): v2
    /// does not store them, so a group breaking those identities is
    /// unrepresentable.
    pub fn write_group(&mut self, g: &RuleGroup) -> Result<()> {
        if g.class >= self.n_classes {
            return Err(StoreError::corrupt(format!(
                "group class {} outside the {}-class dictionary",
                g.class, self.n_classes
            )));
        }
        for items in std::iter::once(&g.upper).chain(&g.lower) {
            if let Some(bad) = items.iter().find(|&i| i >= self.n_items) {
                return Err(StoreError::corrupt(format!(
                    "group item {bad} outside the {}-item dictionary",
                    self.n_items
                )));
            }
        }
        if g.support_set.capacity() as u64 != self.n_rows {
            return Err(StoreError::corrupt(format!(
                "group bitset capacity {} != dataset rows {}",
                g.support_set.capacity(),
                self.n_rows
            )));
        }
        // v2 derives these at read time; refuse to write a group the
        // reader would reconstruct differently.
        if g.n_rows as u64 != self.n_rows {
            return Err(StoreError::corrupt(format!(
                "v2 cannot store group n_rows {} != dataset rows {}",
                g.n_rows, self.n_rows
            )));
        }
        if g.n_class as u64 != self.class_counts[g.class as usize] {
            return Err(StoreError::corrupt(format!(
                "v2 cannot store group n_class {} != class {} row count {}",
                g.n_class, g.class, self.class_counts[g.class as usize]
            )));
        }
        if g.sup + g.neg_sup != g.support_set.len() {
            return Err(StoreError::corrupt(format!(
                "v2 cannot store sup {} + neg_sup {} != bitset rows {}",
                g.sup,
                g.neg_sup,
                g.support_set.len()
            )));
        }
        let upper: Vec<u32> = g.upper.iter().collect();
        let eq = g.lower.len() == 1 && g.lower[0].iter().eq(g.upper.iter());
        let mut rec = Vec::new();
        varint::write_u64(&mut rec, (g.class as u64) << 1 | eq as u64);
        varint::write_u64(&mut rec, g.sup as u64);
        encode_id_deltas(&mut rec, &upper);
        if !eq {
            varint::write_u64(&mut rec, g.lower.len() as u64);
            for l in &g.lower {
                let mut positions = Vec::with_capacity(l.len());
                for id in l.iter() {
                    match upper.binary_search(&id) {
                        Ok(p) => positions.push(p as u32),
                        Err(_) => {
                            return Err(StoreError::corrupt(format!(
                                "v2 cannot store lower bound item {id} \
                                 missing from the group's upper bound"
                            )));
                        }
                    }
                }
                encode_id_deltas(&mut rec, &positions);
            }
        }
        encode_rowset(&mut rec, &g.support_set);
        self.put(&rec)?;
        self.n_groups += 1;
        Ok(())
    }

    /// Appends the trailing group count and the section table, patches
    /// the header, and flushes. Returns the content checksum.
    pub fn finish(mut self) -> Result<u64> {
        let groups_end = self.payload_len;
        let mut trailer = Vec::new();
        varint::write_u64(&mut trailer, self.n_groups);
        self.put(&trailer)?;
        let table_offset = self.payload_len;
        let mut table = Vec::new();
        table.push(3u8);
        for (id, offset, len) in [
            (SECTION_DICT, 0, self.dict_end),
            (SECTION_GROUPS, self.dict_end, groups_end - self.dict_end),
            (SECTION_TRAILER, groups_end, table_offset - groups_end),
        ] {
            table.push(id);
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&len.to_le_bytes());
        }
        self.put(&table)?;
        let checksum = self.hasher.finish();
        self.w.seek(SeekFrom::Start(LEN_OFFSET))?;
        self.w.write_all(&self.payload_len.to_le_bytes())?;
        self.w.write_all(&checksum.to_le_bytes())?;
        self.w.write_all(&table_offset.to_le_bytes())?;
        self.w.flush()?;
        Ok(checksum)
    }

    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.w.write_all(bytes)?;
        self.hasher.write(bytes);
        self.payload_len += bytes.len() as u64;
        Ok(())
    }
}

/// Delta-codes a strictly ascending id list: varint count, varint
/// first, then varint `gap − 1` per subsequent id.
fn encode_id_deltas(out: &mut Vec<u8>, ids: &[u32]) {
    varint::write_u64(out, ids.len() as u64);
    for (i, &id) in ids.iter().enumerate() {
        if i == 0 {
            varint::write_u64(out, id as u64);
        } else {
            varint::write_u64(out, (id - ids[i - 1] - 1) as u64);
        }
    }
}

/// Encodes a rowset as run/verbatim hybrid chunks (one tag byte per
/// 64-word chunk, whichever of the two encodings is smaller — ties go
/// to verbatim, making the choice deterministic and the bytes
/// reproducible).
fn encode_rowset(out: &mut Vec<u8>, s: &rowset::RowSet) {
    let cap = s.capacity();
    let n_chunks = cap.div_ceil(CHUNK_BITS);
    // Maximal set-bit runs, split at chunk boundaries.
    let mut chunk_runs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_chunks];
    for (start, len) in s.runs() {
        let mut at = start;
        let end = start + len;
        while at < end {
            let c = at / CHUNK_BITS;
            let stop = ((c + 1) * CHUNK_BITS).min(end);
            chunk_runs[c].push((at - c * CHUNK_BITS, stop - at));
            at = stop;
        }
    }
    let words = s.words();
    for (c, runs) in chunk_runs.iter().enumerate() {
        let bits = (cap - c * CHUNK_BITS).min(CHUNK_BITS);
        let w0 = c * (CHUNK_BITS / 64);
        let w1 = (w0 + CHUNK_BITS / 64).min(words.len());
        // verbatim: the chunk's logical bytes, trailing zeros trimmed
        let mut bytes = Vec::with_capacity(bits.div_ceil(8));
        for &w in &words[w0..w1] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.truncate(bits.div_ceil(8));
        while bytes.last() == Some(&0) {
            bytes.pop();
        }
        let verbatim_cost = varint::encoded_len(bytes.len() as u64) + bytes.len();
        // runs: gap from previous run's end + len − 1, both varint
        let mut runs_cost = varint::encoded_len(runs.len() as u64);
        let mut prev_end = 0usize;
        for &(rs, rl) in runs {
            runs_cost +=
                varint::encoded_len((rs - prev_end) as u64) + varint::encoded_len((rl - 1) as u64);
            prev_end = rs + rl;
        }
        if runs_cost < verbatim_cost {
            out.push(1u8);
            varint::write_u64(out, runs.len() as u64);
            let mut prev_end = 0usize;
            for &(rs, rl) in runs {
                varint::write_u64(out, (rs - prev_end) as u64);
                varint::write_u64(out, (rl - 1) as u64);
                prev_end = rs + rl;
            }
        } else {
            out.push(0u8);
            varint::write_u64(out, bytes.len() as u64);
            out.extend_from_slice(&bytes);
        }
    }
}

/// Writes `groups` to `path`, creating or replacing the file. Returns
/// the content checksum.
pub fn save_artifact(path: &Path, meta: &ArtifactMeta, groups: &[RuleGroup]) -> Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = ArtifactWriter::new(std::io::BufWriter::new(file), meta)?;
    for g in groups {
        w.write_group(g)?;
    }
    w.finish()
}
