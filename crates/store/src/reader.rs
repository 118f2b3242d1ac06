//! Validating `.fgi` reader (v1 and v2).

use crate::{
    ArtifactMeta, Result, StoreError, CHUNK_BITS, HEADER_LEN, HEADER_LEN_V2, MAGIC, SECTION_DICT,
    SECTION_GROUPS, SECTION_TRAILER, VERSION, VERSION_V1,
};
use farmer_core::RuleGroup;
use farmer_support::hash::fnv1a;
use farmer_support::varint;
use rowset::{IdList, RowSet};
use std::path::Path;

/// A fully loaded, fully validated artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Dataset-level metadata: dictionaries, class counts, row count.
    pub meta: ArtifactMeta,
    /// The stored rule groups, in file order.
    pub groups: Vec<RuleGroup>,
    /// The `.fgi` format version the groups were read from
    /// ([`VERSION_V1`] or [`VERSION`]); an artifact built in memory
    /// carries [`VERSION`], the version a publish would write.
    pub version: u32,
}

impl Artifact {
    /// Reads and validates the artifact at `path`.
    pub fn load(path: &Path) -> Result<Artifact> {
        read_artifact(&std::fs::read(path)?)
    }
}

/// Parses an artifact from bytes already in memory.
///
/// Validation happens outside-in: the fixed header first (truncation,
/// magic, version), then the declared payload length against the bytes
/// actually present, then the FNV-1a checksum over the whole payload,
/// and only then the payload's structure. A file that fails an outer
/// layer is reported by that layer's error — a truncated file is
/// [`StoreError::Truncated`] even though its checksum would not match
/// either.
pub fn read_artifact(bytes: &[u8]) -> Result<Artifact> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION_V1 && version != VERSION {
        return Err(StoreError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    let header_len = if version == VERSION_V1 {
        HEADER_LEN
    } else {
        HEADER_LEN_V2
    };
    if bytes.len() < header_len {
        return Err(StoreError::Truncated {
            expected: header_len as u64,
            found: bytes.len() as u64,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let stored = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let need = (header_len as u64).saturating_add(payload_len);
    let have = bytes.len() as u64;
    if have < need {
        return Err(StoreError::Truncated {
            expected: need,
            found: have,
        });
    }
    if have > need {
        return Err(StoreError::corrupt(format!(
            "{} bytes of trailing garbage after the declared payload",
            have - need
        )));
    }
    let payload = &bytes[header_len..];
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let (meta, groups) = if version == VERSION_V1 {
        parse_payload(payload)?
    } else {
        let table_offset = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        parse_payload_v2(payload, table_offset)?
    };
    Ok(Artifact {
        meta,
        groups,
        version,
    })
}

/// Parses a payload whose envelope (length, checksum) already passed.
/// Every failure from here on is [`StoreError::Corrupt`].
fn parse_payload(payload: &[u8]) -> Result<(ArtifactMeta, Vec<RuleGroup>)> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let n_rows = c.u64("n_rows")?;
    let n_classes = c.u32("n_class")?;
    let mut class_names = Vec::new();
    let mut class_counts = Vec::new();
    for i in 0..n_classes {
        class_names.push(c.string(&format!("class {i} name"))?);
        class_counts.push(c.u64(&format!("class {i} count"))?);
    }
    let n_items = c.u32("n_items")?;
    let mut item_names = Vec::new();
    for i in 0..n_items {
        item_names.push(c.string(&format!("item {i} name"))?);
    }
    let meta = ArtifactMeta {
        n_rows,
        class_names,
        class_counts,
        item_names,
    };

    // Group records fill the payload up to the trailing 4-byte count.
    let mut groups = Vec::new();
    while c.remaining() > 4 {
        groups.push(read_group(&mut c, &meta, groups.len())?);
    }
    let declared = c.u32("trailing group count")?;
    if c.remaining() != 0 {
        return Err(StoreError::corrupt(format!(
            "{} bytes left over after the trailing group count",
            c.remaining()
        )));
    }
    if declared as usize != groups.len() {
        return Err(StoreError::corrupt(format!(
            "trailing count says {declared} groups, file holds {}",
            groups.len()
        )));
    }
    Ok((meta, groups))
}

fn read_group(c: &mut Cursor<'_>, meta: &ArtifactMeta, idx: usize) -> Result<RuleGroup> {
    let what = |field: &str| format!("group {idx} {field}");
    let class = c.u32(&what("class"))?;
    if class as usize >= meta.n_classes() {
        return Err(StoreError::corrupt(format!(
            "group {idx} class {class} outside the {}-class dictionary",
            meta.n_classes()
        )));
    }
    let sup = c.u64(&what("sup"))? as usize;
    let neg_sup = c.u64(&what("neg_sup"))? as usize;
    let g_rows = c.u64(&what("n_rows"))? as usize;
    let g_class = c.u64(&what("n_class"))? as usize;
    let upper = read_ids(c, meta, &what("upper"))?;
    let n_lower = c.u32(&what("lower count"))?;
    let mut lower = Vec::new();
    for l in 0..n_lower {
        lower.push(read_ids(c, meta, &what(&format!("lower {l}")))?);
    }
    let capacity = c.u64(&what("bitset capacity"))?;
    if capacity != meta.n_rows {
        return Err(StoreError::corrupt(format!(
            "group {idx} bitset capacity {capacity} != dataset rows {}",
            meta.n_rows
        )));
    }
    let n_words = c.u32(&what("bitset word count"))?;
    let mut words = Vec::with_capacity(n_words as usize);
    for _ in 0..n_words {
        words.push(c.u64(&what("bitset word"))?);
    }
    let support_set = RowSet::from_words(capacity as usize, words)
        .map_err(|e| StoreError::corrupt(format!("group {idx} bitset: {e}")))?;
    if support_set.len() != sup + neg_sup {
        return Err(StoreError::corrupt(format!(
            "group {idx} bitset holds {} rows but sup {sup} + neg_sup {neg_sup}",
            support_set.len()
        )));
    }
    Ok(RuleGroup {
        upper,
        lower,
        support_set,
        sup,
        neg_sup,
        class,
        n_rows: g_rows,
        n_class: g_class,
    })
}

fn read_ids(c: &mut Cursor<'_>, meta: &ArtifactMeta, what: &str) -> Result<IdList> {
    let n = c.u32(&format!("{what} count"))?;
    let mut ids = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let id = c.u32(what)?;
        if id as usize >= meta.n_items() {
            return Err(StoreError::corrupt(format!(
                "{what}: item {id} outside the {}-item dictionary",
                meta.n_items()
            )));
        }
        ids.push(id);
    }
    // IdList's merge algebra requires strictly ascending ids; the writer
    // always stores them that way, so anything else is corruption.
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(StoreError::corrupt(format!(
            "{what}: item ids not strictly ascending"
        )));
    }
    Ok(IdList::from_sorted(ids))
}

/// One entry of the v2 section table.
struct Section {
    id: u8,
    offset: u64,
    len: u64,
}

/// Parses a v2 payload whose envelope already passed: section table
/// first (bounds-checked against the header's table offset), then each
/// section through a cursor confined to exactly its declared byte
/// range.
fn parse_payload_v2(payload: &[u8], table_offset: u64) -> Result<(ArtifactMeta, Vec<RuleGroup>)> {
    // --- section table ---------------------------------------------------
    let plen = payload.len() as u64;
    if table_offset > plen {
        return Err(StoreError::corrupt(format!(
            "section table offset {table_offset} beyond the {plen}-byte payload"
        )));
    }
    let mut t = Cursor {
        buf: payload,
        pos: table_offset as usize,
    };
    let n_sections = t.u8("section count")?;
    let mut sections = Vec::new();
    for i in 0..n_sections {
        let what = format!("section table entry {i}");
        sections.push(Section {
            id: t.u8(&what)?,
            offset: t.u64(&what)?,
            len: t.u64(&what)?,
        });
    }
    if t.remaining() != 0 {
        return Err(StoreError::corrupt(format!(
            "{} bytes left over after the section table",
            t.remaining()
        )));
    }
    // Exactly the three known sections, in order, contiguous from
    // offset 0, ending at the table.
    let expect = [SECTION_DICT, SECTION_GROUPS, SECTION_TRAILER];
    if sections.len() != expect.len() {
        return Err(StoreError::corrupt(format!(
            "section table holds {} sections, expected {}",
            sections.len(),
            expect.len()
        )));
    }
    let mut at = 0u64;
    for (s, &want) in sections.iter().zip(&expect) {
        if s.id != want {
            return Err(StoreError::corrupt(format!(
                "section id {} where section {want} belongs",
                s.id
            )));
        }
        if s.offset != at {
            return Err(StoreError::corrupt(format!(
                "section {} starts at {} instead of {at}",
                s.id, s.offset
            )));
        }
        at = at
            .checked_add(s.len)
            .ok_or_else(|| StoreError::corrupt(format!("section {} length overflows", s.id)))?;
    }
    if at != table_offset {
        return Err(StoreError::corrupt(format!(
            "sections end at {at} but the table starts at {table_offset}"
        )));
    }
    let range = |s: &Section| &payload[s.offset as usize..(s.offset + s.len) as usize];

    // --- DICT -------------------------------------------------------------
    let mut c = Cursor {
        buf: range(&sections[0]),
        pos: 0,
    };
    let n_rows = c.varint("n_rows")?;
    let n_classes = c.varint("class count")?;
    if n_classes > sections[0].len {
        return Err(StoreError::corrupt(format!(
            "class count {n_classes} larger than the dictionary section"
        )));
    }
    let mut class_names = Vec::with_capacity(n_classes as usize);
    let mut class_counts = Vec::with_capacity(n_classes as usize);
    for i in 0..n_classes {
        class_names.push(c.varint_string(&format!("class {i} name"))?);
        class_counts.push(c.varint(&format!("class {i} count"))?);
    }
    let n_items = c.varint("item count")?;
    if n_items > sections[0].len {
        return Err(StoreError::corrupt(format!(
            "item count {n_items} larger than the dictionary section"
        )));
    }
    let mut item_names: Vec<String> = Vec::with_capacity(n_items as usize);
    for i in 0..n_items {
        let what = format!("item {i} name");
        let shared = c.varint(&what)? as usize;
        let prev: &str = item_names.last().map_or("", String::as_str);
        if shared > prev.len() || !prev.is_char_boundary(shared) {
            return Err(StoreError::corrupt(format!(
                "{what}: shared prefix {shared} exceeds the previous name"
            )));
        }
        let suffix = c.varint_string(&what)?;
        let mut name = String::with_capacity(shared + suffix.len());
        name.push_str(&prev[..shared]);
        name.push_str(&suffix);
        item_names.push(name);
    }
    if c.remaining() != 0 {
        return Err(StoreError::corrupt(format!(
            "{} bytes left over after the item dictionary",
            c.remaining()
        )));
    }
    let meta = ArtifactMeta {
        n_rows,
        class_names,
        class_counts,
        item_names,
    };

    // --- TRAILER (read before GROUPS so the count bounds the loop) --------
    let mut tr = Cursor {
        buf: range(&sections[2]),
        pos: 0,
    };
    let declared = tr.varint("trailing group count")?;
    if tr.remaining() != 0 {
        return Err(StoreError::corrupt(format!(
            "{} bytes left over after the trailing group count",
            tr.remaining()
        )));
    }

    // --- GROUPS -----------------------------------------------------------
    let mut gc = Cursor {
        buf: range(&sections[1]),
        pos: 0,
    };
    let mut groups = Vec::new();
    while gc.remaining() > 0 {
        if groups.len() as u64 == declared {
            return Err(StoreError::corrupt(format!(
                "{} bytes of group records beyond the declared {declared} groups",
                gc.remaining()
            )));
        }
        groups.push(read_group_v2(&mut gc, &meta, groups.len())?);
    }
    if declared != groups.len() as u64 {
        return Err(StoreError::corrupt(format!(
            "trailing count says {declared} groups, file holds {}",
            groups.len()
        )));
    }
    Ok((meta, groups))
}

fn read_group_v2(c: &mut Cursor<'_>, meta: &ArtifactMeta, idx: usize) -> Result<RuleGroup> {
    let what = |field: &str| format!("group {idx} {field}");
    let head = c.varint(&what("class"))?;
    let class = (head >> 1) as u32;
    let eq_lower = head & 1 == 1;
    if class as usize >= meta.n_classes() {
        return Err(StoreError::corrupt(format!(
            "group {idx} class {class} outside the {}-class dictionary",
            meta.n_classes()
        )));
    }
    let sup = c.varint(&what("sup"))? as usize;
    let upper_ids = read_id_deltas(c, meta.n_items() as u64, &what("upper"))?;
    let lower = if eq_lower {
        vec![IdList::from_sorted(upper_ids.clone())]
    } else {
        let n_lower = c.varint(&what("lower count"))?;
        if n_lower > c.remaining() as u64 + 1 {
            return Err(StoreError::corrupt(format!(
                "group {idx} lower count {n_lower} larger than the groups section"
            )));
        }
        let mut lower = Vec::with_capacity(n_lower as usize);
        for l in 0..n_lower {
            let what = what(&format!("lower {l}"));
            let positions = read_id_deltas(c, upper_ids.len() as u64, &what)?;
            lower.push(IdList::from_sorted(
                positions.iter().map(|&p| upper_ids[p as usize]).collect(),
            ));
        }
        lower
    };
    let upper = IdList::from_sorted(upper_ids);
    let support_set = read_rowset_v2(c, meta.n_rows as usize, &what("rowset"))?;
    let covered = support_set.len();
    if sup > covered {
        return Err(StoreError::corrupt(format!(
            "group {idx} sup {sup} exceeds the {covered} rows in its bitset"
        )));
    }
    Ok(RuleGroup {
        upper,
        lower,
        support_set,
        sup,
        neg_sup: covered - sup,
        class,
        n_rows: meta.n_rows as usize,
        n_class: meta.class_counts[class as usize] as usize,
    })
}

/// Decodes a delta-coded strictly ascending id list; every id must be
/// `< universe`.
fn read_id_deltas(c: &mut Cursor<'_>, universe: u64, what: &str) -> Result<Vec<u32>> {
    let n = c.varint(&format!("{what} count"))?;
    if n > universe {
        return Err(StoreError::corrupt(format!(
            "{what}: {n} ids cannot be strictly ascending below {universe}"
        )));
    }
    let mut ids = Vec::with_capacity(n as usize);
    let mut prev: u64 = 0;
    for i in 0..n {
        let delta = c.varint(what)?;
        let id = if i == 0 { delta } else { prev + 1 + delta };
        if id >= universe {
            return Err(StoreError::corrupt(format!(
                "{what}: id {id} outside the {universe}-entry universe"
            )));
        }
        ids.push(id as u32);
        prev = id;
    }
    Ok(ids)
}

/// Decodes the run/verbatim hybrid rowset chunks back into a
/// [`RowSet`] of exactly `cap` rows.
fn read_rowset_v2(c: &mut Cursor<'_>, cap: usize, what: &str) -> Result<RowSet> {
    let mut words = vec![0u64; cap.div_ceil(64)];
    let n_chunks = cap.div_ceil(CHUNK_BITS);
    for chunk in 0..n_chunks {
        let base = chunk * CHUNK_BITS;
        let bits = (cap - base).min(CHUNK_BITS);
        let what = format!("{what} chunk {chunk}");
        match c.u8(&what)? {
            0 => {
                let n_bytes = c.varint(&what)? as usize;
                if n_bytes > bits.div_ceil(8) {
                    return Err(StoreError::corrupt(format!(
                        "{what}: {n_bytes} verbatim bytes for a {bits}-bit chunk"
                    )));
                }
                let bytes = c.take(n_bytes, &what)?;
                for (i, &b) in bytes.iter().enumerate() {
                    words[base / 64 + i / 8] |= (b as u64) << (8 * (i % 8));
                }
            }
            1 => {
                let n_runs = c.varint(&what)?;
                if n_runs > bits as u64 {
                    return Err(StoreError::corrupt(format!(
                        "{what}: {n_runs} runs in a {bits}-bit chunk"
                    )));
                }
                let mut at = 0usize;
                for _ in 0..n_runs {
                    let gap = c.varint(&what)? as usize;
                    let len = c.varint(&what)? as usize + 1;
                    let start = at.checked_add(gap).ok_or_else(|| {
                        StoreError::corrupt(format!("{what}: run start overflows"))
                    })?;
                    let end = start.checked_add(len).ok_or_else(|| {
                        StoreError::corrupt(format!("{what}: run length overflows"))
                    })?;
                    if end > bits {
                        return Err(StoreError::corrupt(format!(
                            "{what}: run [{start}, {end}) beyond the {bits}-bit chunk"
                        )));
                    }
                    for bit in start..end {
                        let abs = base + bit;
                        words[abs / 64] |= 1u64 << (abs % 64);
                    }
                    at = end;
                }
            }
            tag => {
                return Err(StoreError::corrupt(format!(
                    "{what}: unknown chunk tag {tag}"
                )));
            }
        }
    }
    RowSet::from_words(cap, words).map_err(|e| StoreError::corrupt(format!("{what}: {e}")))
}

/// Bounds-checked little-endian reads over the payload. Running off
/// the end is always `Corrupt` (never a panic): the envelope already
/// proved the byte count matches what the writer declared, so an
/// overrun means the structure lies about itself.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::corrupt(format!(
                "payload ends inside {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(format!("{what}: invalid UTF-8")))
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// A LEB128 varint; truncated or overlong encodings are `Corrupt`.
    fn varint(&mut self, what: &str) -> Result<u64> {
        match varint::read_u64(&self.buf[self.pos..]) {
            Some((v, used)) => {
                self.pos += used;
                Ok(v)
            }
            None => Err(StoreError::corrupt(format!(
                "payload ends inside {what}: invalid varint at offset {}",
                self.pos
            ))),
        }
    }

    /// A varint-length-prefixed UTF-8 string.
    fn varint_string(&mut self, what: &str) -> Result<String> {
        let len = self.varint(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(format!("{what}: invalid UTF-8")))
    }
}
