//! Fixed-capacity bitset over row identifiers.

use std::fmt;

const BITS: usize = u64::BITS as usize;

/// A fixed-capacity set of row identifiers `0..capacity`, stored as packed
/// 64-bit words.
///
/// All binary operations (`intersect_with`, `union_with`, …) require both
/// operands to have the same capacity and panic otherwise: mixing sets from
/// different datasets is always a logic error in the miners built on top.
///
/// The capacity is fixed at construction; inserting an id `>= capacity`
/// panics.
///
/// ```
/// use rowset::RowSet;
/// let a = RowSet::from_ids(100, [1, 5, 64]);
/// let b = RowSet::from_ids(100, [5, 64, 99]);
/// assert_eq!(a.intersection(&b).to_vec(), vec![5, 64]);
/// assert_eq!(a.intersection_len(&b), 2);
/// assert!(a.intersection(&b).is_subset(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RowSet {
    /// Number of valid ids; bits at positions `>= capacity` are always zero.
    capacity: usize,
    words: Vec<u64>,
}

impl RowSet {
    /// Creates an empty set over the universe `0..capacity`. `O(n)`.
    pub fn empty(capacity: usize) -> Self {
        RowSet {
            capacity,
            words: vec![0; capacity.div_ceil(BITS)],
        }
    }

    /// Creates the full set `{0, …, capacity-1}`. `O(n)`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::empty(capacity);
        s.make_full();
        s
    }

    /// Builds a set from an iterator of ids. `O(n + k)`.
    ///
    /// Panics if any id is `>= capacity`.
    pub fn from_ids<I: IntoIterator<Item = usize>>(capacity: usize, ids: I) -> Self {
        let mut s = Self::empty(capacity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The universe size this set was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Widens the universe to `new_capacity`, keeping every current
    /// member. The appended ids `capacity..new_capacity` start absent.
    /// This is how streaming ingest extends base-dataset support sets
    /// when rows arrive: ids are append-only, so growth never remaps.
    /// `O(n/64)`.
    ///
    /// Panics if `new_capacity < capacity` — shrinking would silently
    /// drop members.
    pub fn grow(&mut self, new_capacity: usize) {
        assert!(
            new_capacity >= self.capacity,
            "cannot grow RowSet from capacity {} down to {new_capacity}",
            self.capacity
        );
        self.capacity = new_capacity;
        self.words.resize(new_capacity.div_ceil(BITS), 0);
    }

    /// Number of ids in the set (popcount). `O(n/64)`.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff the set contains no ids. `O(n/64)`.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `id`, returning `true` if it was newly added. `O(1)`.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        assert!(
            id < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        let (w, b) = (id / BITS, id % BITS);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `id`, returning `true` if it was present. `O(1)`.
    #[inline]
    pub fn remove(&mut self, id: usize) -> bool {
        assert!(
            id < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        let (w, b) = (id / BITS, id % BITS);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test. `O(1)`. Ids outside the capacity are never members.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        if id >= self.capacity {
            return false;
        }
        self.words[id / BITS] & (1 << (id % BITS)) != 0
    }

    /// Removes all ids. `O(n/64)`.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Makes this set the full set `{0, …, capacity-1}` in place, without
    /// allocating. `O(n/64)`.
    pub fn make_full(&mut self) {
        let cap = self.capacity;
        for (i, w) in self.words.iter_mut().enumerate() {
            let lo = i * BITS;
            let hi = (lo + BITS).min(cap);
            *w = if hi - lo == BITS {
                u64::MAX
            } else {
                (1u64 << (hi - lo)) - 1
            };
        }
    }

    /// Overwrites this set with `other`'s contents, without allocating.
    /// `O(n/64)`.
    pub fn copy_from(&mut self, other: &RowSet) {
        self.check(other);
        self.words.copy_from_slice(&other.words);
    }

    /// Removes every id `<= id` in place — the word-parallel form of the
    /// "candidates strictly after `r`" masking the miner's schedulers
    /// need. Ids at or beyond the capacity are fine (the set just ends up
    /// empty). `O(n/64)`.
    pub fn clear_through(&mut self, id: usize) {
        let full_words = (id / BITS).min(self.words.len());
        for w in &mut self.words[..full_words] {
            *w = 0;
        }
        if let Some(w) = self.words.get_mut(full_words) {
            if id / BITS == full_words {
                // keep bits strictly above `id % BITS`
                let b = id % BITS;
                let mask = if b + 1 == BITS {
                    0
                } else {
                    !((1u64 << (b + 1)) - 1)
                };
                *w &= mask;
            }
        }
    }

    /// The fused per-tuple kernel of the miner's `inspect` scan: in one
    /// sweep over the words, folds `tuple` into the running intersection
    /// `z` (`z &= t`) and the running occurrence union `occur`
    /// (`occur |= t`), and returns `|tuple ∩ e_p|`. Equivalent to — and
    /// property-tested against — the three separate passes, at a third of
    /// the memory traffic. `O(n/64)`.
    ///
    /// `tuple` is a set of the same capacity given as its words (see
    /// [`words`](Self::words)), so the caller can keep its tuples packed
    /// in one flat array. Panics if the word counts differ or `tuple`
    /// has a bit at or beyond the capacity, which would otherwise leak
    /// into `occur`.
    pub fn fused_scan(z: &mut RowSet, occur: &mut RowSet, tuple: &[u64], e_p: &RowSet) -> usize {
        z.check(occur);
        z.check(e_p);
        assert_eq!(
            tuple.len(),
            z.words.len(),
            "tuple word count does not match capacity {}",
            z.capacity
        );
        let tail = z.capacity % BITS;
        assert!(
            tail == 0 || tuple.last().is_none_or(|&w| w >> tail == 0),
            "tuple has bits beyond capacity {}",
            z.capacity
        );
        let mut ep_count = 0usize;
        for (((zw, ow), &tw), &ew) in z
            .words
            .iter_mut()
            .zip(occur.words.iter_mut())
            .zip(tuple)
            .zip(&e_p.words)
        {
            *zw &= tw;
            *ow |= tw;
            ep_count += (tw & ew).count_ones() as usize;
        }
        ep_count
    }

    /// Writes `self ∩ other` into `out` without allocating. `O(n/64)`.
    pub fn intersection_into(&self, other: &RowSet, out: &mut RowSet) {
        self.check(other);
        self.check(out);
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a & b;
        }
    }

    /// Writes `self ∪ other` into `out` without allocating. `O(n/64)`.
    pub fn union_into(&self, other: &RowSet, out: &mut RowSet) {
        self.check(other);
        self.check(out);
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a | b;
        }
    }

    /// Writes `self \ other` into `out` without allocating. `O(n/64)`.
    pub fn difference_into(&self, other: &RowSet, out: &mut RowSet) {
        self.check(other);
        self.check(out);
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a & !b;
        }
    }

    /// In-place intersection with `other`. `O(n/64)`.
    pub fn intersect_with(&mut self, other: &RowSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union with `other`. `O(n/64)`.
    pub fn union_with(&mut self, other: &RowSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: removes every id of `other`. `O(n/64)`.
    pub fn difference_with(&mut self, other: &RowSet) {
        self.check(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `self ∩ other` as a new set. `O(n/64)`.
    pub fn intersection(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self ∪ other` as a new set. `O(n/64)`.
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `self \ other` as a new set. `O(n/64)`.
    pub fn difference(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// `|self ∩ other|` without allocating. `O(n/64)`.
    pub fn intersection_len(&self, other: &RowSet) -> usize {
        self.check(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` iff every id of `self` is in `other`. Exits at the first
    /// word that witnesses a non-member, so mismatches near the front of
    /// the universe cost `O(1)`. `O(n/64)` worst case.
    pub fn is_subset(&self, other: &RowSet) -> bool {
        self.check(other);
        for (a, b) in self.words.iter().zip(&other.words) {
            if a & !b != 0 {
                return false;
            }
        }
        true
    }

    /// `true` iff every id of `other` is in `self`. `O(n/64)`.
    pub fn is_superset(&self, other: &RowSet) -> bool {
        other.is_subset(self)
    }

    /// `true` iff the sets share no id. `O(n/64)`.
    pub fn is_disjoint(&self, other: &RowSet) -> bool {
        self.check(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Smallest id in the set, if any. `O(n/64)`.
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Largest id in the set, if any. `O(n/64)`.
    pub fn last(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(i * BITS + (BITS - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> RowSetIter<'_> {
        RowSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the ids into a `Vec`, ascending. `O(n/64 + k)`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The packed 64-bit words backing the set, little-end-first: bit
    /// `b` of `words()[w]` is row id `w * 64 + b`. This is the set's
    /// canonical serialized form — `from_words` round-trips it exactly,
    /// and the artifact store writes these words verbatim.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a set from its [`words`](Self::words) representation,
    /// validating the two invariants every other method relies on: the
    /// word count matches the capacity, and no bit at position
    /// `>= capacity` is set. Both failures are errors, not panics —
    /// this is the deserialization entry point for untrusted bytes.
    pub fn from_words(capacity: usize, words: Vec<u64>) -> Result<Self, FromWordsError> {
        if words.len() != capacity.div_ceil(BITS) {
            return Err(FromWordsError::WrongWordCount {
                capacity,
                expected: capacity.div_ceil(BITS),
                found: words.len(),
            });
        }
        if let Some(last) = words.last() {
            let used = capacity - (words.len() - 1) * BITS;
            if used < BITS && *last >> used != 0 {
                return Err(FromWordsError::TailBitsSet { capacity });
            }
        }
        Ok(RowSet { capacity, words })
    }

    /// Iterates over maximal runs of consecutive set ids, ascending,
    /// as `(start, len)` pairs with `len >= 1`.
    ///
    /// Support sets mined from sorted datasets are run-heavy — rows of
    /// one class cluster into contiguous id ranges — which is what the
    /// `.fgi` v2 run/verbatim hybrid rowset encoding exploits. The
    /// scan is word-level: each `next()` does two
    /// find-first-bit sweeps, not a per-bit walk.
    pub fn runs(&self) -> RowSetRuns<'_> {
        RowSetRuns { set: self, pos: 0 }
    }

    /// First bit at position `>= from` whose value matches
    /// `target_set`, confined to `0..capacity`.
    fn find_bit(&self, mut from: usize, target_set: bool) -> Option<usize> {
        while from < self.capacity {
            let w = from / BITS;
            let mut word = if target_set {
                self.words[w]
            } else {
                !self.words[w]
            };
            word &= !0u64 << (from % BITS);
            if word != 0 {
                let bit = w * BITS + word.trailing_zeros() as usize;
                return (bit < self.capacity).then_some(bit);
            }
            from = (w + 1) * BITS;
        }
        None
    }

    /// Serializes as a JSON array of ascending row ids, e.g. `[0,3,7]`.
    /// Kept dependency-free so any JSON layer can embed it verbatim.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push(']');
        out
    }

    #[inline]
    fn check(&self, other: &RowSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "RowSet capacity mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }
}

/// Iterator over maximal set-bit runs; see [`RowSet::runs`].
pub struct RowSetRuns<'a> {
    set: &'a RowSet,
    pos: usize,
}

impl Iterator for RowSetRuns<'_> {
    /// `(first id in the run, number of consecutive ids)`.
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let start = self.set.find_bit(self.pos, true)?;
        let end = self.set.find_bit(start, false).unwrap_or(self.set.capacity);
        self.pos = end;
        Some((start, end - start))
    }
}

/// Why [`RowSet::from_words`] rejected a serialized set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FromWordsError {
    /// The word vector's length does not match the declared capacity.
    WrongWordCount {
        /// The declared universe size.
        capacity: usize,
        /// `capacity.div_ceil(64)`.
        expected: usize,
        /// The length actually supplied.
        found: usize,
    },
    /// A bit at position `>= capacity` was set in the last word.
    TailBitsSet {
        /// The declared universe size.
        capacity: usize,
    },
}

impl fmt::Display for FromWordsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromWordsError::WrongWordCount {
                capacity,
                expected,
                found,
            } => write!(f, "capacity {capacity} needs {expected} words, got {found}"),
            FromWordsError::TailBitsSet { capacity } => {
                write!(f, "bit set beyond capacity {capacity} in last word")
            }
        }
    }
}

impl std::error::Error for FromWordsError {}

impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = usize;
    type IntoIter = RowSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<usize> for RowSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Ascending iterator over the ids of a [`RowSet`].
pub struct RowSetIter<'a> {
    set: &'a RowSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for RowSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: usize = self
            .set
            .words
            .get(self.word_idx + 1..)
            .unwrap_or(&[])
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.current.count_ones() as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RowSetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = RowSet::empty(70);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert_eq!(e.capacity(), 70);

        let f = RowSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(0));
        assert!(f.contains(69));
        assert!(!f.contains(70));
        assert_eq!(f.to_vec(), (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn full_on_word_boundary() {
        for cap in [0, 1, 63, 64, 65, 128] {
            let f = RowSet::full(cap);
            assert_eq!(f.len(), cap, "cap={cap}");
            assert_eq!(f.to_vec(), (0..cap).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_on_edge_shapes() {
        assert_eq!(RowSet::empty(100).runs().count(), 0);
        assert_eq!(RowSet::empty(0).runs().count(), 0);
        for cap in [1, 63, 64, 65, 128, 129] {
            let f = RowSet::full(cap);
            assert_eq!(f.runs().collect::<Vec<_>>(), vec![(0, cap)], "cap={cap}");
        }
        // isolated bits, including both sides of a word boundary
        let s = RowSet::from_ids(130, [0, 2, 63, 64, 65, 129]);
        assert_eq!(
            s.runs().collect::<Vec<_>>(),
            vec![(0, 1), (2, 1), (63, 3), (129, 1)]
        );
        // a run spanning three words
        let t = RowSet::from_ids(257, 60..200);
        assert_eq!(t.runs().collect::<Vec<_>>(), vec![(60, 140)]);
    }

    #[test]
    fn runs_reconstruct_the_set() {
        let s = RowSet::from_ids(257, (0..257).filter(|i| i % 7 < 3));
        let mut back = RowSet::empty(257);
        for (start, len) in s.runs() {
            assert!(len >= 1);
            for id in start..start + len {
                assert!(back.insert(id), "runs overlapped at {id}");
            }
        }
        assert_eq!(back, s);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = RowSet::empty(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert!(s.contains(5));
        assert!(s.contains(64));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 2);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        RowSet::empty(10).insert(10);
    }

    #[test]
    fn set_algebra() {
        let a = RowSet::from_ids(130, [1, 2, 3, 64, 65, 129]);
        let b = RowSet::from_ids(130, [2, 3, 4, 65, 128]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3, 65]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 64, 65, 128, 129]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 64, 129]);
        assert_eq!(a.intersection_len(&b), 3);
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.union(&b).is_superset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn subset_reflexive_and_empty() {
        let a = RowSet::from_ids(40, [0, 39]);
        let e = RowSet::empty(40);
        assert!(a.is_subset(&a));
        assert!(e.is_subset(&a));
        assert!(!a.is_subset(&e));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mixed_capacity_panics() {
        let a = RowSet::empty(10);
        let b = RowSet::empty(11);
        a.is_subset(&b);
    }

    #[test]
    fn first_last_iter() {
        let s = RowSet::from_ids(200, [7, 63, 64, 199]);
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.last(), Some(199));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7, 63, 64, 199]);
        assert_eq!(s.iter().len(), 4);
        assert_eq!(RowSet::empty(5).first(), None);
        assert_eq!(RowSet::empty(5).last(), None);
    }

    #[test]
    fn extend_and_clear() {
        let mut s = RowSet::empty(10);
        s.extend([1, 3, 5]);
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn debug_format() {
        let s = RowSet::from_ids(10, [1, 4]);
        assert_eq!(format!("{s:?}"), "{1, 4}");
    }

    #[test]
    fn words_round_trip() {
        for cap in [0, 1, 63, 64, 65, 130] {
            let s = RowSet::from_ids(cap, (0..cap).step_by(3));
            let back = RowSet::from_words(cap, s.words().to_vec()).unwrap();
            assert_eq!(back, s, "cap={cap}");
            assert_eq!(back.capacity(), cap);
        }
    }

    #[test]
    fn from_words_rejects_bad_shapes() {
        assert_eq!(
            RowSet::from_words(100, vec![0; 3]),
            Err(FromWordsError::WrongWordCount {
                capacity: 100,
                expected: 2,
                found: 3
            })
        );
        // capacity 65: the last word holds id 64 only
        assert!(RowSet::from_words(65, vec![0, 0b1]).is_ok());
        assert_eq!(
            RowSet::from_words(65, vec![0, 0b10]),
            Err(FromWordsError::TailBitsSet { capacity: 65 })
        );
        // exact multiple of 64: the whole last word is valid
        assert!(RowSet::from_words(128, vec![u64::MAX, u64::MAX]).is_ok());
        let e = RowSet::from_words(10, vec![1 << 10]).unwrap_err();
        assert!(e.to_string().contains("capacity 10"), "{e}");
    }

    #[test]
    fn grow_keeps_members_and_widens() {
        for (cap, new_cap) in [(0, 5), (10, 64), (63, 64), (64, 65), (65, 200), (70, 70)] {
            let mut s = RowSet::from_ids(cap, (0..cap).step_by(3));
            let before = s.to_vec();
            s.grow(new_cap);
            assert_eq!(s.capacity(), new_cap);
            assert_eq!(s.to_vec(), before, "{cap}->{new_cap}");
            assert!(!s.contains(new_cap));
            if new_cap > 0 {
                s.insert(new_cap - 1);
                assert!(s.contains(new_cap - 1));
            }
            // binary ops accept same-capacity peers after growth
            assert!(RowSet::empty(new_cap).is_subset(&s));
        }
    }

    #[test]
    #[should_panic(expected = "cannot grow")]
    fn grow_rejects_shrinking() {
        RowSet::empty(10).grow(9);
    }

    #[test]
    #[should_panic(expected = "beyond capacity 10")]
    fn fused_scan_rejects_bits_beyond_capacity() {
        let (mut z, mut occur, e_p) = (RowSet::full(10), RowSet::empty(10), RowSet::empty(10));
        RowSet::fused_scan(&mut z, &mut occur, &[1 << 10], &e_p);
    }

    #[test]
    fn zero_capacity() {
        let s = RowSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(RowSet::full(0).len(), 0);
    }
}
