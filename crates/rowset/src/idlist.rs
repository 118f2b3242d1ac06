//! Sorted id lists with merge-based set operations.

use std::fmt;

/// A sorted, duplicate-free list of `u32` identifiers.
///
/// Used where the universe is wide but the sets are small relative to it —
/// itemsets and tidsets in column-enumeration miners. All binary
/// operations are linear merges over the two operands, so their cost is
/// `O(|a| + |b|)` regardless of the universe size, unlike [`crate::RowSet`]
/// whose cost scales with its capacity.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct IdList {
    ids: Vec<u32>,
}

impl IdList {
    /// The empty list.
    pub fn new() -> Self {
        IdList { ids: Vec::new() }
    }

    /// Builds a list from any iterator; sorts and deduplicates. `O(k log k)`.
    ///
    /// Also available through the `FromIterator` impl / `collect()`.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut ids: Vec<u32> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        IdList { ids }
    }

    /// Builds a list from a vector that is already sorted and deduplicated.
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly ascending"
        );
        IdList { ids }
    }

    /// Number of ids. `O(1)`.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff the list is empty. `O(1)`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.ids
    }

    /// Serializes as a JSON array of ascending ids, e.g. `[0,3,7]`.
    /// Kept dependency-free so any JSON layer can embed it verbatim.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push(']');
        out
    }

    /// Membership test by binary search. `O(log k)`.
    pub fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Inserts an id, keeping the list sorted. `O(k)` worst case.
    pub fn insert(&mut self, id: u32) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Merge-intersection. `O(|a| + |b|)`.
    pub fn intersection(&self, other: &IdList) -> IdList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        IdList { ids: out }
    }

    /// Merge-union. `O(|a| + |b|)`.
    pub fn union(&self, other: &IdList) -> IdList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len() + other.len());
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        IdList { ids: out }
    }

    /// Merge-difference `self \ other`. `O(|a| + |b|)`.
    pub fn difference(&self, other: &IdList) -> IdList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len());
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        IdList { ids: out }
    }

    /// `|self ∩ other|` without allocating. `O(|a| + |b|)`.
    pub fn intersection_len(&self, other: &IdList) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// `true` iff every id of `self` is in `other`. `O(|a| + |b|)`.
    pub fn is_subset(&self, other: &IdList) -> bool {
        is_subset_sorted(&self.ids, &other.ids)
    }

    /// `true` iff the lists share no id. `O(|a| + |b|)`.
    pub fn is_disjoint(&self, other: &IdList) -> bool {
        self.intersection_len(other) == 0
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    /// Consumes the list, returning the sorted id vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.ids
    }
}

/// [`IdList::is_subset`] on borrowed lists: `true` iff every id of `a`
/// is in `b`, both strictly ascending. `O(|a| + |b|)`.
pub fn is_subset_sorted(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    'outer: for &x in a {
        while j < b.len() {
            match b[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl FromIterator<u32> for IdList {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        IdList::from_iter(iter)
    }
}

impl fmt::Debug for IdList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn il(v: &[u32]) -> IdList {
        IdList::from_iter(v.iter().copied())
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        assert_eq!(il(&[3, 1, 2, 3, 1]).as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn intersection_union_difference() {
        let a = il(&[1, 3, 5, 7]);
        let b = il(&[3, 4, 5, 8]);
        assert_eq!(a.intersection(&b).as_slice(), &[3, 5]);
        assert_eq!(a.union(&b).as_slice(), &[1, 3, 4, 5, 7, 8]);
        assert_eq!(a.difference(&b).as_slice(), &[1, 7]);
        assert_eq!(b.difference(&a).as_slice(), &[4, 8]);
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = il(&[2, 4]);
        let b = il(&[1, 2, 3, 4]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(IdList::new().is_subset(&a));
        assert!(il(&[5]).is_disjoint(&a));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn insert_and_contains() {
        let mut a = il(&[1, 5]);
        assert!(a.insert(3));
        assert!(!a.insert(3));
        assert_eq!(a.as_slice(), &[1, 3, 5]);
        assert!(a.contains(3));
        assert!(!a.contains(4));
    }

    #[test]
    fn empty_cases() {
        let e = IdList::new();
        let a = il(&[1]);
        assert!(e.is_empty());
        assert_eq!(e.intersection(&a).len(), 0);
        assert_eq!(e.union(&a), a);
        assert_eq!(a.difference(&e), a);
        assert!(e.is_disjoint(&a));
    }
}
