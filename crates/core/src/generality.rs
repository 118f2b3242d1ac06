//! The generality index behind step 7's interestingness test.

use rowset::IdList;

/// Accepted rule groups, keyed by smallest item, answering step 7's
/// question: is a candidate dominated by a more general group?
///
/// FARMER keeps a rule group only if no already-accepted group with a
/// *more general* antecedent — an upper bound that is a proper subset of
/// the candidate's — has at least the candidate's confidence (Fig. 5
/// step 7, Lemma 3.4). Scanning every accepted group per candidate is
/// quadratic in the output, and the paper's dense regime accepts
/// thousands of groups.
///
/// A non-empty proper subset `A ⊂ U` has its smallest item in `U`, so a
/// query for `U` scans only the buckets of `U`'s own items (plus the
/// bucket of empty upper bounds). This is the subsumption check that
/// closed-set rule bases rely on (Balcázar et al.).
///
/// The index does not own the upper bounds. Entries carry a
/// caller-chosen id, and queries resolve ids through a lookup closure,
/// so the miner, its parallel merge and the pipeline's assembly pass
/// each keep their groups where they already are.
///
/// ```
/// use farmer_core::GeneralityIndex;
/// use rowset::IdList;
///
/// let uppers = [IdList::from_iter([1, 4]), IdList::from_iter([1, 4, 7])];
/// let mut index = GeneralityIndex::new();
/// index.insert(0, &uppers[0], 0.9);
/// let upper_of = |id: u32| &uppers[id as usize];
/// // {1,4} is more general than {1,4,7} and at least as confident
/// assert!(index.has_dominator(&uppers[1], 0.9, upper_of));
/// assert!(!index.has_dominator(&uppers[1], 0.95, upper_of));
/// // equal upper bounds are duplicates, not dominators
/// assert!(index.contains(&uppers[0], upper_of));
/// assert!(!index.has_dominator(&uppers[0], 0.5, upper_of));
/// ```
#[derive(Default)]
pub struct GeneralityIndex {
    /// `buckets[i]`: entries whose smallest item is `i`, in insertion
    /// order. Grown on demand up to the largest smallest item seen.
    buckets: Vec<Vec<Entry>>,
    /// Entries with an empty upper bound.
    empty: Vec<Entry>,
}

#[derive(Clone, Copy)]
struct Entry {
    id: u32,
    len: u32,
    conf: f64,
}

impl GeneralityIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the group `id` with upper bound `upper` and confidence
    /// `conf`. Later queries pass a closure mapping `id` back to
    /// `upper`.
    pub fn insert(&mut self, id: u32, upper: &IdList, conf: f64) {
        let entry = Entry {
            id,
            len: upper.len() as u32,
            conf,
        };
        match upper.as_slice().first() {
            None => self.empty.push(entry),
            Some(&first) => {
                let first = first as usize;
                if first >= self.buckets.len() {
                    self.buckets.resize_with(first + 1, Vec::new);
                }
                self.buckets[first].push(entry);
            }
        }
    }

    /// `true` iff some inserted group's upper bound equals `upper`.
    pub fn contains<'a>(&self, upper: &IdList, upper_of: impl Fn(u32) -> &'a IdList) -> bool {
        let bucket = match upper.as_slice().first() {
            None => Some(&self.empty),
            Some(&first) => self.buckets.get(first as usize),
        };
        bucket.is_some_and(|b| {
            b.iter()
                .any(|e| e.len as usize == upper.len() && upper_of(e.id) == upper)
        })
    }

    /// `true` iff some inserted group `a` is more general than `upper`
    /// and at least as confident: `a.upper ⊂ upper` (proper) and
    /// `a.conf >= conf`.
    pub fn has_dominator<'a>(
        &self,
        upper: &IdList,
        conf: f64,
        upper_of: impl Fn(u32) -> &'a IdList,
    ) -> bool {
        let dominates = |e: &Entry| {
            (e.len as usize) < upper.len() && e.conf >= conf && upper_of(e.id).is_subset(upper)
        };
        // items ascend, so the first absent bucket ends the scan
        self.empty.iter().any(dominates)
            || upper
                .iter()
                .map_while(|item| self.buckets.get(item as usize))
                .any(|bucket| bucket.iter().any(dominates))
    }
}
