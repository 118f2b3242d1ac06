//! Step 7 of `MineIRGs` (Figure 5), the definition of an interesting
//! rule group: it passes the [`Thresholds`], and no accepted, more
//! general group (one whose upper bound is a proper subset of its own)
//! is at least as confident. In [`generality_order`] every more general
//! group is judged first (Lemma 3.4), so one pass through a
//! [`GeneralityIndex`] decides every group. FARMER's search makes the
//! pass as it emits, in each parallel worker too; [`keep_interesting`]
//! makes it over a batch, for the pass after the search (the parallel
//! merge, and runs that can find a group twice), the pipeline and the
//! baselines. Only the brute-force oracle ([`naive`](crate::naive))
//! keeps its own copy, as the reference.

use crate::measures::{self, chi_square, Contingency};
use crate::params::{ExtraConstraint, MiningParams};
use crate::rule::MineStats;
use crate::session::{MineObserver, PruneReason};
use farmer_dataset::ItemId;
use rowset::{is_subset_sorted, IdList};
use std::cmp::Ordering;

/// Step 7's thresholds for one mine: the `min_sup`, `min_conf`,
/// `min_chi` and footnote-3 extras of a [`MiningParams`], judged against
/// the class margins of the mined data, `n` rows of which `m` carry the
/// target class.
///
/// Lift and conviction are monotone in confidence once the class margin
/// `p_c = m / n` is fixed, so they also raise the confidence floor that
/// [`accept`](Self::accept) and FARMER's confidence bounds apply: to the
/// smallest `f64` confidence at which the extra's own test passes, so
/// that rounding never cuts a group meeting the threshold exactly.
pub struct Thresholds<'a> {
    pub(crate) min_sup: usize,
    /// `min_conf`, tightened by any lift/conviction extras.
    pub(crate) min_conf: f64,
    pub(crate) min_chi: f64,
    pub(crate) extra: &'a [ExtraConstraint],
    /// Rows of the mined data.
    pub(crate) n: usize,
    /// Rows of the target class.
    pub(crate) m: usize,
}

impl<'a> Thresholds<'a> {
    /// The thresholds of `params` for data of `n` rows, `m` of them in
    /// the target class.
    pub fn new(params: &'a MiningParams, n: usize, m: usize) -> Self {
        let mut min_conf = params.min_conf;
        if n > 0 {
            // the arithmetic of `measures::lift` and `measures::conviction`
            // at confidence `c`
            let p_c = m as f64 / n as f64;
            for c in &params.extra {
                match *c {
                    ExtraConstraint::MinLift(l) if m > 0 => {
                        min_conf = min_conf.max(least_conf(|c| c / p_c >= l));
                    }
                    ExtraConstraint::MinConviction(v) if v > 0.0 => {
                        let floor = least_conf(|c| c == 1.0 || (1.0 - p_c) / (1.0 - c) >= v);
                        min_conf = min_conf.max(floor);
                    }
                    _ => {}
                }
            }
        }
        Thresholds {
            min_sup: params.min_sup,
            min_conf,
            min_chi: params.min_chi,
            extra: &params.extra,
            n,
            m,
        }
    }

    /// The confidence of a group with `sup_p` rows in the class and
    /// `sup_n` outside it, if the group passes every threshold; `None`
    /// if it misses one.
    #[inline]
    pub fn accept(&self, sup_p: usize, sup_n: usize) -> Option<f64> {
        if sup_p < self.min_sup {
            return None;
        }
        let conf = confidence(sup_p, sup_n);
        if conf < self.min_conf {
            return None;
        }
        if self.min_chi > 0.0 || !self.extra.is_empty() {
            let t = Contingency::new(sup_p + sup_n, sup_p, self.n, self.m);
            if self.min_chi > 0.0 && chi_square(t) < self.min_chi {
                return None;
            }
            let extras_met = self.extra.iter().all(|c| match *c {
                ExtraConstraint::MinLift(v) => measures::lift(t) >= v,
                ExtraConstraint::MinConviction(v) => measures::conviction(t) >= v,
                ExtraConstraint::MinEntropyGain(v) => measures::entropy_gain(t) >= v,
                ExtraConstraint::MinGiniGain(v) => measures::gini_gain(t) >= v,
                ExtraConstraint::MinCorrelation(v) => measures::correlation(t) >= v,
            });
            if !extras_met {
                return None;
            }
        }
        Some(conf)
    }
}

/// The smallest `f64` in `[0, 1]` at which the monotone test `meets`
/// holds, or 1 when no confidence meets it: a bisection over the bit
/// patterns, which order like the non-negative floats they encode, so
/// it takes at most 64 tests.
fn least_conf(meets: impl Fn(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (0u64, 1f64.to_bits());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    f64::from_bits(lo)
}

/// `sup_p / (sup_p + sup_n)`: step 7's one confidence arithmetic, so
/// that every comparison of two confidences agrees to the bit.
#[inline]
fn confidence(sup_p: usize, sup_n: usize) -> f64 {
    sup_p as f64 / (sup_p + sup_n) as f64
}

/// Generality order on upper bounds, `(|upper|, upper)`: fewer items
/// first, ties in item order. A proper subset has fewer items, so every
/// group comes after all the groups more general than it.
pub fn generality_order(a: &IdList, b: &IdList) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Step 7 over a batch of threshold-passing candidates, sorted by upper
/// bound in [`generality_order`]: keeps, in order, each candidate that
/// no kept, more general candidate dominates.
///
/// `group` reads a candidate's upper bound and its counts
/// `(sup_p, sup_n)`. A candidate repeating the upper bound before it is
/// dropped unseen; copies of one group are identical. Each dominated
/// candidate adds one to `stats.rejected_not_interesting` and fires
/// `pruned(NotInteresting)`, each kept one fires `group_emitted`, in
/// candidate order.
pub fn keep_interesting<T, O>(
    mut cands: Vec<T>,
    group: impl Fn(&T) -> (&IdList, usize, usize),
    stats: &mut MineStats,
    obs: &mut O,
) -> Vec<T>
where
    O: MineObserver + ?Sized,
{
    debug_assert!(cands.is_sorted_by(|a, b| generality_order(group(a).0, group(b).0).is_le()));
    cands.dedup_by(|a, b| group(a).0 == group(b).0);
    // the kept candidates are compacted into `cands[..kept]`, in order,
    // so the index ids are their positions there
    let mut kept = 0;
    let mut index = GeneralityIndex::new();
    for i in 0..cands.len() {
        let (upper, sup_p, sup_n) = group(&cands[i]);
        let (upper, conf) = (upper.as_slice(), confidence(sup_p, sup_n));
        if index.has_dominator(upper, conf, |id| group(&cands[id as usize]).0.as_slice()) {
            stats.rejected_not_interesting += 1;
            obs.pruned(PruneReason::NotInteresting);
        } else {
            obs.group_emitted(sup_p, sup_n);
            index.insert(kept as u32, upper, conf);
            cands.swap(kept, i);
            kept += 1;
        }
    }
    cands.truncate(kept);
    cands
}

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
/// so FARMER's step 7 and [`keep_interesting`] each keep their groups
/// where they already are. Upper bounds go in and come back as
/// borrowed, strictly ascending item slices, so a search can ask about
/// a node's items before it builds a list for the group.
///
/// ```
/// use farmer_core::GeneralityIndex;
///
/// let uppers: [&[u32]; 2] = [&[1, 4], &[1, 4, 7]];
/// let mut index = GeneralityIndex::new();
/// index.insert(0, uppers[0], 0.9);
/// let upper_of = |id: u32| uppers[id as usize];
/// // {1,4} is more general than {1,4,7} and at least as confident
/// assert!(index.has_dominator(uppers[1], 0.9, upper_of));
/// assert!(!index.has_dominator(uppers[1], 0.95, upper_of));
/// // equal upper bounds are duplicates, not dominators
/// assert!(index.contains(uppers[0], upper_of));
/// assert!(!index.has_dominator(uppers[0], 0.5, upper_of));
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
    pub fn insert(&mut self, id: u32, upper: &[ItemId], conf: f64) {
        let entry = Entry {
            id,
            len: upper.len() as u32,
            conf,
        };
        match upper.first() {
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
    pub fn contains<'a>(&self, upper: &[ItemId], upper_of: impl Fn(u32) -> &'a [ItemId]) -> bool {
        let bucket = match upper.first() {
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
        upper: &[ItemId],
        conf: f64,
        upper_of: impl Fn(u32) -> &'a [ItemId],
    ) -> bool {
        let dominates = |e: &Entry| {
            (e.len as usize) < upper.len()
                && e.conf >= conf
                && is_subset_sorted(upper_of(e.id), upper)
        };
        // items ascend, so the first absent bucket ends the scan
        self.empty.iter().any(dominates)
            || upper
                .iter()
                .map_while(|&item| self.buckets.get(item as usize))
                .any(|bucket| bucket.iter().any(dominates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CountingObserver;

    #[test]
    fn lift_and_conviction_raise_the_confidence_floor() {
        // 10 rows, 5 in the class: lift 1.2 needs confidence 0.6, and
        // conviction 2.5 needs 1 - 0.5 / 2.5 = 0.8
        let lift = MiningParams::new(0)
            .min_sup(2)
            .constrain(ExtraConstraint::MinLift(1.2));
        let t = Thresholds::new(&lift, 10, 5);
        assert_eq!(t.min_conf, 0.6);
        assert_eq!(t.accept(3, 2), Some(0.6));
        assert_eq!(t.accept(3, 3), None);
        assert_eq!(t.accept(1, 0), None, "below min_sup");
        let conviction = MiningParams::new(0).constrain(ExtraConstraint::MinConviction(2.5));
        assert!((Thresholds::new(&conviction, 10, 5).min_conf - 0.8).abs() < 1e-12);
    }

    #[test]
    fn raised_floor_keeps_every_group_meeting_lift_or_conviction() {
        // every contingency of up to 40 rows: `accept` must agree with
        // the oracle's predicate (min_sup 1, then the extra's own
        // test), and no group the oracle keeps may sit below the floor
        // the confidence bounds read
        let lifts = [1.1, 1.2, 1.25, 1.3, 1.5, 2.0].map(ExtraConstraint::MinLift);
        let convictions =
            [0.1, 0.2, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0].map(ExtraConstraint::MinConviction);
        for extra in lifts.into_iter().chain(convictions) {
            let params = MiningParams::new(0).min_sup(1).constrain(extra);
            for n in 1..=40 {
                for m in 0..=n {
                    let t = Thresholds::new(&params, n, m);
                    for x in 1..=n {
                        for y in x.saturating_sub(n - m)..=x.min(m) {
                            let c = Contingency::new(x, y, n, m);
                            let kept = y >= 1
                                && match extra {
                                    ExtraConstraint::MinLift(v) => measures::lift(c) >= v,
                                    ExtraConstraint::MinConviction(v) => {
                                        measures::conviction(c) >= v
                                    }
                                    _ => unreachable!(),
                                };
                            let conf = t.accept(y, x - y);
                            assert_eq!(conf.is_some(), kept, "{extra:?} n={n} m={m} x={x} y={y}");
                            assert!(!kept || confidence(y, x - y) >= t.min_conf);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn keep_interesting_drops_repeats_and_tallies_rejections() {
        // (upper, sup_p, sup_n): {1} at confidence 0.75 dominates {1,2}
        // at 0.5 but not {1,3} at 1.0; the second {1,3} is a repeat
        let cands = vec![
            (IdList::from_iter([1]), 3, 1),
            (IdList::from_iter([1, 2]), 1, 1),
            (IdList::from_iter([1, 3]), 2, 0),
            (IdList::from_iter([1, 3]), 2, 0),
        ];
        let (mut stats, mut obs) = (MineStats::default(), CountingObserver::default());
        let kept = keep_interesting(cands, |c| (&c.0, c.1, c.2), &mut stats, &mut obs);
        let uppers: Vec<_> = kept.iter().map(|c| c.0.as_slice().to_vec()).collect();
        assert_eq!(uppers, vec![vec![1], vec![1, 3]]);
        assert_eq!(stats.rejected_not_interesting, 1);
        assert_eq!((obs.rejected_not_interesting, obs.emitted), (1, 2));
    }
}
