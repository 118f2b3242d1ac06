//! Mined rule groups and mining results.

use crate::measures::{self, Contingency};
use crate::session::{PruneReason, StopCause};
use farmer_dataset::{ClassLabel, Dataset, ItemId};
use rowset::{IdList, RowSet};
use std::fmt;

/// One interesting rule group `G`, identified by its unique upper bound.
///
/// Every rule `A → C` with `lower ⊆ A ⊆ upper` (for some lower bound)
/// belongs to the group and shares the same support set, support,
/// confidence, and χ² value (Lemma 2.2).
///
/// Row ids in [`support_set`](Self::support_set) refer to the *original*
/// dataset row order (the miner undoes its internal `ORD` permutation
/// before reporting).
#[derive(Clone, Debug, PartialEq)]
pub struct RuleGroup {
    /// The upper bound antecedent: `I(R(A))`, the most specific itemset.
    pub upper: IdList,
    /// The lower bounds (most general antecedents). Empty when lower
    /// bound computation was disabled.
    pub lower: Vec<IdList>,
    /// `R(A)` — all rows matching the antecedent, in original row ids.
    pub support_set: RowSet,
    /// `|R(A ∪ C)|` — the rule support.
    pub sup: usize,
    /// `|R(A ∪ ¬C)|` — antecedent rows outside the class.
    pub neg_sup: usize,
    /// The consequent class.
    pub class: ClassLabel,
    /// Total rows `n` in the mined dataset (margin for χ²).
    pub n_rows: usize,
    /// Rows labeled with the class, `m = |R(C)|` (margin for χ²).
    pub n_class: usize,
}

impl RuleGroup {
    /// `|R(A)| = sup + neg_sup`.
    pub fn antecedent_support(&self) -> usize {
        self.sup + self.neg_sup
    }

    /// Rule confidence `sup / |R(A)|`.
    pub fn confidence(&self) -> f64 {
        self.contingency().confidence()
    }

    /// The rule's χ² value.
    pub fn chi_square(&self) -> f64 {
        measures::chi_square(self.contingency())
    }

    /// Lift of the rule.
    pub fn lift(&self) -> f64 {
        measures::lift(self.contingency())
    }

    /// Conviction of the rule.
    pub fn conviction(&self) -> f64 {
        measures::conviction(self.contingency())
    }

    /// The 2×2 contingency table of the rule.
    pub fn contingency(&self) -> Contingency {
        Contingency::new(
            self.antecedent_support(),
            self.sup,
            self.n_rows,
            self.n_class,
        )
    }

    /// `true` iff `items` contains some lower bound and is contained in
    /// the upper bound — i.e. `items → class` is a member of this group
    /// (Lemma 2.2). Requires lower bounds to have been computed.
    pub fn contains_rule(&self, items: &IdList) -> bool {
        items.is_subset(&self.upper) && self.lower.iter().any(|l| l.is_subset(items))
    }

    /// `true` iff the given row (by original id) matches the antecedent.
    pub fn matches_row(&self, row: usize) -> bool {
        self.support_set.contains(row)
    }

    /// Renders the upper-bound rule using the dataset's item and class
    /// names, e.g. `"aeh -> C (sup 2, conf 0.67)"`.
    pub fn display<'a>(&'a self, data: &'a Dataset) -> RuleGroupDisplay<'a> {
        RuleGroupDisplay { group: self, data }
    }

    /// Total order used wherever groups must serialize identically
    /// across runs: `(class, upper bound)` — a unique key within one
    /// mining result, since each rule group is identified by its upper
    /// bound — with the remaining fields as tie-breakers so the order
    /// is total even across unrelated group lists.
    pub fn canonical_cmp(&self, other: &RuleGroup) -> std::cmp::Ordering {
        self.class
            .cmp(&other.class)
            .then_with(|| self.upper.cmp(&other.upper))
            .then_with(|| self.sup.cmp(&other.sup))
            .then_with(|| self.neg_sup.cmp(&other.neg_sup))
    }
}

/// Sorts `groups` into the canonical serialization order
/// ([`RuleGroup::canonical_cmp`]) and each group's lower-bound list
/// ascending. Discovery order depends on scheduling (a parallel run
/// merges per-worker results); artifacts written through this sort are
/// byte-identical for the same mined set at any thread count.
pub fn canonical_sort(groups: &mut [RuleGroup]) {
    for g in groups.iter_mut() {
        g.lower.sort_unstable();
    }
    groups.sort_by(RuleGroup::canonical_cmp);
}

/// A deterministic, line-per-group textual dump of `groups`, exactly as
/// ordered. Two group lists are equal iff their dumps are byte-identical
/// — the round-trip tests of the artifact store compare these.
pub fn dump_groups(groups: &[RuleGroup]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for g in groups {
        write!(out, "class={} upper={}", g.class, g.upper.to_json()).unwrap();
        out.push_str(" lower=[");
        for (i, l) in g.lower.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&l.to_json());
        }
        writeln!(
            out,
            "] rows={} sup={} neg={} n_rows={} n_class={}",
            g.support_set.to_json(),
            g.sup,
            g.neg_sup,
            g.n_rows,
            g.n_class,
        )
        .unwrap();
    }
    out
}

/// Helper returned by [`RuleGroup::display`].
pub struct RuleGroupDisplay<'a> {
    group: &'a RuleGroup,
    data: &'a Dataset,
}

impl fmt::Display for RuleGroupDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: Vec<&str> = self
            .group
            .upper
            .iter()
            .map(|i: ItemId| self.data.item_name(i))
            .collect();
        write!(
            f,
            "{{{}}} -> {} (sup {}, conf {:.3}, chi {:.2})",
            items.join(","),
            self.data.class_name(self.group.class),
            self.group.sup,
            self.group.confidence(),
            self.group.chi_square(),
        )
    }
}

/// Counters describing what the search did; used by the efficiency
/// experiments and the pruning ablations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MineStats {
    /// Enumeration-tree nodes entered (root included).
    pub nodes_visited: u64,
    /// Nodes cut by pruning strategy 2 (duplicate rule group).
    pub pruned_duplicate: u64,
    /// Nodes cut by the loose support/confidence bounds (before scan).
    pub pruned_loose: u64,
    /// Nodes cut by the tight support bound `Us1`.
    pub pruned_tight_support: u64,
    /// Nodes cut by the tight confidence bound `Uc1`.
    pub pruned_tight_confidence: u64,
    /// Nodes cut by the χ² upper bound.
    pub pruned_chi: u64,
    /// Candidate rows folded away by pruning strategy 1.
    pub rows_compressed: u64,
    /// Upper bounds that met all thresholds but failed the
    /// interestingness comparison of step 7.
    pub rejected_not_interesting: u64,
    /// Subtrees cut by the rising per-row confidence floor (top-k
    /// mining only; 0 for the threshold miners).
    pub pruned_floor: u64,
    /// Subtrees cut by the delta-restricted frontier (incremental
    /// remine only; 0 for unrestricted runs).
    pub pruned_frontier: u64,
    /// `true` iff the search stopped early — node budget, deadline, or
    /// cooperative cancellation — and the result is (possibly)
    /// incomplete. [`stop`](Self::stop) says which; this flag is kept
    /// for back-compatibility with the budget-only API.
    pub budget_exhausted: bool,
    /// What ended the run (`Completed` unless `budget_exhausted`).
    pub stop: StopCause,
}

impl MineStats {
    /// Adds another search's `tally` to this one, as a parallel run
    /// sums its workers: the counters add, `budget_exhausted` is either
    /// one's, and the stop causes [`merge`](StopCause::merge). Every
    /// field is named, so a counter added later cannot be left out of
    /// the sum without a compile error.
    pub fn absorb(&mut self, tally: &MineStats) {
        let MineStats {
            nodes_visited,
            pruned_duplicate,
            pruned_loose,
            pruned_tight_support,
            pruned_tight_confidence,
            pruned_chi,
            rows_compressed,
            rejected_not_interesting,
            pruned_floor,
            pruned_frontier,
            budget_exhausted,
            stop,
        } = tally;
        self.nodes_visited += nodes_visited;
        self.pruned_duplicate += pruned_duplicate;
        self.pruned_loose += pruned_loose;
        self.pruned_tight_support += pruned_tight_support;
        self.pruned_tight_confidence += pruned_tight_confidence;
        self.pruned_chi += pruned_chi;
        self.rows_compressed += rows_compressed;
        self.rejected_not_interesting += rejected_not_interesting;
        self.pruned_floor += pruned_floor;
        self.pruned_frontier += pruned_frontier;
        self.budget_exhausted |= budget_exhausted;
        self.stop = self.stop.merge(*stop);
    }

    /// The counter tallying `reason`, so every [`PruneReason`] variant
    /// maps to exactly one stats field (the exhaustive `match` turns a
    /// forgotten mapping into a compile error; the parity test in
    /// `crates/core/tests/session.rs` pins the rest of the wiring).
    pub fn pruned_count(&self, reason: PruneReason) -> u64 {
        match reason {
            PruneReason::Duplicate => self.pruned_duplicate,
            PruneReason::LooseBound => self.pruned_loose,
            PruneReason::TightSupport => self.pruned_tight_support,
            PruneReason::TightConfidence => self.pruned_tight_confidence,
            PruneReason::ChiBound => self.pruned_chi,
            PruneReason::NotInteresting => self.rejected_not_interesting,
            PruneReason::ConfidenceFloor => self.pruned_floor,
        }
    }
}

/// How the run was scheduled and what its memory discipline looked like.
///
/// Unlike [`MineStats`], these numbers are **not** deterministic across
/// parallel runs: under work stealing, which worker claims which depth-1
/// subtree (and therefore the per-worker node split and steal count)
/// depends on thread timing. They are kept out of `MineStats` so the
/// determinism guarantees on the mining counters stay intact; treat them
/// as observability, not as results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Work-queue claims beyond each worker's first — i.e. how many
    /// times a worker came back for more after its initial subtree.
    /// Always 0 for sequential runs.
    pub steals: u64,
    /// Enumeration nodes visited per worker, indexed by worker id.
    /// A single entry (the whole run) for sequential runs.
    pub worker_nodes: Vec<u64>,
    /// Deepest recursion frame held by any worker's scratch arena — the
    /// steady-state buffer footprint is `peak_arena_depth` frames per
    /// worker.
    pub peak_arena_depth: usize,
}

/// The result of one mining run.
#[derive(Clone, Debug)]
pub struct MineResult {
    /// The interesting rule groups: in discovery order when a
    /// sequential search judged step 7 as it went, in generality order
    /// when step 7 ran after the search (parallel runs, harvest mode,
    /// pruning strategy 1 or 2 off).
    pub groups: Vec<RuleGroup>,
    /// Search counters.
    pub stats: MineStats,
    /// Scheduling / memory observability (nondeterministic under
    /// parallelism; see [`SchedStats`]).
    pub sched: SchedStats,
    /// Total rows of the mined dataset.
    pub n_rows: usize,
    /// Rows labeled with the target class.
    pub n_class: usize,
}

impl MineResult {
    /// Number of IRGs found.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` iff no IRG was found.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Groups sorted by `(confidence desc, support desc, |upper| asc)` —
    /// the ranking the IRG classifier consumes.
    pub fn ranked(&self) -> Vec<&RuleGroup> {
        let mut v: Vec<&RuleGroup> = self.groups.iter().collect();
        v.sort_by(|a, b| {
            b.confidence()
                .partial_cmp(&a.confidence())
                .unwrap()
                .then(b.sup.cmp(&a.sup))
                .then(a.upper.len().cmp(&b.upper.len()))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> RuleGroup {
        RuleGroup {
            upper: IdList::from_iter([0, 2, 5]),
            lower: vec![IdList::from_iter([2]), IdList::from_iter([5])],
            support_set: RowSet::from_ids(6, [1, 2, 3]),
            sup: 2,
            neg_sup: 1,
            class: 0,
            n_rows: 6,
            n_class: 3,
        }
    }

    #[test]
    fn measures_delegate() {
        let g = group();
        assert_eq!(g.antecedent_support(), 3);
        assert!((g.confidence() - 2.0 / 3.0).abs() < 1e-12);
        assert!(g.chi_square() >= 0.0);
        assert!(g.lift() > 1.0);
        assert!(g.conviction() > 1.0);
    }

    #[test]
    fn membership_via_bounds() {
        let g = group();
        // member: contains lower {2}, inside upper {0,2,5}
        assert!(g.contains_rule(&IdList::from_iter([0, 2])));
        assert!(g.contains_rule(&IdList::from_iter([5])));
        // not a member: {0} contains no lower bound
        assert!(!g.contains_rule(&IdList::from_iter([0])));
        // not a member: outside the upper bound
        assert!(!g.contains_rule(&IdList::from_iter([2, 3])));
    }

    #[test]
    fn row_matching() {
        let g = group();
        assert!(g.matches_row(2));
        assert!(!g.matches_row(0));
    }

    #[test]
    fn ranking_order() {
        let hi = RuleGroup {
            sup: 3,
            neg_sup: 0,
            ..group()
        };
        let lo = group();
        let res = MineResult {
            groups: vec![lo.clone(), hi.clone()],
            stats: MineStats::default(),
            sched: SchedStats::default(),
            n_rows: 6,
            n_class: 3,
        };
        assert_eq!(res.len(), 2);
        assert!(!res.is_empty());
        let ranked = res.ranked();
        assert_eq!(ranked[0].sup, 3);
        assert_eq!(ranked[1].sup, 2);
    }

    #[test]
    fn canonical_sort_is_scheduling_independent() {
        let a = RuleGroup {
            upper: IdList::from_iter([0, 2]),
            lower: vec![IdList::from_iter([2]), IdList::from_iter([0])],
            ..group()
        };
        let b = RuleGroup {
            upper: IdList::from_iter([1]),
            class: 1,
            ..group()
        };
        let c = RuleGroup {
            upper: IdList::from_iter([0, 5]),
            ..group()
        };
        // two "discovery orders" of the same set
        let mut run1 = vec![a.clone(), b.clone(), c.clone()];
        let mut run2 = vec![c, a, b];
        canonical_sort(&mut run1);
        canonical_sort(&mut run2);
        assert_eq!(run1, run2);
        assert_eq!(dump_groups(&run1), dump_groups(&run2));
        // class sorts first, then upper; lowers are sorted within a group
        assert_eq!(run1[0].upper, IdList::from_iter([0, 2]));
        assert_eq!(run1[0].lower[0], IdList::from_iter([0]));
        assert_eq!(run1[1].upper, IdList::from_iter([0, 5]));
        assert_eq!(run1[2].class, 1);
    }

    #[test]
    fn dump_is_line_per_group_and_field_complete() {
        let d = dump_groups(&[group()]);
        assert_eq!(d.lines().count(), 1);
        assert!(
            d.starts_with("class=0 upper=[0,2,5] lower=[[2],[5]] rows=[1,2,3] sup=2 neg=1"),
            "{d}"
        );
        assert!(d.trim_end().ends_with("n_rows=6 n_class=3"), "{d}");
        assert_eq!(dump_groups(&[]), "");
    }

    #[test]
    fn display_uses_names() {
        let data = farmer_dataset::paper_example();
        let g = RuleGroup {
            upper: IdList::from_iter([0]),
            lower: vec![],
            support_set: RowSet::from_ids(5, [0]),
            sup: 1,
            neg_sup: 0,
            class: 0,
            n_rows: 5,
            n_class: 3,
        };
        let s = format!("{}", g.display(&data));
        assert!(s.contains("-> c0"), "{s}");
        assert!(s.starts_with("{a}"), "{s}");
    }
}
