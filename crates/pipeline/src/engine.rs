//! [`IncrementalMiner`]: keep the full harvest of closed rule groups
//! warm and refresh only what a row delta can touch.
//!
//! # The cache invariant
//!
//! After every [`apply_rows`](IncrementalMiner::apply_rows), the
//! per-class cache holds **exactly** the closed groups of the current
//! dataset that pass `min_sup` and the *raw* `min_conf` — nothing
//! else, with their exact support sets and counts. Everything the user
//! actually asked for (χ², footnote-3 extras, the effective confidence
//! tightened by lift/conviction, lower bounds, the interestingness
//! filter) is re-derived from the cache by [`groups`]
//! (IncrementalMiner::groups), because those judgements depend on the
//! class margins `n`/`m`, which every appended row moves.
//!
//! # Why a delta-restricted harvest is exact
//!
//! Closed groups are in bijection with distinct support sets `R(A)`.
//! Appending rows never removes a row, so for any itemset `A` whose
//! (new) support contains no delta row, `R(A)` — and therefore its
//! closure and counts — is byte-identical to before the delta. Those
//! cache entries are kept as-is (their `RowSet`s merely grow capacity).
//! Every closed group that is new or changed has a delta row in its
//! support, which is exactly the set the frontier-restricted search
//! emits (`Farmer::with_frontier` prunes subtrees that cannot reach a
//! frontier row and reports only groups a frontier row supports, and it
//! searches only the items some frontier row holds). The two halves
//! partition the closed set, so replacing the touched entries with the
//! restricted harvest restores the invariant.

use farmer_core::minelb::mine_lower_bounds;
use farmer_core::{
    canonical_sort, generality_order, keep_interesting, Engine, Farmer, MineStats, MiningParams,
    NoOpObserver, RuleGroup, Thresholds,
};
use farmer_dataset::{ClassLabel, Dataset};
use rowset::{IdList, RowSet};

/// One cached closed group: the closure, its support set in original
/// row ids, and the class-split counts. Margins are *not* cached —
/// they move with every delta and are re-read at assembly time.
///
/// `lower` memoizes `mine_lower_bounds` for the group, filled the
/// first time the assembly pass needs it. A cached list stays exact
/// across a delta unless some delta row contains one of the minimal
/// generators: appending rows only *adds* blockers (projections
/// `row ∩ upper` of rows outside the support — a row covering the
/// whole closure would have made the entry "touched" and dropped), so
/// the generator set can only shrink, and the minimal generators are
/// unchanged as long as every one of them escapes every new blocker.
/// If any minimal generator is swallowed by a delta row the list is
/// invalidated and recomputed on next use.
struct CachedGroup {
    upper: IdList,
    rows: RowSet,
    sup: usize,
    neg_sup: usize,
    lower: Option<Vec<IdList>>,
}

/// Puts a cache in [`generality_order`], the order step 7 judges
/// groups in, which `assemble` relies on. After a delta the retained
/// entries are still in order and only the refreshed ones are new, so
/// the (run-adaptive) stable sort costs little more than merging them
/// in.
fn sort_by_generality(cache: &mut [CachedGroup]) {
    cache.sort_by(|a, b| generality_order(&a.upper, &b.upper));
}

fn cache_entry(g: RuleGroup) -> CachedGroup {
    CachedGroup {
        upper: g.upper,
        rows: g.support_set,
        sup: g.sup,
        neg_sup: g.neg_sup,
        lower: None,
    }
}

/// The harvest runs cache on `min_sup` + raw `min_conf` only: χ² and
/// the extras depend on the margins, and the effective confidence is
/// ≥ the raw one, so the raw-threshold harvest is a superset of
/// whatever the assembly pass will accept later.
fn harvest_params(template: &MiningParams, class: ClassLabel) -> MiningParams {
    let mut p = template.clone();
    p.target_class = class;
    p.min_chi = 0.0;
    p.extra.clear();
    p.lower_bounds = false;
    p
}

/// An all-classes miner that absorbs appended rows without re-running
/// the full enumeration. [`new`](Self::new) pays one cold harvest per
/// class; each [`apply_rows`](Self::apply_rows) afterwards costs a
/// frontier-restricted search over the delta plus cache bookkeeping.
///
/// [`groups`](Self::groups) is pinned byte-identical (via
/// `dump_groups` after `canonical_sort`) to a cold
/// [`Farmer::mine`] over the merged dataset — the property tests in
/// `tests/incremental.rs` enforce this across delta sizes and
/// constraint mixes.
pub struct IncrementalMiner {
    data: Dataset,
    template: MiningParams,
    threads: usize,
    classes: Vec<ClassLabel>,
    caches: Vec<Vec<CachedGroup>>,
}

impl IncrementalMiner {
    /// Bootstraps the cache with a cold harvest of every class of
    /// `data`. `template.target_class` is ignored — the miner targets
    /// each class in turn, like the artifact build step does.
    ///
    /// `_engine` selects nothing: [`Engine`] has one variant. The
    /// argument stays because the benchmark harness under `perfbench/`
    /// passes it, and goes when that call does.
    pub fn new(data: Dataset, template: MiningParams, _engine: Engine, threads: usize) -> Self {
        let classes = (0..data.n_classes() as ClassLabel).collect();
        Self::for_classes(data, template, classes, threads)
    }

    /// Like [`new`](Self::new) but mining only `classes` — the shape
    /// `farmer mine --class <c> --save-irgs` produces, so a watch
    /// daemon can republish artifacts with the same class coverage.
    pub fn for_classes(
        data: Dataset,
        template: MiningParams,
        classes: Vec<ClassLabel>,
        threads: usize,
    ) -> Self {
        let caches = classes
            .iter()
            .map(|&class| {
                let mut cache: Vec<CachedGroup> = Farmer::new(harvest_params(&template, class))
                    .with_harvest(true)
                    .with_parallelism(threads)
                    .mine(&data)
                    .groups
                    .into_iter()
                    .map(cache_entry)
                    .collect();
                sort_by_generality(&mut cache);
                cache
            })
            .collect();
        IncrementalMiner {
            data,
            template,
            threads,
            classes,
            caches,
        }
    }

    /// The current (merged) dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Rows in the current dataset.
    pub fn n_rows(&self) -> usize {
        self.data.n_rows()
    }

    /// Absorbs `delta` (item ids and labels in the base dictionaries):
    /// merges the rows into the dataset, drops the cache entries a
    /// delta row supports, and re-discovers everything the delta can
    /// have changed with a frontier-restricted harvest. Rejects rows
    /// referencing unknown items or classes without touching any
    /// state.
    pub fn apply_rows(&mut self, delta: &[(IdList, ClassLabel)]) -> Result<(), String> {
        if delta.is_empty() {
            return Ok(());
        }
        let merged = self.data.appended(delta)?;
        let base = self.data.n_rows();
        let n_total = merged.n_rows();
        let frontier = RowSet::from_ids(n_total, base..n_total);
        // `covered(x)`: some delta row holds every item of `x`. The rows
        // go in as item bitsets, so a test costs a few lookups into `x`
        // instead of a merge against a whole row.
        let delta_rows: Vec<RowSet> = delta
            .iter()
            .map(|(items, _)| {
                RowSet::from_ids(self.data.n_items(), items.iter().map(|i| i as usize))
            })
            .collect();
        let covered = |x: &IdList| {
            delta_rows
                .iter()
                .any(|row| x.iter().all(|i| row.contains(i as usize)))
        };
        for (ci, &class) in self.classes.iter().enumerate() {
            let cache = &mut self.caches[ci];
            // An entry is touched iff some delta row supports its
            // closure — only then can its support set (and closure)
            // differ on the merged dataset.
            cache.retain(|g| !covered(&g.upper));
            for g in cache.iter_mut() {
                g.rows.grow(n_total);
                // A surviving entry keeps its memoized lower bounds
                // unless a delta row swallows one of its minimal
                // generators (see the `CachedGroup::lower` notes).
                let stale = g
                    .lower
                    .as_ref()
                    .is_some_and(|lows| lows.iter().any(covered));
                if stale {
                    g.lower = None;
                }
            }
            let refreshed = Farmer::new(harvest_params(&self.template, class))
                .with_harvest(true)
                .with_frontier(frontier.clone())
                .with_parallelism(self.threads)
                .mine(&merged);
            cache.extend(refreshed.groups.into_iter().map(cache_entry));
            sort_by_generality(cache);
        }
        self.data = merged;
        Ok(())
    }

    /// Assembles the user-facing rule groups from the cache, applying
    /// exactly the emission pipeline a cold mine would: thresholds
    /// against the current margins, the generality-order
    /// interestingness filter, then lower bounds for the survivors.
    /// Returned canonically sorted across all classes, ready for
    /// `save_artifact`.
    pub fn groups(&mut self) -> Vec<RuleGroup> {
        let n = self.data.n_rows();
        let mut all = Vec::new();
        for (ci, &class) in self.classes.iter().enumerate() {
            let mut params = self.template.clone();
            params.target_class = class;
            let m = self.data.class_count(class);
            all.extend(assemble(&mut self.caches[ci], &params, &self.data, n, m));
        }
        canonical_sort(&mut all);
        all
    }

    /// Cached closed groups per class (diagnostics).
    pub fn cache_sizes(&self) -> Vec<usize> {
        self.caches.iter().map(Vec::len).collect()
    }
}

/// Step 7 over the cache, as a cold mine's merge runs it: the same
/// [`Thresholds`] against the current margins, the same
/// [`keep_interesting`] over the generality order the cache is kept in,
/// and `mine_lower_bounds` for accepted groups only — memoized per
/// entry, since the lower bounds of an untouched, unblocked group
/// cannot move under appends.
fn assemble(
    cache: &mut [CachedGroup],
    params: &MiningParams,
    data: &Dataset,
    n: usize,
    m: usize,
) -> Vec<RuleGroup> {
    let thresholds = Thresholds::new(params, n, m);
    // candidates borrow their cache entries mutably, so an accepted
    // group can fill its lower-bound memo
    let cands: Vec<&mut CachedGroup> = cache
        .iter_mut()
        .filter(|g| thresholds.accept(g.sup, g.neg_sup).is_some())
        .collect();
    keep_interesting(
        cands,
        |g| (&g.upper, g.sup, g.neg_sup),
        &mut MineStats::default(),
        &mut NoOpObserver,
    )
    .into_iter()
    .map(|g| {
        // MineLB's blockers depend only on the *set* of row∩upper
        // projections, so running it in original row-id space
        // yields the same lower bounds the cold mine computes in
        // reordered space (canonical_sort normalizes list order).
        let lower = if params.lower_bounds {
            g.lower
                .get_or_insert_with(|| mine_lower_bounds(&g.upper, &g.rows, data))
                .clone()
        } else {
            Vec::new()
        };
        RuleGroup {
            upper: g.upper.clone(),
            lower,
            support_set: g.rows.clone(),
            sup: g.sup,
            neg_sup: g.neg_sup,
            class: params.target_class,
            n_rows: n,
            n_class: m,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::dump_groups;
    use farmer_dataset::paper_example;

    fn cold(data: &Dataset, template: &MiningParams) -> Vec<RuleGroup> {
        let mut all = Vec::new();
        for class in 0..data.n_classes() as ClassLabel {
            let mut p = template.clone();
            p.target_class = class;
            all.extend(Farmer::new(p).mine(data).groups);
        }
        canonical_sort(&mut all);
        all
    }

    #[test]
    fn bootstrap_matches_a_cold_mine_with_no_delta() {
        let data = paper_example();
        let template = MiningParams::new(0).min_sup(2);
        let mut inc = IncrementalMiner::new(data.clone(), template.clone(), Engine::Bitset, 1);
        let cold = cold(&data, &template);
        assert_eq!(dump_groups(&inc.groups()), dump_groups(&cold));
    }

    #[test]
    fn a_single_appended_row_matches_the_cold_remine() {
        let data = paper_example();
        let template = MiningParams::new(0).min_sup(1);
        let mut inc = IncrementalMiner::new(data.clone(), template.clone(), Engine::Bitset, 1);
        let delta = vec![(IdList::from_iter([0, 2, 4]), 1)];
        inc.apply_rows(&delta).unwrap();
        let merged = data.appended(&delta).unwrap();
        assert_eq!(inc.n_rows(), merged.n_rows());
        let cold = cold(&merged, &template);
        assert_eq!(dump_groups(&inc.groups()), dump_groups(&cold));
    }

    #[test]
    fn bad_delta_rows_are_rejected_without_corrupting_state() {
        let data = paper_example();
        let template = MiningParams::new(0);
        let mut inc = IncrementalMiner::new(data.clone(), template.clone(), Engine::Bitset, 1);
        let before = dump_groups(&inc.groups());
        let bad_item = IdList::from_iter([data.n_items() as u32]);
        assert!(inc.apply_rows(&[(bad_item, 0)]).is_err());
        let bad_class = (IdList::from_iter([0]), data.n_classes() as u32);
        assert!(inc.apply_rows(&[bad_class]).is_err());
        assert_eq!(
            dump_groups(&inc.groups()),
            before,
            "failed delta must be a no-op"
        );
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let data = paper_example();
        let mut inc = IncrementalMiner::new(data, MiningParams::new(0), Engine::Bitset, 1);
        let before = dump_groups(&inc.groups());
        inc.apply_rows(&[]).unwrap();
        assert_eq!(dump_groups(&inc.groups()), before);
    }
}
