//! The serving index: inverted item → group posting lists,
//! hash-partitioned across shards, with per-class partitions and a
//! precomputed classification ranking, built once from a loaded
//! artifact.
//!
//! Shard `s` of `S` owns every group `gi` with `gi % S == s`, under a
//! *local* id `gi / S`. Each shard carries its own item→group posting
//! lists restricted to its groups, so a `matches` pass touches one
//! shard's postings and a counter array sized to that shard's group
//! count, and the gather step merges the per-shard sorted hit lists
//! back into global ids. Classification ranks (`rank`, `by_class`) are
//! computed once, globally, *before* partitioning, so sharding cannot
//! perturb tie-breaking: the property in `tests/index_props.rs` pins
//! every shard count to the linear scan and to the offline rule-list
//! classifier.
//!
//! Shards are built in parallel (one thread per shard via
//! `farmer_support::thread::scope`), which is where artifact reloads
//! win: a hot swap rebuilds the index across the pool instead of on
//! one core.

use farmer_classify::{irg_rule, rule_cmp, ScoredRule, IRG_FINGERPRINT_THETA};
use farmer_core::RuleGroup;
use farmer_dataset::ClassLabel;
use farmer_store::{Artifact, ArtifactMeta};
use rowset::IdList;

/// The serving layer's answer to `classify(sample)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted class.
    pub class: ClassLabel,
    /// The winning group (an index into [`ShardedIndex::groups`]), or
    /// `None` when no group matched and the majority-class fallback
    /// answered.
    pub group: Option<u32>,
}

/// The smallest count `k` with `k ≥ θ·len` under the exact `f64`
/// comparison `ScoredRule::matches` performs — so the counting index
/// and the fractional matcher agree even when `θ·len` sits on a
/// rounding boundary.
fn smallest_meeting(theta: f64, len: usize) -> u32 {
    (0..=len as u32)
        .find(|&k| k as f64 >= theta * len as f64)
        .unwrap_or(len as u32)
}

/// One shard per available core, capped at 8 — posting lists stop
/// shrinking usefully beyond that on mined workloads.
pub(crate) fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One shard's inverted postings over its slice of the groups.
struct Shard {
    /// `postings[item]` = sorted *local* ids of owned groups whose
    /// upper bound contains `item`.
    postings: Vec<Vec<u32>>,
    /// Number of groups this shard owns.
    n_local: usize,
}

impl Shard {
    /// Builds the shard owning `gi % n_shards == s`.
    fn build(groups: &[RuleGroup], n_items: usize, s: usize, n_shards: usize) -> Shard {
        let mut postings = vec![Vec::new(); n_items];
        let mut n_local = 0;
        for (gi, g) in groups.iter().enumerate().skip(s).step_by(n_shards) {
            let local = (gi / n_shards) as u32;
            n_local = local as usize + 1;
            for item in g.upper.iter() {
                postings[item as usize].push(local);
            }
        }
        Shard { postings, n_local }
    }

    /// Local ids of owned groups covering `sample`, ascending.
    /// `threshold(local)` gives the counter value at which the group's
    /// fractional containment is met.
    fn matches(&self, sample: &IdList, threshold: impl Fn(u32) -> u32) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_local];
        let mut touched = Vec::new();
        for item in sample.iter() {
            let Some(posting) = self.postings.get(item as usize) else {
                continue;
            };
            for &local in posting {
                if counts[local as usize] == 0 {
                    touched.push(local);
                }
                counts[local as usize] += 1;
            }
        }
        touched.retain(|&local| counts[local as usize] >= threshold(local));
        touched.sort_unstable();
        touched
    }
}

/// An immutable index over the rule groups of one artifact.
///
/// `matches` runs over inverted posting lists: for each item the sample
/// carries, bump a counter on every group whose upper bound contains
/// that item; a group matches when its counter reaches the fractional
/// containment threshold `⌈θ·|upper|⌉`. Work is proportional to the
/// posting lists the sample actually touches — groups sharing no item
/// with the sample are never looked at, unlike a linear scan.
///
/// `classify` is the first-matching-rule prediction of
/// `farmer_classify::RuleListClassifier::from_ranked` over the same
/// groups: the matching group whose derived rule ranks first under
/// [`farmer_classify::rule_cmp`] wins; the artifact's majority class
/// answers when nothing matches.
pub struct ShardedIndex {
    meta: ArtifactMeta,
    groups: Vec<RuleGroup>,
    rules: Vec<ScoredRule>,
    theta: f64,
    /// Per group (global id): counter value meeting the threshold.
    thresholds: Vec<u32>,
    /// Per group (global id): classification rank (lower wins).
    rank: Vec<u32>,
    /// Per class: group ids in classification-rank order.
    by_class: Vec<Vec<u32>>,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("groups", &self.groups.len())
            .field("shards", &self.shards.len())
            .field("theta", &self.theta)
            .finish_non_exhaustive()
    }
}

impl ShardedIndex {
    /// Builds the index with an explicit `theta ∈ (0, 1]` and shard
    /// count (clamped to `[1, n_groups.max(1)]`).
    pub fn build(artifact: Artifact, theta: f64, n_shards: usize) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        let Artifact { meta, groups } = artifact;
        let n_shards = n_shards.clamp(1, groups.len().max(1));
        let rules: Vec<ScoredRule> = groups.iter().map(|g| irg_rule(g, theta)).collect();

        let thresholds: Vec<u32> = groups
            .iter()
            .map(|g| match g.upper.len() {
                0 => u32::MAX,
                len => smallest_meeting(theta, len),
            })
            .collect();

        // Global classification order first — partitioning must not be
        // able to perturb rank ties.
        let mut order: Vec<u32> = (0..groups.len() as u32).collect();
        order.sort_by(|&a, &b| rule_cmp(&rules[a as usize], &rules[b as usize]).then(a.cmp(&b)));
        let mut rank = vec![0u32; groups.len()];
        for (pos, &gi) in order.iter().enumerate() {
            rank[gi as usize] = pos as u32;
        }
        let mut by_class = vec![Vec::new(); meta.n_classes()];
        for &gi in &order {
            by_class[groups[gi as usize].class as usize].push(gi);
        }

        // Scatter the postings build across one thread per shard.
        let n_items = meta.n_items();
        let mut shards: Vec<Option<Shard>> = (0..n_shards).map(|_| None).collect();
        farmer_support::thread::scope(|scope| {
            for (s, slot) in shards.iter_mut().enumerate() {
                let groups = &groups;
                scope.spawn(move || *slot = Some(Shard::build(groups, n_items, s, n_shards)));
            }
        });
        let shards = shards
            .into_iter()
            .map(|s| s.expect("shard built"))
            .collect();

        ShardedIndex {
            meta,
            groups,
            rules,
            theta,
            thresholds,
            rank,
            by_class,
            shards,
        }
    }

    /// Builds with the offline IRG threshold
    /// ([`IRG_FINGERPRINT_THETA`]) and one shard per available core, up
    /// to 8.
    pub fn from_artifact(artifact: Artifact) -> Self {
        Self::build(artifact, IRG_FINGERPRINT_THETA, default_shards())
    }

    /// The artifact's dataset metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The indexed groups, in artifact order.
    pub fn groups(&self) -> &[RuleGroup] {
        &self.groups
    }

    /// The derived classification rules, parallel to [`groups`](Self::groups).
    pub fn rules(&self) -> &[ScoredRule] {
        &self.rules
    }

    /// The fractional containment threshold the index was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// How many shards the postings are partitioned into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total posting-list entries across every shard — one per
    /// (item, owning-group) incidence, the dominant index memory term.
    /// Surfaced by `GET /v1/admin/stats`.
    pub fn postings_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.postings.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Ids of the groups predicting `class`, best rank first.
    pub fn groups_for_class(&self, class: ClassLabel) -> &[u32] {
        self.by_class
            .get(class as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All groups covering `sample`, as sorted global ids: each shard
    /// scans its own postings (scatter), and the per-shard hit lists —
    /// already sorted in global order within a shard — merge back
    /// (gather).
    pub fn matches(&self, sample: &IdList) -> Vec<u32> {
        let n_shards = self.shards.len();
        let mut merged = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let hits = shard.matches(sample, |local| {
                self.thresholds[local as usize * n_shards + s]
            });
            merged.extend(
                hits.into_iter()
                    .map(|local| local * n_shards as u32 + s as u32),
            );
        }
        merged.sort_unstable();
        merged
    }

    /// Classifies `sample`: the best-ranked covering group's class, or
    /// the artifact's majority class when nothing covers it.
    pub fn classify(&self, sample: &IdList) -> Prediction {
        let best = self
            .matches(sample)
            .into_iter()
            .min_by_key(|&gi| self.rank[gi as usize]);
        match best {
            Some(gi) => Prediction {
                class: self.groups[gi as usize].class,
                group: Some(gi),
            },
            None => Prediction {
                class: self.meta.majority_class(),
                group: None,
            },
        }
    }

    /// Resolves item tokens to a sample [`IdList`]. Each token is
    /// looked up as an item name first, then as a numeric id; unknown
    /// tokens are returned (they cannot affect any match — the index
    /// only counts items in the dictionary).
    pub fn parse_sample<'t>(
        &self,
        tokens: impl IntoIterator<Item = &'t str>,
    ) -> (IdList, Vec<String>) {
        let mut ids = Vec::new();
        let mut unknown = Vec::new();
        for tok in tokens {
            if let Some(id) = self.meta.item_by_name(tok) {
                ids.push(id);
            } else if let Ok(id) = tok.parse::<u32>() {
                if (id as usize) < self.meta.n_items() {
                    ids.push(id);
                } else {
                    unknown.push(tok.to_string());
                }
            } else {
                unknown.push(tok.to_string());
            }
        }
        (IdList::from_iter(ids), unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{canonical_sort, Farmer, MiningParams};
    use farmer_dataset::DatasetBuilder;

    fn small_artifact() -> Artifact {
        let mut b = DatasetBuilder::new(2);
        b.add_row([0, 1, 2], 0);
        b.add_row([0, 1], 0);
        b.add_row([1, 2, 3], 1);
        b.add_row([0, 3], 1);
        let d = b.build();
        let mut groups = Vec::new();
        for class in 0..2 {
            groups.extend(
                Farmer::new(MiningParams::new(class).min_sup(1))
                    .mine(&d)
                    .groups,
            );
        }
        canonical_sort(&mut groups);
        Artifact {
            meta: ArtifactMeta::from_dataset(&d),
            groups,
        }
    }

    #[test]
    fn matches_equals_linear_scan() {
        for n_shards in [1, 2, 3, 7, 64] {
            let idx = ShardedIndex::build(small_artifact(), IRG_FINGERPRINT_THETA, n_shards);
            for sample in [vec![], vec![0], vec![0, 1], vec![0, 1, 2, 3], vec![3]] {
                let s = IdList::from_iter(sample.iter().copied());
                let naive: Vec<u32> = idx
                    .rules()
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.matches(&s))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(idx.matches(&s), naive, "{n_shards} shards, {sample:?}");
            }
        }
    }

    #[test]
    fn classify_falls_back_to_majority() {
        let idx = ShardedIndex::from_artifact(small_artifact());
        let p = idx.classify(&IdList::new());
        assert_eq!(p.group, None);
        assert_eq!(p.class, idx.meta().majority_class());
    }

    #[test]
    fn thresholds_honor_exact_fraction_boundaries() {
        // θ = 0.5 over 4 items: 2 of 4 meets 0.5·4 exactly.
        assert_eq!(smallest_meeting(0.5, 4), 2);
        // θ = 0.8 over 5 items: 4 = 0.8·5 exactly.
        assert_eq!(smallest_meeting(0.8, 5), 4);
        // θ = 0.8 over 4 items: 3.2 rounds up to 4.
        assert_eq!(smallest_meeting(0.8, 4), 4);
        assert_eq!(smallest_meeting(1.0, 3), 3);
    }

    #[test]
    fn parse_sample_names_ids_and_unknowns() {
        let art = small_artifact();
        let name2 = art.meta.item_names[2].clone();
        let idx = ShardedIndex::from_artifact(art);
        let (ids, unknown) = idx.parse_sample([name2.as_str(), "0", "nope", "99"]);
        assert_eq!(ids, IdList::from_iter([0, 2]));
        assert_eq!(unknown, vec!["nope".to_string(), "99".to_string()]);
    }

    #[test]
    fn class_partitions_cover_all_groups() {
        let idx = ShardedIndex::build(small_artifact(), 0.8, 3);
        let total: usize = (0..2).map(|c| idx.groups_for_class(c).len()).sum();
        assert_eq!(total, idx.groups().len());
        for c in 0..2u32 {
            assert!(idx
                .groups_for_class(c)
                .iter()
                .all(|&gi| idx.groups()[gi as usize].class == c));
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        let idx = ShardedIndex::build(small_artifact(), 0.8, 0);
        assert_eq!(idx.n_shards(), 1);
        let n = small_artifact().groups.len();
        let idx = ShardedIndex::build(small_artifact(), 0.8, 10 * n);
        assert!(idx.n_shards() <= n);
    }
}
