//! The serving index: one inverted item → group posting table and a
//! precomputed classification ranking, built once from a loaded
//! artifact.
//!
//! `postings[item]` lists, in ascending order, the ids of the groups
//! whose upper bound contains `item`, so a `matches` pass is one
//! counting walk over the posting lists the sample touches. The
//! classification rank is computed once over every group; the property
//! in `tests/index_props.rs` pins `matches` to the linear scan and
//! `classify` to the offline rule-list classifier.

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
    theta: f64,
    /// Per group: counter value meeting the threshold.
    thresholds: Vec<u32>,
    /// Per group: classification rank (lower wins).
    rank: Vec<u32>,
    /// `postings[item]` = ascending ids of the groups whose upper
    /// bound contains `item`.
    postings: Vec<Vec<u32>>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("groups", &self.groups.len())
            .field("theta", &self.theta)
            .finish_non_exhaustive()
    }
}

impl ShardedIndex {
    /// Builds the index with an explicit `theta ∈ (0, 1]`.
    pub fn build(artifact: Artifact, theta: f64) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        let Artifact { meta, groups, .. } = artifact;
        // An empty upper bound has no postings, so it is never touched
        // and its threshold is never read.
        let thresholds = groups
            .iter()
            .map(|g| smallest_meeting(theta, g.upper.len()))
            .collect();

        // The derived rules live only as long as the ranking needs them.
        let rank = {
            let rules: Vec<ScoredRule> = groups.iter().map(|g| irg_rule(g, theta)).collect();
            let mut order: Vec<u32> = (0..groups.len() as u32).collect();
            order
                .sort_by(|&a, &b| rule_cmp(&rules[a as usize], &rules[b as usize]).then(a.cmp(&b)));
            let mut rank = vec![0u32; groups.len()];
            for (pos, &gi) in order.iter().enumerate() {
                rank[gi as usize] = pos as u32;
            }
            rank
        };

        let mut postings = vec![Vec::new(); meta.n_items()];
        for (gi, g) in groups.iter().enumerate() {
            for item in g.upper.iter() {
                postings[item as usize].push(gi as u32);
            }
        }

        ShardedIndex {
            meta,
            groups,
            theta,
            thresholds,
            rank,
            postings,
        }
    }

    /// Builds with the offline IRG threshold ([`IRG_FINGERPRINT_THETA`]).
    pub fn from_artifact(artifact: Artifact) -> Self {
        Self::build(artifact, IRG_FINGERPRINT_THETA)
    }

    /// The artifact's dataset metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The indexed groups, in artifact order.
    pub fn groups(&self) -> &[RuleGroup] {
        &self.groups
    }

    /// The fractional containment threshold the index was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Total posting-list entries — one per (item, group) incidence,
    /// the dominant index memory term. Surfaced by
    /// `GET /v1/admin/stats`.
    pub fn postings_entries(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// All groups covering `sample`, as sorted ids.
    pub fn matches(&self, sample: &IdList) -> Vec<u32> {
        let mut counts = vec![0u32; self.groups.len()];
        let mut touched = Vec::new();
        for item in sample.iter() {
            let Some(posting) = self.postings.get(item as usize) else {
                continue;
            };
            for &gi in posting {
                if counts[gi as usize] == 0 {
                    touched.push(gi);
                }
                counts[gi as usize] += 1;
            }
        }
        touched.retain(|&gi| counts[gi as usize] >= self.thresholds[gi as usize]);
        touched.sort_unstable();
        touched
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
    use farmer_store::VERSION;

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
            version: VERSION,
        }
    }

    #[test]
    fn matches_equals_linear_scan() {
        let art = small_artifact();
        let rules: Vec<ScoredRule> = art
            .groups
            .iter()
            .map(|g| irg_rule(g, IRG_FINGERPRINT_THETA))
            .collect();
        let idx = ShardedIndex::from_artifact(art);
        for sample in [vec![], vec![0], vec![0, 1], vec![0, 1, 2, 3], vec![3]] {
            let s = IdList::from_iter(sample.iter().copied());
            let naive: Vec<u32> = (0..rules.len() as u32)
                .filter(|&gi| rules[gi as usize].matches(&s))
                .collect();
            assert_eq!(idx.matches(&s), naive, "{sample:?}");
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
}
