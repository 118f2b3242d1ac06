//! Property test pinning the serving index to references built outside
//! it: the inverted-index `matches` equals a linear scan over every
//! group's derived rule, `classify` equals the first matching group in
//! classification-rank order, and at the offline threshold the class
//! equals `RuleListClassifier::from_ranked`'s prediction on the same
//! artifact.

use farmer_classify::{irg_rule, rule_cmp, RuleListClassifier, ScoredRule, IRG_FINGERPRINT_THETA};
use farmer_core::{canonical_sort, Farmer, MiningParams, RuleGroup};
use farmer_dataset::DatasetBuilder;
use farmer_serve::{Prediction, ShardedIndex};
use farmer_store::{read_artifact, ArtifactMeta, ArtifactWriter};
use farmer_support::check::prelude::*;
use rowset::IdList;
use std::io::Cursor;

/// Rows, then samples, over a shared item universe.
type Rows = Vec<(std::collections::BTreeSet<u32>, u32)>;
type Samples = Vec<std::collections::BTreeSet<u32>>;

fn arb_case() -> impl Strategy<Value = (Rows, Samples)> {
    (3usize..8, 3usize..10).prop_flat_map(|(n_rows, n_items)| {
        (
            collection::vec(
                (
                    collection::btree_set(0..n_items as u32, 1..n_items),
                    0u32..2,
                ),
                n_rows,
            ),
            collection::vec(collection::btree_set(0..n_items as u32, 0..n_items), 1..6),
        )
    })
}

/// Mines every class and round-trips the result through `.fgi` bytes,
/// so the index under test is fed exactly what production feeds it:
/// a loaded artifact, not in-process mining output.
fn artifact_of(rows: &Rows) -> farmer_store::Artifact {
    let mut b = DatasetBuilder::new(2);
    for (items, label) in rows {
        b.add_row(items.iter().copied(), *label);
    }
    let d = b.build();
    let mut groups: Vec<RuleGroup> = Vec::new();
    for class in 0..2 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(1))
                .mine(&d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    let meta = ArtifactMeta::from_dataset(&d);
    let mut buf = Cursor::new(Vec::new());
    let mut w = ArtifactWriter::new(&mut buf, &meta).unwrap();
    for g in &groups {
        w.write_group(g).unwrap();
    }
    w.finish().unwrap();
    read_artifact(&buf.into_inner()).unwrap()
}

check! {
    #![config(cases = 128)]

    /// Matching and classification equal their linear references for
    /// every θ, including θ = 1 (exact containment) and small θ (almost
    /// any overlap matches).
    #[test]
    fn index_equals_linear_scan_and_offline(
        (rows, samples) in arb_case(),
        theta_pct in select(vec![10usize, 50, 80, 100]),
    ) {
        let theta = theta_pct as f64 / 100.0;
        let artifact = artifact_of(&rows);
        let majority = artifact.meta.majority_class();
        let offline = RuleListClassifier::from_ranked(
            artifact.groups.iter().map(|g| irg_rule(g, IRG_FINGERPRINT_THETA)).collect(),
            majority,
        );
        let rules: Vec<ScoredRule> = artifact.groups.iter().map(|g| irg_rule(g, theta)).collect();
        let idx = ShardedIndex::build(artifact, theta);
        // every group id in classification-rank order: rule order,
        // ties by id
        let mut ranked: Vec<u32> = (0..rules.len() as u32).collect();
        ranked.sort_by(|&a, &b| rule_cmp(&rules[a as usize], &rules[b as usize]).then(a.cmp(&b)));
        for sample in &samples {
            let s = IdList::from_iter(sample.iter().copied());
            let naive: Vec<u32> = (0..rules.len() as u32)
                .filter(|&gi| rules[gi as usize].matches(&s))
                .collect();
            prop_assert_eq!(idx.matches(&s), naive, "theta {} sample {:?}", theta, sample);
            let expected = match ranked.iter().find(|&&gi| rules[gi as usize].matches(&s)) {
                Some(&gi) => Prediction {
                    class: idx.groups()[gi as usize].class,
                    group: Some(gi),
                },
                None => Prediction {
                    class: majority,
                    group: None,
                },
            };
            let got = idx.classify(&s);
            prop_assert_eq!(&got, &expected, "theta {} sample {:?}", theta, sample);
            if theta == IRG_FINGERPRINT_THETA {
                prop_assert_eq!(got.class, offline.predict(&s), "sample {:?}", sample);
            }
        }
    }
}
