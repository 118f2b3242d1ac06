//! Serving-layer benchmarks: the rule-group index `farmer serve`
//! answers from, against the naive linear scan it replaces, on
//! artifacts round-tripped through the `.fgi` format exactly as `farmer
//! serve` loads them.

use farmer_classify::{irg_rule, RuleListClassifier, ScoredRule, IRG_FINGERPRINT_THETA};
use farmer_core::{canonical_sort, Farmer, MiningParams, RuleGroup};
use farmer_dataset::discretize::Discretizer;
use farmer_dataset::synth::SynthConfig;
use farmer_serve::ShardedIndex;
use farmer_store::{read_artifact, Artifact, ArtifactMeta, ArtifactWriter};
use farmer_support::bench::{BenchmarkId, Criterion};
use farmer_support::rng::{Rng, SeedableRng, StdRng};
use farmer_support::{criterion_group, criterion_main};
use rowset::IdList;
use std::io::Cursor;
use std::time::Duration;

/// Mines both classes of a synthetic microarray matrix and round-trips
/// the groups through `.fgi` bytes, so the benchmarked index is built
/// from exactly what production hands it: a loaded artifact.
fn mined_artifact(n_rows: usize, n_genes: usize, min_sup: usize) -> Artifact {
    let m = SynthConfig {
        n_rows,
        n_genes,
        n_class1: n_rows / 2,
        n_signature: n_genes / 5,
        ..Default::default()
    }
    .generate();
    let d = Discretizer::EqualDepth { buckets: 4 }.discretize(&m);
    let mut groups: Vec<RuleGroup> = Vec::new();
    for class in 0..2 {
        groups.extend(
            Farmer::new(MiningParams::new(class).min_sup(min_sup))
                .mine(&d)
                .groups,
        );
    }
    canonical_sort(&mut groups);
    let meta = ArtifactMeta::from_dataset(&d);
    let mut buf = Cursor::new(Vec::new());
    let mut w = ArtifactWriter::new(&mut buf, &meta).expect("write header");
    for g in &groups {
        w.write_group(g).expect("write group");
    }
    w.finish().expect("finish artifact");
    read_artifact(&buf.into_inner()).expect("read artifact back")
}

/// Random query samples drawn from the artifact's item universe.
fn samples(meta: &ArtifactMeta, n: usize, len: usize, seed: u64) -> Vec<IdList> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            IdList::from_iter(
                (0..len)
                    .map(|_| rng.gen_range(0..meta.n_items() as u32))
                    .collect::<std::collections::BTreeSet<_>>(),
            )
        })
        .collect()
}

fn match_and_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, rows, genes, min_sup) in [("small", 20, 60, 3), ("wide", 30, 200, 5)] {
        let artifact = mined_artifact(rows, genes, min_sup);
        let rules: Vec<ScoredRule> = artifact
            .groups
            .iter()
            .map(|g| irg_rule(g, IRG_FINGERPRINT_THETA))
            .collect();
        let offline =
            RuleListClassifier::from_ranked(rules.clone(), artifact.meta.majority_class());
        let queries = samples(&artifact.meta, 64, 12, 7);
        let idx = ShardedIndex::from_artifact(artifact);

        group.bench_with_input(
            BenchmarkId::new("index_match", name),
            &(&idx, &queries),
            |b, (idx, queries)| {
                b.iter(|| queries.iter().map(|s| idx.matches(s).len()).sum::<usize>());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("linear_match", name),
            &(&rules, &queries),
            |b, (rules, queries)| {
                b.iter(|| {
                    queries
                        .iter()
                        .map(|s| rules.iter().filter(|r| r.matches(s)).count())
                        .sum::<usize>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("index_classify", name),
            &(&idx, &queries),
            |b, (idx, queries)| {
                b.iter(|| {
                    queries
                        .iter()
                        .map(|s| idx.classify(s).class as u64)
                        .sum::<u64>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("offline_classify", name),
            &(&offline, &queries),
            |b, (offline, queries)| {
                b.iter(|| {
                    queries
                        .iter()
                        .map(|s| offline.predict(s) as u64)
                        .sum::<u64>()
                });
            },
        );
    }
    group.finish();
}

fn index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let artifact = mined_artifact(30, 200, 5);
    group.bench_function("index_build_wide", |b| {
        b.iter(|| ShardedIndex::from_artifact(artifact.clone()).groups().len());
    });
    group.finish();
}

criterion_group!(benches, match_and_classify, index_build);
criterion_main!(benches);
