//! Micro-bench: classifier scoring paths — GraphSig's per-query cost vs
//! one OA kernel evaluation (the per-pair unit that makes OA(3X) explode).

use criterion::{criterion_group, criterion_main, Criterion};
use graphsig_classify::{oa::oa_kernel, GraphSigClassifier, KnnConfig, OaConfig};
use graphsig_core::GraphSigConfig;
use graphsig_datagen::aids_like;

fn bench_classifier(c: &mut Criterion) {
    let data = aids_like(300, 42);
    let pos = data.db.subset(&data.active_ids());
    let inactive = data.inactive_ids();
    let neg = data.db.subset(&inactive[..pos.len().min(inactive.len())]);
    let clf = GraphSigClassifier::train(
        &pos,
        &neg,
        KnnConfig {
            mining: GraphSigConfig {
                min_freq: 0.05,
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let query = data.db.graph(0);

    c.bench_function("classify/graphsig_score_one_query", |b| {
        b.iter(|| clf.score(query))
    });

    let g1 = data.db.graph(1);
    let g2 = data.db.graph(2);
    let oa_cfg = OaConfig::default();
    c.bench_function("classify/oa_kernel_one_pair", |b| {
        b.iter(|| oa_kernel(g1, g2, &oa_cfg))
    });
}

criterion_group!(benches, bench_classifier);
criterion_main!(benches);
