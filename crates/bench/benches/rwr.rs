//! Micro-bench: the RWR feature-extraction pass (Sec. II-C).
//!
//! Per Fig. 10, RWR is ~20% of GraphSig's cost and is independent of every
//! threshold — this bench tracks its per-molecule and per-database cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use graphsig_core::compute_all_vectors;
use graphsig_datagen::aids_like;
use graphsig_features::{graph_feature_vectors, FeatureSet, RwrConfig};

fn bench_rwr(c: &mut Criterion) {
    let data = aids_like(200, 42);
    let fs = FeatureSet::for_chemical(&data.db, 5);
    let rwr = RwrConfig::default();

    c.bench_function("rwr/single_molecule", |b| {
        let g = data.db.graph(0);
        b.iter(|| graph_feature_vectors(g, &fs, &rwr))
    });

    let mut group = c.benchmark_group("rwr/database_200");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter_batched(
            || (),
            |_| compute_all_vectors(&data.db, &fs, &rwr, 1),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("threads_4", |b| {
        b.iter_batched(
            || (),
            |_| compute_all_vectors(&data.db, &fs, &rwr, 4),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_rwr);
criterion_main!(benches);
