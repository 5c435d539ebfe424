//! Micro-bench: the RWR feature-extraction pass (Sec. II-C).
//!
//! The pass is independent of every mining threshold. This bench tracks its
//! cost per molecule, per database, and on one large graph, where a
//! per-node cost that grows with the graph's size would show.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use graphsig_core::compute_all_vectors;
use graphsig_datagen::aids_like;
use graphsig_features::{graph_feature_vectors, FeatureSet, RwrConfig};
use graphsig_graph::{GraphBuilder, GraphDb};

/// One graph of `rings` six-rings (five C and one N each, aromatic bonds),
/// each bonded to the next by a single bond: 6 · `rings` nodes.
fn ring_chain(rings: u32) -> GraphDb {
    let mut b = GraphBuilder::new();
    for r in 0..rings {
        let base = 6 * r;
        for k in 0..6 {
            b.add_node(u16::from(k == 2));
        }
        for k in 0..6 {
            b.add_edge(base + k, base + (k + 1) % 6, 0);
        }
        if r > 0 {
            b.add_edge(base - 3, base, 1);
        }
    }
    let mut db = GraphDb::new();
    db.push(b.build());
    db
}

fn bench_rwr(c: &mut Criterion) {
    let data = aids_like(200, 42);
    let fs = FeatureSet::for_chemical(&data.db, 5);
    let rwr = RwrConfig::default();

    c.bench_function("rwr/single_molecule", |b| {
        let g = data.db.graph(0);
        b.iter(|| graph_feature_vectors(g, &fs, &rwr))
    });

    let chain = ring_chain(500);
    let chain_fs = FeatureSet::for_chemical(&chain, 5);
    c.bench_function("rwr/ring_chain_3000_nodes", |b| {
        b.iter(|| graph_feature_vectors(chain.graph(0), &chain_fs, &rwr))
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
