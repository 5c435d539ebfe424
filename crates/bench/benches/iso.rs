//! Micro-bench: subgraph isomorphism and canonical codes — the graph-space
//! primitives behind support counting, dedup, and maximality filtering.

use criterion::{criterion_group, criterion_main, Criterion};
use graphsig_datagen::{aids_like, motifs, standard_alphabet};
use graphsig_graph::iso::contains;
use graphsig_gspan::min_dfs_code;

fn bench_iso(c: &mut Criterion) {
    let data = aids_like(100, 42);
    let alphabet = standard_alphabet();
    let azt = motifs::azt_like(&alphabet);
    let benzene = motifs::benzene(&alphabet);

    c.bench_function("contains/motif_scan_100_molecules", |b| {
        b.iter(|| {
            data.db
                .graphs()
                .iter()
                .filter(|g| contains(g, &azt))
                .count()
        })
    });
    c.bench_function("contains/benzene_scan_100_molecules", |b| {
        b.iter(|| {
            data.db
                .graphs()
                .iter()
                .filter(|g| contains(g, &benzene))
                .count()
        })
    });
    c.bench_function("min_dfs_code/molecule", |b| {
        let g = data.db.graph(0);
        b.iter(|| min_dfs_code(g))
    });
    c.bench_function("min_dfs_code/motif", |b| b.iter(|| min_dfs_code(&azt)));
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_iso
);
criterion_main!(benches);
