//! Micro-bench: the binomial p-value kernel (Eqns. 5–6), one beta
//! reduction whose continued fraction lengthens with `n`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use graphsig_stats::{betainc_regularized, binomial_tail_upper, ln_gamma};

fn bench_stats(c: &mut Criterion) {
    c.bench_function("pvalue/n50", |b| {
        b.iter(|| binomial_tail_upper(black_box(50), black_box(0.03), black_box(7)))
    });
    c.bench_function("pvalue/n5000", |b| {
        b.iter(|| binomial_tail_upper(black_box(5_000), black_box(0.003), black_box(40)))
    });
    c.bench_function("pvalue/n1e6", |b| {
        b.iter(|| binomial_tail_upper(black_box(1_000_000), black_box(0.01), black_box(10_200)))
    });
    c.bench_function("betainc/mid", |b| {
        b.iter(|| betainc_regularized(black_box(0.3), black_box(12.5), black_box(44.0)))
    });
    c.bench_function("ln_gamma", |b| b.iter(|| ln_gamma(black_box(12345.678))));
}

criterion_group!(benches, bench_stats);
criterion_main!(benches);
