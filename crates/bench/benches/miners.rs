//! Micro-bench: gSpan vs FSG on a fixed workload (Fig. 2's engines), and
//! the ablation between the two `MaximalFSM` backends of Algorithm 2.

use criterion::{criterion_group, criterion_main, Criterion};
use graphsig_datagen::aids_like;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_gspan::{GSpan, MinerConfig};

fn bench_miners(c: &mut Criterion) {
    let data = aids_like(150, 42);
    let mut group = c.benchmark_group("miners/aids150");
    group.sample_size(10);
    for freq in [0.10, 0.05] {
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        group.bench_function(&format!("gspan_freq{freq}"), |b| {
            b.iter(|| GSpan::new(MinerConfig::new(support).with_max_edges(8)).mine(&data.db))
        });
        group.bench_function(&format!("fsg_freq{freq}"), |b| {
            b.iter(|| Fsg::new(FsgConfig::new(support).with_max_edges(8)).mine(&data.db))
        });
    }
    group.finish();

    // Maximal mining on a homogeneous region-like set — the Algorithm 2
    // hot loop (high threshold, similar graphs).
    let actives = data.active_subset();
    let support = ((0.8 * actives.len() as f64).ceil() as usize).max(2);
    let mut group = c.benchmark_group("maximal_fsm/actives");
    group.sample_size(10);
    group.bench_function("fsg", |b| {
        b.iter(|| Fsg::new(FsgConfig::new(support).with_max_edges(10)).mine_maximal(&actives))
    });
    group.bench_function("gspan", |b| {
        b.iter(|| GSpan::new(MinerConfig::new(support).with_max_edges(10)).mine_maximal(&actives))
    });
    group.finish();
}

criterion_group!(benches, bench_miners);
criterion_main!(benches);
