//! Micro-bench: FVMine (Algorithm 1) on realistic RWR vector groups.

use criterion::{criterion_group, criterion_main, Criterion};
use graphsig_core::{compute_all_vectors, group_by_label};
use graphsig_datagen::aids_like;
use graphsig_features::{FeatureSet, RwrConfig};
use graphsig_fvmine::{FvMineConfig, FvMiner};

fn bench_fvmine(c: &mut Criterion) {
    let data = aids_like(150, 42);
    let fs = FeatureSet::for_chemical(&data.db, 5);
    let all = compute_all_vectors(&data.db, &fs, &RwrConfig::default(), 1);
    let groups = group_by_label(&all);
    // The carbon group is the largest — the FVMine stress case.
    let carbon = groups
        .iter()
        .max_by_key(|g| g.vectors.len())
        .expect("groups exist");

    let mut group = c.benchmark_group("fvmine/carbon_group");
    group.sample_size(10);
    // 0.001 is the paper's support (Table IV), where most supports are
    // small enough to be held as id lists rather than bitsets.
    for (min_sup_frac, max_p) in [(0.05, 0.1), (0.02, 0.1), (0.05, 0.01), (0.001, 0.1)] {
        let min_support = ((min_sup_frac * carbon.vectors.len() as f64).ceil() as usize).max(2);
        group.bench_function(&format!("sup{min_sup_frac}_p{max_p}"), |b| {
            b.iter(|| FvMiner::new(FvMineConfig::new(min_support, max_p)).mine(&carbon.vectors))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fvmine);
criterion_main!(benches);
