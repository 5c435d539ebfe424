//! Full-pipeline determinism across thread counts.
//!
//! The parallel executor must be invisible in the output: for any worker
//! count, `GraphSig::mine` must return byte-identical subgraphs (codes,
//! gids, p-values) and identical run counters. This pins the index-ordered
//! merge invariant of `graphsig_core::par` end to end, including the
//! `Prepared`-reuse path.

use graphsig_core::{Budget, GraphSig, GraphSigConfig, GraphSigResult};
use graphsig_datagen::aids_like;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};
use proptest::{proptest, ProptestConfig};

fn cfg(threads: usize) -> GraphSigConfig {
    GraphSigConfig {
        min_freq: 0.1,
        max_pvalue: 0.05,
        radius: 4,
        threads,
        max_pattern_edges: 12,
        max_patterns_per_set: 5_000,
        ..Default::default()
    }
}

/// Assert two results are identical in everything the user can observe.
fn assert_identical(a: &GraphSigResult, b: &GraphSigResult, what: &str) {
    assert_eq!(a.subgraphs.len(), b.subgraphs.len(), "{what}: answer count");
    for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
        assert_eq!(x.code, y.code, "{what}: code order/content");
        assert_eq!(x.gids, y.gids, "{what}: supporting gids");
        assert_eq!(x.vector_support, y.vector_support, "{what}: support");
        assert_eq!(x.fsm_support, y.fsm_support, "{what}: fsm support");
        assert_eq!(x.group_label, y.group_label, "{what}: group label");
        assert_eq!(x.set_size, y.set_size, "{what}: set size");
        assert!(
            (x.vector_pvalue - y.vector_pvalue).abs() < 1e-15,
            "{what}: p-value"
        );
    }
    assert_eq!(a.stats.vectors, b.stats.vectors, "{what}: stats.vectors");
    assert_eq!(a.stats.groups, b.stats.groups, "{what}: stats.groups");
    assert_eq!(
        a.stats.significant_vectors, b.stats.significant_vectors,
        "{what}: stats.significant_vectors"
    );
    assert_eq!(
        a.stats.region_sets, b.stats.region_sets,
        "{what}: stats.region_sets"
    );
    assert_eq!(a.stats.regions, b.stats.regions, "{what}: stats.regions");
    assert_eq!(
        a.stats.pruned_sets, b.stats.pruned_sets,
        "{what}: stats.pruned_sets"
    );
    assert_eq!(
        a.stats.truncated_sets, b.stats.truncated_sets,
        "{what}: stats.truncated_sets"
    );
}

#[test]
fn mine_is_identical_for_any_thread_count() {
    let data = aids_like(250, 2009);
    let db = data.active_subset();
    let baseline = GraphSig::new(cfg(1)).mine(&db);
    assert!(
        !baseline.subgraphs.is_empty(),
        "workload must actually mine something for the test to mean anything"
    );
    for threads in [2, 4, 8] {
        let r = GraphSig::new(cfg(threads)).mine(&db);
        assert_identical(&baseline, &r, &format!("threads={threads}"));
    }
}

/// Assert two mined pattern lists are byte-identical.
fn assert_patterns_identical(a: &[Pattern], b: &[Pattern], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: pattern count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.code, y.code, "{what}: code order/content");
        assert_eq!(x.support, y.support, "{what}: support");
        assert_eq!(x.gids, y.gids, "{what}: gids");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on arbitrary generated databases, both baseline miners
    /// produce byte-identical pattern lists at every thread count —
    /// including with a `max_patterns` cap, the trickiest merge path.
    #[test]
    fn baseline_miners_identical_for_any_thread_count(
        n in 10usize..40,
        seed in proptest::any::<u64>(),
    ) {
        let db = aids_like(n, seed).db;
        let support = (n / 5).max(2);

        let gspan_cfg = MinerConfig::new(support)
            .with_max_edges(6)
            .with_max_patterns(500);
        let gspan_seq = GSpan::new(gspan_cfg.clone()).mine(&db);
        let fsg_cfg = FsgConfig::new(support)
            .with_max_edges(5)
            .with_max_patterns(500);
        let fsg_seq = Fsg::new(fsg_cfg.clone()).mine(&db);

        for threads in [2usize, 4, 8] {
            let g = GSpan::new(gspan_cfg.clone().with_threads(threads)).mine(&db);
            assert_patterns_identical(
                &gspan_seq,
                &g,
                &format!("gSpan n={n} seed={seed} threads={threads}"),
            );
            let f = Fsg::new(fsg_cfg.clone().with_threads(threads)).mine(&db);
            assert_patterns_identical(
                &fsg_seq,
                &f,
                &format!("FSG n={n} seed={seed} threads={threads}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: a *step-budget-truncated* run is still byte-identical at
    /// every thread count, for both baseline miners. The budget allowance
    /// is per independent work unit, so exhaustion is a property of the
    /// unit, not of the schedule.
    #[test]
    fn budget_truncated_baselines_identical_for_any_thread_count(
        n in 10usize..30,
        seed in proptest::any::<u64>(),
        max_steps in 0u64..60,
    ) {
        let db = aids_like(n, seed).db;
        let support = (n / 5).max(2);

        let gspan_cfg = MinerConfig::new(support)
            .with_max_edges(6)
            .with_max_patterns(500)
            .with_budget(Budget::unlimited().with_max_steps(max_steps));
        let gspan_seq = GSpan::new(gspan_cfg.clone()).mine_outcome(&db);
        let fsg_cfg = FsgConfig::new(support)
            .with_max_edges(5)
            .with_max_patterns(500)
            .with_budget(Budget::unlimited().with_max_steps(max_steps));
        let fsg_seq = Fsg::new(fsg_cfg.clone()).mine_outcome(&db);

        for threads in [2usize, 4, 8] {
            let g = GSpan::new(gspan_cfg.clone().with_threads(threads)).mine_outcome(&db);
            assert_eq!(
                gspan_seq.completion, g.completion,
                "gSpan n={n} seed={seed} steps={max_steps} threads={threads}: completion"
            );
            assert_patterns_identical(
                &gspan_seq.result,
                &g.result,
                &format!("gSpan n={n} seed={seed} steps={max_steps} threads={threads}"),
            );
            let f = Fsg::new(fsg_cfg.clone().with_threads(threads)).mine_outcome(&db);
            assert_eq!(
                fsg_seq.completion, f.completion,
                "FSG n={n} seed={seed} steps={max_steps} threads={threads}: completion"
            );
            assert_patterns_identical(
                &fsg_seq.result,
                &f.result,
                &format!("FSG n={n} seed={seed} steps={max_steps} threads={threads}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: the *whole pipeline*, truncated by a step budget, is
    /// byte-identical at every thread count — completion reason included.
    #[test]
    fn budget_truncated_pipeline_identical_for_any_thread_count(
        n in 10usize..25,
        seed in proptest::any::<u64>(),
        max_steps in 0u64..40,
    ) {
        let db = aids_like(n, seed).db;
        let governed = |threads: usize| {
            let c = cfg(threads).with_budget(Budget::unlimited().with_max_steps(max_steps));
            GraphSig::new(c).mine_outcome(&db)
        };
        let baseline = governed(1);
        for threads in [2usize, 4, 8] {
            let r = governed(threads);
            assert_eq!(
                baseline.completion, r.completion,
                "pipeline n={n} seed={seed} steps={max_steps} threads={threads}: completion"
            );
            assert_identical(
                &baseline.result,
                &r.result,
                &format!("pipeline n={n} seed={seed} steps={max_steps} threads={threads}"),
            );
        }
    }
}

#[test]
fn injected_panic_yields_structured_error_at_every_thread_count() {
    // A panicking task must surface as a structured `TaskPanicked` (with
    // the deterministic lowest failing index), not abort the process —
    // and the executor must stay usable afterwards.
    for threads in [1usize, 2, 4, 8] {
        let err = graphsig_core::try_par_map_range(threads, 64, |i| {
            if i == 17 || i == 40 {
                panic!("injected fault at {i}");
            }
            i * 2
        })
        .unwrap_err();
        assert_eq!(err.index, 17, "threads={threads}: first panicking index");
        assert!(
            err.message.contains("injected fault at 17"),
            "threads={threads}: payload lost: {}",
            err.message
        );
        let ok = graphsig_core::try_par_map_range(threads, 8, |i| i).unwrap();
        assert_eq!(
            ok,
            (0..8).collect::<Vec<_>>(),
            "threads={threads}: executor unusable after panic"
        );
    }
}

#[test]
fn packed_store_mines_byte_identical_to_text_at_any_thread_count() {
    // The durable store must be invisible too: mining a database loaded
    // from a packed+sharded store must render the exact bytes of mining
    // the same database loaded from text — at every thread count. This is
    // the end-to-end guarantee that the manifest's global label table
    // reproduces the text parse's interning order.
    use graphsig_graph::{parse_transactions, write_transactions};

    let db = aids_like(120, 77).db;
    let text = write_transactions(&db);
    let db_text = parse_transactions(&text).expect("text roundtrip parses");

    let dir = std::env::temp_dir().join(format!(
        "graphsig_parallel_det_store_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    graphsig_store::pack(&dir, &db_text, 16).expect("pack");
    let opened = graphsig_store::open_strict(&dir).expect("open");
    std::fs::remove_dir_all(&dir).ok();
    assert!(opened.shards.len() > 1, "test needs a sharded store");

    let baseline = GraphSig::new(cfg(1)).mine(&db_text);
    let baseline_bytes = graphsig_core::render_subgraphs(&db_text, &baseline, usize::MAX);
    assert!(
        !baseline.subgraphs.is_empty(),
        "workload must actually mine something for the test to mean anything"
    );
    for threads in [1, 2, 4, 8] {
        let r = GraphSig::new(cfg(threads)).mine(&opened.db);
        assert_identical(&baseline, &r, &format!("packed threads={threads}"));
        assert_eq!(
            graphsig_core::render_subgraphs(&opened.db, &r, usize::MAX),
            baseline_bytes,
            "packed-store mine output differs from text at threads={threads}"
        );
    }
}

#[test]
fn prepared_reuse_is_identical_across_thread_counts() {
    // The RWR pass is computed once under one thread count and the rest of
    // the pipeline re-run under others — mixing `prepare` and
    // `mine_prepared` parallelism must not change the answers either.
    let data = aids_like(250, 2009);
    let db = data.active_subset();
    let baseline = GraphSig::new(cfg(1)).mine(&db);

    let prepared = GraphSig::new(cfg(4)).prepare(&db);
    for threads in [1, 2, 8] {
        let r = GraphSig::new(cfg(threads)).mine_prepared(&db, &prepared);
        assert_identical(
            &baseline,
            &r,
            &format!("prepared(4) + mine_prepared({threads})"),
        );
    }
}
