//! Property-based invariants across the workspace (proptest).
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use graphsig_features::{
    graph_feature_distributions, graph_feature_vectors, FeatureSet, RwrConfig,
};
use graphsig_fvmine::{ceiling_of, floor_of, is_sub_vector};
use graphsig_graph::invariant::certificate;
use graphsig_graph::{
    are_isomorphic, iso::contains, CompiledGraph, Graph, GraphBuilder, GraphDb, MatchOutcome,
    MultiMatcher,
};
use graphsig_gspan::{is_min, is_min_unpruned, min_dfs_code, min_dfs_code_unpruned};
use graphsig_integration::{
    brute_contains, brute_frequent_subgraphs, brute_isomorphic, reference_feature_distribution,
};
use graphsig_stats::{binomial_tail_upper, Binomial};

/// Strategy: a small random connected labeled graph (tree + extra edges).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..9, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            let label = next(4) as u16;
            b.add_node(label);
        }
        // Spanning tree.
        let mut edges = std::collections::HashSet::new();
        for i in 1..n as u32 {
            let parent = next(i as u64) as u32;
            b.add_edge(parent, i, next(3) as u16);
            edges.insert((parent.min(i), parent.max(i)));
        }
        // A few extra edges.
        for _ in 0..next(3) {
            let u = next(n as u64) as u32;
            let v = next(n as u64) as u32;
            if u != v && !edges.contains(&(u.min(v), u.max(v))) {
                edges.insert((u.min(v), u.max(v)));
                b.add_edge(u, v, next(3) as u16);
            }
        }
        b.build()
    })
}

/// A small random connected graph built directly from an LCG seed (for
/// tests that need several graphs per proptest case): a random tree over
/// two node and two edge labels plus up to `extra_edges` cycle-closing
/// edges. Few labels make containment and frequent patterns common.
fn lcg_graph(seed: u64, extra_edges: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let n = 2 + next(7) as usize;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let label = next(2) as u16;
        b.add_node(label);
    }
    let mut edges = std::collections::HashSet::new();
    for i in 1..n as u32 {
        let parent = next(i as u64) as u32;
        b.add_edge(parent, i, next(2) as u16);
        edges.insert((parent, i));
    }
    for _ in 0..extra_edges {
        let u = next(n as u64) as u32;
        let v = next(n as u64) as u32;
        if u != v && edges.insert((u.min(v), u.max(v))) {
            b.add_edge(u, v, next(2) as u16);
        }
    }
    b.build()
}

/// Relabel a graph's node ids by a permutation derived from `seed`.
fn permuted(g: &Graph, seed: u64) -> Graph {
    let n = g.node_count();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % (i + 1);
        perm.swap(i, j);
    }
    let mut b = GraphBuilder::new();
    // new id of old node i is perm[i]; add nodes in new-id order.
    let mut inv = vec![0usize; n];
    for (old, &new) in perm.iter().enumerate() {
        inv[new] = old;
    }
    for new in 0..n {
        b.add_node(g.node_label(inv[new] as u32));
    }
    for e in g.edges() {
        b.add_edge(
            perm[e.u as usize] as u32,
            perm[e.v as usize] as u32,
            e.label,
        );
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn min_code_invariant_under_permutation(g in connected_graph(), seed in any::<u64>()) {
        let p = permuted(&g, seed);
        prop_assert!(are_isomorphic(&g, &p));
        prop_assert_eq!(min_dfs_code(&g), min_dfs_code(&p));
    }

    #[test]
    fn certificate_invariant_under_permutation(g in connected_graph(), seed in any::<u64>()) {
        // Same isomorphism class (node/edge permutation) ⇒ same certificate;
        // this is the direction every certificate consumer relies on.
        let p = permuted(&g, seed);
        prop_assert_eq!(certificate(&g), certificate(&p));
    }

    #[test]
    fn certificate_separates_distinct_min_codes(ga in connected_graph(), gb in connected_graph()) {
        // Contrapositive on arbitrary pairs: equal certificates must never
        // be contradicted by a *provable* non-isomorphism witness the other
        // way round — different certificates ⇒ different canonical codes.
        if certificate(&ga) != certificate(&gb) {
            prop_assert_ne!(min_dfs_code(&ga), min_dfs_code(&gb));
            prop_assert!(!are_isomorphic(&ga, &gb));
        }
    }

    #[test]
    fn pruned_min_code_agrees_with_reference(g in connected_graph(), seed in any::<u64>()) {
        // Automorphism-orbit pruning of starting embeddings must be
        // invisible: identical canonical code, also under relabeling.
        prop_assert_eq!(min_dfs_code(&g), min_dfs_code_unpruned(&g));
        let p = permuted(&g, seed);
        prop_assert_eq!(min_dfs_code(&p), min_dfs_code_unpruned(&p));
    }

    #[test]
    fn pruned_is_min_agrees_with_reference(
        g in connected_graph(),
        labels in prop::collection::vec((0u16..3, 0u16..2), 1..7),
    ) {
        use graphsig_gspan::{DfsCode, DfsEdge};
        // The minimal code says yes in both variants.
        let code = min_dfs_code(&g);
        prop_assert!(is_min(&code) && is_min_unpruned(&code));
        // Random path codes are valid DFS codes but often rooted at the
        // wrong end (non-minimal), exercising the rejection branch; the
        // verdicts must match exactly either way.
        let mut path = DfsCode::from_initial(labels[0].0, labels[0].1, labels.get(1).map_or(0, |l| l.0));
        for (i, w) in labels.windows(2).enumerate() {
            let next_label = labels.get(i + 2).map_or(0, |l| l.0);
            path.push(DfsEdge::new(
                (i + 1) as u32,
                (i + 2) as u32,
                w[1].0,
                w[1].1,
                next_label,
            ));
        }
        prop_assert_eq!(is_min(&path), is_min_unpruned(&path));
    }

    #[test]
    fn min_code_roundtrips(g in connected_graph()) {
        let code = min_dfs_code(&g);
        prop_assert!(is_min(&code));
        let rebuilt = code.to_graph();
        prop_assert!(are_isomorphic(&g, &rebuilt));
    }

    #[test]
    fn graph_contains_itself_and_its_edges(g in connected_graph()) {
        prop_assert!(contains(&g, &g));
        for e in g.edges() {
            let mut b = GraphBuilder::new();
            let u = b.add_node(g.node_label(e.u));
            let v = b.add_node(g.node_label(e.v));
            b.add_edge(u, v, e.label);
            prop_assert!(contains(&g, &b.build()));
        }
    }

    #[test]
    fn floor_ceiling_lattice(vs in prop::collection::vec(prop::collection::vec(0u8..6, 5), 1..8)) {
        let floor = floor_of(vs.iter().map(|v| v.as_slice()));
        let ceiling = ceiling_of(vs.iter().map(|v| v.as_slice()));
        prop_assert!(is_sub_vector(&floor, &ceiling));
        for v in &vs {
            prop_assert!(is_sub_vector(&floor, v));
            prop_assert!(is_sub_vector(v, &ceiling));
        }
        // Floor is the greatest lower bound: raising any coordinate breaks it.
        for i in 0..floor.len() {
            let mut raised = floor.clone();
            raised[i] += 1;
            prop_assert!(!vs.iter().all(|v| is_sub_vector(&raised, v)));
        }
    }

    #[test]
    fn binomial_tail_is_a_probability(n in 1u64..500, p in 0.0f64..1.0, k in 0u64..500) {
        let t = binomial_tail_upper(n, p, k);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn binomial_pmf_sums_to_tail(n in 1u64..40, p in 0.01f64..0.99, k in 0u64..40) {
        prop_assume!(k <= n);
        let b = Binomial::new(n, p);
        let brute: f64 = (k..=n).map(|i| b.pmf(i)).sum();
        prop_assert!((b.tail_upper(k) - brute).abs() < 1e-9);
    }

    // ---- parser robustness: arbitrary input is Err, never a panic ----

    #[test]
    fn transaction_parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Total function: any byte soup yields Ok or a line-numbered Err.
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = graphsig_graph::parse_transactions(&text) {
            prop_assert!(e.line >= 1, "error line numbers are 1-based");
        }
    }

    #[test]
    fn transaction_parser_never_panics_on_token_soup(
        tokens in prop::collection::vec(
            prop::collection::vec(0usize..12, 1..6), 0..40),
        seed in any::<u64>(),
    ) {
        // Structured-ish soup: lines assembled from the grammar's own
        // vocabulary reach deeper parser states than raw bytes do.
        let vocab = ["t", "v", "e", "#", "0", "1", "9999999999999999999", "-3", "C", "", " ", "\u{fffd}"];
        let mut state = seed | 1;
        let mut text = String::new();
        for line in &tokens {
            for &tok in line {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                text.push_str(vocab[(tok + (state >> 33) as usize) % vocab.len()]);
                text.push(' ');
            }
            text.push('\n');
        }
        let _ = graphsig_graph::parse_transactions(&text);
    }

    #[test]
    fn request_parser_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = graphsig_server::parse_request(&line);
    }

    #[test]
    fn request_parser_never_panics_on_token_soup(
        tokens in prop::collection::vec(0usize..64, 0..24),
        seed in any::<u64>(),
    ) {
        // Soup from the protocol's own vocabulary: real ops, real keys,
        // stray `=`, over/underflowing numbers, escape fragments.
        let vocab = [
            "mine", "freq", "load", "stats", "cancel", "ping", "shutdown",
            "id=", "id=x", "dataset=d", "radius=3", "radius=", "=", "==",
            "max_steps=18446744073709551616", "timeout_ms=-1", "min_freq=0.05",
            "path=%", "path=%2", "path=%zz", "gen=aids", "count=10", "seed=1",
            "target=x", "drain_ms=0", "bogus=1", "%0a", "#",
        ];
        let mut state = seed | 1;
        let mut line = String::new();
        for &tok in &tokens {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            line.push_str(vocab[(tok + (state >> 33) as usize) % vocab.len()]);
            line.push(' ');
        }
        let _ = graphsig_server::parse_request(&line);
    }

    #[test]
    fn protocol_escape_roundtrips(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let value = String::from_utf8_lossy(&bytes).into_owned();
        let escaped = graphsig_server::escape(&value);
        // Escaped form is single-token (no whitespace) and decodes back.
        prop_assert!(!escaped.chars().any(|c| c.is_whitespace()));
        let decoded = graphsig_server::unescape(&escaped);
        prop_assert_eq!(decoded.as_deref().ok(), Some(value.as_str()));
    }

    #[test]
    fn response_stream_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = graphsig_server::protocol::parse_response_stream(&bytes);
    }

    // ---- the matcher and the miners against brute-force references ----

    #[test]
    fn iso_backends_agree_on_random_pairs(
        pseed in any::<u64>(),
        tseed in any::<u64>(),
        steps in 0u64..400,
    ) {
        let pattern = lcg_graph(pseed, 1);
        let target = lcg_graph(tseed, 1);
        let expect = brute_contains(&target, &pattern);
        prop_assert_eq!(contains(&target, &pattern), expect);
        // A reused matcher and the compiled-target entry point agree too.
        let mut fast = MultiMatcher::new(&pattern);
        prop_assert_eq!(fast.exists_in(&target), expect);
        let compiled = CompiledGraph::compile(&target);
        prop_assert_eq!(fast.exists_in_compiled(&compiled), expect);
        // Budgeted runs: deterministic, never overspend, and a decided
        // outcome agrees with the reference.
        let first = fast.exists_in_counted(&target, steps);
        prop_assert_eq!(fast.exists_in_counted(&target, steps), first);
        let (outcome, used) = first;
        prop_assert!(used <= steps);
        match outcome {
            MatchOutcome::Matched => prop_assert!(expect),
            MatchOutcome::Unmatched => prop_assert!(!expect),
            MatchOutcome::Indeterminate => prop_assert_eq!(used, steps),
        }
        // Compiled targets decide the same way at exactly the same cost.
        prop_assert_eq!(fast.exists_in_counted_compiled(&compiled, steps), first);
    }

    #[test]
    fn iso_backends_agree_on_support_counts(seed in any::<u64>()) {
        // The quantity every miner derives from the matcher: how many of a
        // database's graphs contain the pattern.
        let pattern = lcg_graph(seed ^ 0x00C0FFEE, 1);
        let targets: Vec<Graph> = (0..8u64)
            .map(|i| lcg_graph(seed ^ i.wrapping_mul(0x9E3779B97F4A7C15), 1))
            .collect();
        let mut m = MultiMatcher::new(&pattern);
        prop_assert_eq!(
            targets.iter().filter(|t| m.exists_in(t)).count(),
            targets.iter().filter(|t| brute_contains(t, &pattern)).count()
        );
    }

    #[test]
    fn miners_match_brute_force_enumeration(seed in any::<u64>()) {
        use graphsig_fsg::{Fsg, FsgConfig};
        use graphsig_gspan::{GSpan, MinerConfig};
        // Every connected edge subset of a tiny database, grouped into
        // isomorphism classes by brute force: both miners must return
        // exactly those classes, with the same supports and gids.
        let db = tiny_db(seed);
        let classes = brute_frequent_subgraphs(&db, 2, 4);
        let fsg = Fsg::new(FsgConfig::new(2).with_max_edges(4)).mine(&db);
        let gsp = GSpan::new(MinerConfig::new(2).with_max_edges(4)).mine(&db);
        for pats in [&fsg, &gsp] {
            prop_assert_eq!(pats.len(), classes.len());
            let mut seen = std::collections::HashSet::new();
            for p in pats {
                let hits: Vec<usize> = (0..classes.len())
                    .filter(|&i| brute_isomorphic(&classes[i].graph, &p.graph))
                    .collect();
                prop_assert!(hits.len() == 1, "pattern {} matches classes {:?}", p.code, hits);
                prop_assert!(seen.insert(hits[0]), "class reported twice: {}", p.code);
                prop_assert_eq!(&p.gids, &classes[hits[0]].gids);
                prop_assert_eq!(p.support, p.gids.len());
            }
        }
    }

    #[test]
    fn window_pass_matches_the_reference_power_iteration(
        n in 1usize..=12,
        seed in any::<u64>(),
        edge_types in any::<u16>(),
        atom_types in 0u16..8,
        alpha in prop::sample::select(vec![0.25, 1.0]),
    ) {
        // A graph over three node and two edge labels with each node pair
        // joined with probability 1/4: often disconnected, often with
        // isolated nodes. The feature set keeps a random subset of the 12
        // possible edge types and 3 atom types, so some arcs count toward
        // no feature.
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(next(3) as u16);
        }
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if next(4) == 0 {
                    b.add_edge(u, v, next(2) as u16);
                }
            }
        }
        let mut db = GraphDb::new();
        db.push(b.build());
        let all_edge_types =
            (0..3u16).flat_map(|a| (a..3).flat_map(move |c| (0..2u16).map(move |e| (a, e, c))));
        let fs = FeatureSet::from_parts(
            all_edge_types
                .enumerate()
                .filter(|&(i, _)| edge_types >> i & 1 == 1)
                .map(|(_, t)| t)
                .collect(),
            (0..3u16).filter(|&a| atom_types >> a & 1 == 1).collect(),
            &db,
        );
        let g = db.graph(0);
        let cfg = RwrConfig { alpha };
        let dists = graph_feature_distributions(g, &fs, &cfg);
        let vecs = graph_feature_vectors(g, &fs, &cfg);
        for s in g.nodes() {
            let want = reference_feature_distribution(g, s, &fs, alpha);
            for (f, &v) in want.iter().enumerate() {
                let got = dists[s as usize][f];
                prop_assert!(
                    (got - v).abs() < 1e-9,
                    "node {} feature {}: {} vs {}", s, f, got, v
                );
                // Away from a half-step the reference's rounding is the bin.
                let x = 10.0 * v;
                if (x - x.floor() - 0.5).abs() >= 1e-8 {
                    let bin = vecs[s as usize].bins[f];
                    prop_assert!(
                        bin == x.round() as u8,
                        "node {} feature {}: bin {} for {}", s, f, bin, v
                    );
                }
            }
        }
    }

    #[test]
    fn region_arena_mines_what_the_cut_regions_mine(
        seed in any::<u64>(),
        radius in 1usize..=3,
        picks in prop::collection::vec(prop::collection::vec(0usize..8, 2..6), 1..5),
        max_steps in 0u64..400,
    ) {
        use graphsig_core::RegionArena;
        use graphsig_fsg::{Fsg, FsgConfig};
        use graphsig_graph::{cut_graph, Budget};
        // Region sets drawn from a pool of eight described nodes, so sets
        // share nodes as the pipeline's do. FSG over the arena's targets
        // must match FSG over a database of the same cuts: the same
        // patterns, completion and step counters, with or without a step
        // budget.
        let db = tiny_db(seed);
        let all: Vec<(u32, u32)> = db
            .graphs()
            .iter()
            .enumerate()
            .flat_map(|(gid, g)| g.nodes().map(move |n| (gid as u32, n)))
            .collect();
        let mut state = seed | 1;
        let pool: Vec<(u32, u32)> = (0..8)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                all[(state >> 33) as usize % all.len()]
            })
            .collect();
        let sets: Vec<Vec<(u32, u32)>> = picks
            .iter()
            .map(|p| {
                let mut nodes: Vec<(u32, u32)> = Vec::new();
                for &i in p {
                    if !nodes.contains(&pool[i]) {
                        nodes.push(pool[i]);
                    }
                }
                nodes
            })
            .filter(|nodes| nodes.len() >= 2)
            .collect();
        let (arena, stop) = RegionArena::build(&db, sets.iter().map(Vec::as_slice), radius, 2, None);
        prop_assert_eq!(stop, None);
        for nodes in &sets {
            let mut regions = GraphDb::from_parts(Vec::new(), db.labels().clone());
            for &(gid, node) in nodes {
                regions.push(cut_graph(db.graph(gid as usize), node, radius).0);
            }
            let set = arena.set(nodes);
            for support in [1, nodes.len()] {
                for limit in [None, Some(max_steps)] {
                    // A fresh budget per run: clones share the counters.
                    let budget = || match limit {
                        Some(k) => Budget::unlimited().with_max_steps(k),
                        None => Budget::unlimited(),
                    };
                    let fsg = |b: &Budget| {
                        Fsg::new(FsgConfig::new(support).with_max_edges(5).with_budget(b.clone()))
                    };
                    let (b_arena, b_cut) = (budget(), budget());
                    let level1 = set.level1.iter().map(|(k, t)| (*k, t.as_slice()));
                    let got = fsg(&b_arena).mine_compiled_outcome(level1, &set.targets);
                    let want = fsg(&b_cut).mine_outcome(&regions);
                    prop_assert_eq!(got.completion, want.completion);
                    prop_assert_eq!(got.result.len(), want.result.len());
                    for (a, b) in got.result.iter().zip(&want.result) {
                        prop_assert_eq!(&a.code, &b.code);
                        prop_assert_eq!(a.support, b.support);
                        prop_assert_eq!(&a.gids, &b.gids);
                    }
                    prop_assert_eq!(b_arena.match_steps_spent(), b_cut.match_steps_spent());
                    prop_assert_eq!(b_arena.steps_spent(), b_cut.steps_spent());
                    prop_assert_eq!(b_arena.canon_calls(), b_cut.canon_calls());
                    prop_assert_eq!(b_arena.cert_hits(), b_cut.cert_hits());
                }
            }
        }
    }

    #[test]
    fn gspan_patterns_containment_verified(seed in any::<u64>()) {
        use graphsig_gspan::{GSpan, MinerConfig};
        let db = tiny_db(seed);
        let pats = GSpan::new(MinerConfig::new(2).with_max_edges(4)).mine(&db);
        for p in &pats {
            let real = db.graphs().iter().filter(|g| contains(g, &p.graph)).count();
            prop_assert_eq!(real, p.support);
        }
    }
}

/// Tiny random database of 6 graphs derived from `seed`, each with up to
/// two cycle-closing edges, so patterns of up to 4 edges, cycles included,
/// recur often enough to be frequent.
fn tiny_db(seed: u64) -> GraphDb {
    let mut db = GraphDb::new();
    for i in 0..6u64 {
        db.push(lcg_graph(seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15)), 2));
    }
    db
}
