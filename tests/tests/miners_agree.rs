//! The two frequent-subgraph miners must produce identical pattern sets on
//! real molecule-like workloads, and the closed/maximal filters must nest.

use graphsig_datagen::aids_like;
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::iso::contains;
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

fn code_key(p: &Pattern) -> Vec<(u32, u32, u16, u16, u16)> {
    p.code
        .edges()
        .iter()
        .map(|e| (e.from, e.to, e.from_label, e.edge_label, e.to_label))
        .collect()
}

#[test]
fn gspan_and_fsg_mine_identical_sets() {
    let data = aids_like(60, 123);
    for freq in [0.5, 0.3, 0.2] {
        let support = ((freq * data.len() as f64).ceil() as usize).max(1);
        let mut gs = GSpan::new(MinerConfig::new(support).with_max_edges(6)).mine(&data.db);
        let mut fs = Fsg::new(FsgConfig::new(support).with_max_edges(6)).mine(&data.db);
        gs.sort_by_key(code_key);
        fs.sort_by_key(code_key);
        assert_eq!(gs.len(), fs.len(), "freq {freq}");
        for (a, b) in gs.iter().zip(&fs) {
            assert_eq!(a.code, b.code, "freq {freq}");
            assert_eq!(a.support, b.support);
            assert_eq!(a.gids, b.gids);
        }
    }
}

#[test]
fn supports_are_containment_verified() {
    let data = aids_like(40, 321);
    let support = (0.3 * data.len() as f64).ceil() as usize;
    let patterns = GSpan::new(MinerConfig::new(support).with_max_edges(5)).mine(&data.db);
    assert!(!patterns.is_empty());
    for p in &patterns {
        let real = data
            .db
            .graphs()
            .iter()
            .filter(|g| contains(g, &p.graph))
            .count();
        assert_eq!(real, p.support, "pattern {}", p.code);
    }
}

#[test]
fn maximal_subset_of_closed_subset_of_frequent() {
    let data = aids_like(50, 55);
    let support = (0.4 * data.len() as f64).ceil() as usize;
    let miner = GSpan::new(MinerConfig::new(support).with_max_edges(6));
    let frequent = miner.mine(&data.db);
    let closed = miner.mine_closed(&data.db);
    let maximal = miner.mine_maximal(&data.db);
    assert!(maximal.len() <= closed.len());
    assert!(closed.len() <= frequent.len());
    let freq_codes: std::collections::HashSet<_> = frequent.iter().map(code_key).collect();
    let closed_codes: std::collections::HashSet<_> = closed.iter().map(code_key).collect();
    for m in &maximal {
        assert!(closed_codes.contains(&code_key(m)), "maximal not closed");
    }
    for c in &closed {
        assert!(freq_codes.contains(&code_key(c)), "closed not frequent");
    }
    // No maximal pattern is contained in another frequent pattern.
    for m in &maximal {
        for f in &frequent {
            if f.graph.edge_count() > m.graph.edge_count() {
                assert!(
                    !contains(&f.graph, &m.graph),
                    "non-maximal pattern in maximal output"
                );
            }
        }
    }
}

#[test]
fn anti_monotonicity_of_support() {
    // Every pattern's support is <= the support of each of its sub-edges.
    let data = aids_like(40, 77);
    let support = (0.3 * data.len() as f64).ceil() as usize;
    let patterns = GSpan::new(MinerConfig::new(support).with_max_edges(5)).mine(&data.db);
    let singles: Vec<&Pattern> = patterns
        .iter()
        .filter(|p| p.graph.edge_count() == 1)
        .collect();
    for p in patterns.iter().filter(|p| p.graph.edge_count() > 1) {
        for s in &singles {
            if contains(&p.graph, &s.graph) {
                assert!(
                    p.support <= s.support,
                    "support grew: {} ⊃ {}",
                    p.code,
                    s.code
                );
            }
        }
    }
}
