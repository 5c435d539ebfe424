//! The paper's worked examples as executable tests.
#![allow(clippy::needless_range_loop)]
//!
//! Section IV illustrates the feature-space reasoning with a four-graph
//! database (Fig. 6): `G1`–`G3` share the subgraph of Fig. 7 (a 'b'-centered
//! star with arms to 'a', 'c', 'd'), `G4` shares nothing with the others.
//! Table II shows the RWR vectors of the 'a' nodes: only the features
//! `a-b`, `b-c`, `b-d` are non-zero across `G1`–`G3`, and no feature is
//! non-zero across all four graphs. We rebuild the database and verify the
//! same structure emerges from our RWR implementation.

use graphsig_features::{graph_feature_distributions, FeatureSet, RwrConfig};
use graphsig_graph::{GraphBuilder, GraphDb, NodeId};

/// Shorthand: feature value of the edge-type (na, nb) from the 'a'-node
/// distribution.
fn edge_val(db: &GraphDb, fs: &FeatureSet, dist: &[f64], na: &str, nb: &str) -> f64 {
    let la = db.labels().node_id(na).unwrap();
    let lb = db.labels().node_id(nb).unwrap();
    let le = db.labels().edge_id("-").unwrap();
    match fs.edge_feature(la, le, lb) {
        Some(idx) => dist[idx],
        None => 0.0,
    }
}

/// Build the Fig. 6 sample database. Exact shapes are reconstructions (the
/// paper draws them; we encode the described structure): G1–G3 each contain
/// the common core b(a)(c)(d) — a 'b' node bonded to 'a', 'c' and 'd' —
/// plus per-graph extras; G4 has none of it.
fn fig6_database() -> (GraphDb, Vec<NodeId>) {
    let mut db = GraphDb::new();
    let a = db.labels_mut().intern_node("a");
    let b = db.labels_mut().intern_node("b");
    let c = db.labels_mut().intern_node("c");
    let d = db.labels_mut().intern_node("d");
    let e = db.labels_mut().intern_node("e");
    let f = db.labels_mut().intern_node("f");
    let s = db.labels_mut().intern_edge("-");
    let mut a_nodes = Vec::new();

    // G1: core + a-e arm.
    let mut g = GraphBuilder::new();
    let na = g.add_node(a);
    let nb = g.add_node(b);
    let nc = g.add_node(c);
    let nd = g.add_node(d);
    let ne = g.add_node(e);
    g.add_edge(na, nb, s);
    g.add_edge(nb, nc, s);
    g.add_edge(nb, nd, s);
    g.add_edge(na, ne, s);
    a_nodes.push(na);
    db.push(g.build());

    // G2: core + d-f arm.
    let mut g = GraphBuilder::new();
    let na = g.add_node(a);
    let nb = g.add_node(b);
    let nc = g.add_node(c);
    let nd = g.add_node(d);
    let nf = g.add_node(f);
    g.add_edge(na, nb, s);
    g.add_edge(nb, nc, s);
    g.add_edge(nb, nd, s);
    g.add_edge(nd, nf, s);
    a_nodes.push(na);
    db.push(g.build());

    // G3: core + c-e and c-f arms.
    let mut g = GraphBuilder::new();
    let na = g.add_node(a);
    let nb = g.add_node(b);
    let nc = g.add_node(c);
    let nd = g.add_node(d);
    let ne = g.add_node(e);
    let nf = g.add_node(f);
    g.add_edge(na, nb, s);
    g.add_edge(nb, nc, s);
    g.add_edge(nb, nd, s);
    g.add_edge(nc, ne, s);
    g.add_edge(nc, nf, s);
    a_nodes.push(na);
    db.push(g.build());

    // G4: entirely different: a-d, a-f, d-f triangle-ish, no 'b'.
    let mut g = GraphBuilder::new();
    let na = g.add_node(a);
    let nd = g.add_node(d);
    let nf = g.add_node(f);
    let nd2 = g.add_node(d);
    g.add_edge(na, nd, s);
    g.add_edge(na, nf, s);
    g.add_edge(nd, nf, s);
    g.add_edge(nf, nd2, s);
    a_nodes.push(na);
    db.push(g.build());

    (db, a_nodes)
}

#[test]
fn table2_common_features_point_to_the_common_subgraph() {
    let (db, a_nodes) = fig6_database();
    // Feature set: all edge types in the database (the example's setting).
    let fs = FeatureSet::for_chemical(&db, 10);
    let cfg = RwrConfig::default(); // alpha = 0.25 as in the example
    let dists: Vec<Vec<f64>> = db
        .graphs()
        .iter()
        .zip(&a_nodes)
        .map(|(g, &n)| graph_feature_distributions(g, &fs, &cfg).swap_remove(n as usize))
        .collect();

    // "Only the edge-types a-b, b-c, and b-d have non-zero values across
    // G1, G2, G3."
    for name in [("a", "b"), ("b", "c"), ("b", "d")] {
        for gi in 0..3 {
            let v = edge_val(&db, &fs, &dists[gi], name.0, name.1);
            assert!(v > 0.0, "{name:?} zero in G{}", gi + 1);
        }
    }
    // And G4 breaks every one of them.
    for name in [("a", "b"), ("b", "c"), ("b", "d")] {
        let v = edge_val(&db, &fs, &dists[3], name.0, name.1);
        assert_eq!(v, 0.0, "{name:?} unexpectedly present in G4");
    }
    // "At the same time, no feature has a non-zero value across G1-G4."
    let dim = fs.dim();
    for i in 0..dim {
        let everywhere = dists.iter().all(|d| d[i] > 0.0);
        assert!(
            !everywhere,
            "feature {} non-zero across all four graphs",
            fs.name(i)
        );
    }
}

#[test]
fn common_subgraph_of_g1_g3_is_the_fig7_core() {
    use graphsig_gspan::{GSpan, MinerConfig};
    let (db, _) = fig6_database();
    let first_three = db.subset(&[0, 1, 2]);
    let maximal = GSpan::new(MinerConfig::new(3)).mine_maximal(&first_three);
    // The unique maximal subgraph common to G1-G3 is the 4-node star of
    // Fig. 7: b bonded to a, c, d.
    assert_eq!(maximal.len(), 1);
    let core = &maximal[0];
    assert_eq!(core.graph.node_count(), 4);
    assert_eq!(core.graph.edge_count(), 3);
    let b = db.labels().node_id("b").unwrap();
    let center = core
        .graph
        .nodes()
        .find(|&n| core.graph.degree(n) == 3)
        .expect("star center exists");
    assert_eq!(core.graph.node_label(center), b);

    // Adding G4 destroys any common subgraph.
    let all = db.subset(&[0, 1, 2, 3]);
    let none = GSpan::new(MinerConfig::new(4)).mine(&all);
    assert!(none.is_empty(), "no subgraph is common to all four graphs");
}
