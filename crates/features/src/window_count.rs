//! Plain window counting — the ablation baseline for RWR.
//!
//! Section II-C argues that RWR "preserves more structural information
//! rather than simply counting occurrence of features inside the window":
//! a feature adjacent to the source node is visited more often than one at
//! the window boundary, so the RWR distribution encodes proximity. This
//! module implements the strawman it is compared against — count each
//! feature inside the radius window once per occurrence, normalize, and
//! discretize identically — so the claim can be tested (see the
//! `ablation_rwr_vs_count` experiment binary).

use crate::rwr::{discretize, NodeVector};
use crate::selection::FeatureSet;
use graphsig_graph::{neighborhood::bfs_ball, Graph, NodeId};

/// Feature distribution of the window of hop-radius `radius` around
/// `source`, by plain occurrence counting: every edge with both endpoints
/// inside the window contributes 1 to its feature (edge-type if selected,
/// otherwise the atom feature of each endpoint it leads to), with no
/// proximity weighting. Normalized to sum to 1.
pub fn count_feature_distribution(
    g: &Graph,
    source: NodeId,
    radius: usize,
    fs: &FeatureSet,
) -> Vec<f64> {
    let ball = bfs_ball(g, source, radius);
    let mut inside = vec![false; g.node_count()];
    for &(n, _) in &ball {
        inside[n as usize] = true;
    }
    let mut dist = vec![0.0f64; fs.dim()];
    let mut total = 0.0f64;
    for e in g.edges() {
        if !inside[e.u as usize] || !inside[e.v as usize] {
            continue;
        }
        let (lu, lv) = (g.node_label(e.u), g.node_label(e.v));
        match fs.edge_feature(lu, e.label, lv) {
            Some(idx) => {
                dist[idx] += 1.0;
                total += 1.0;
            }
            None => {
                // Count the traversal in both directions, mirroring the
                // RWR attribution to the arrival atom.
                for l in [lu, lv] {
                    if let Some(idx) = fs.atom_feature(l) {
                        dist[idx] += 1.0;
                        total += 1.0;
                    }
                }
            }
        }
    }
    if total > 0.0 {
        dist.iter_mut().for_each(|x| *x /= total);
    }
    dist
}

/// One discretized count-window vector per node — the drop-in alternative
/// to [`crate::rwr::graph_feature_vectors`].
pub fn graph_count_vectors(g: &Graph, radius: usize, fs: &FeatureSet) -> Vec<NodeVector> {
    g.nodes()
        .map(|n| {
            let dist = count_feature_distribution(g, n, radius, fs);
            NodeVector {
                node: n,
                label: g.node_label(n),
                bins: dist.into_iter().map(discretize).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwr::{graph_feature_distributions, RwrConfig};
    use crate::selection::FeatureSet;
    use graphsig_graph::parse_transactions;

    #[test]
    fn counting_is_proximity_blind_but_rwr_is_not() {
        // Long C chain with O at the far end: inside the full window, the
        // count distribution weighs each C-C edge equally, while RWR from
        // node 0 concentrates on the near edges.
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 C\nv 3 C\nv 4 C\nv 5 O\n\
             e 0 1 s\ne 1 2 s\ne 2 3 s\ne 3 4 s\ne 4 5 s\n",
        )
        .unwrap();
        let fs = FeatureSet::for_chemical(&db, 5);
        let g = db.graph(0);
        let c = db.labels().node_id("C").unwrap();
        let o = db.labels().node_id("O").unwrap();
        let s = db.labels().edge_id("s").unwrap();
        let cc = fs.edge_feature(c, s, c).unwrap();
        let co = fs.edge_feature(c, s, o).unwrap();

        let count = count_feature_distribution(g, 0, 10, &fs);
        // Counting: 4 C-C edges vs 1 C-O edge → exactly 4:1.
        assert!((count[cc] / count[co] - 4.0).abs() < 1e-9);

        let rwr = &graph_feature_distributions(g, &fs, &RwrConfig::default())[0];
        // RWR: the ratio is much larger because near edges dominate.
        assert!(rwr[cc] / rwr[co] > 6.0, "ratio {}", rwr[cc] / rwr[co]);
    }

    #[test]
    fn distributions_are_normalized() {
        let db =
            parse_transactions("t # 0\nv 0 C\nv 1 O\nv 2 N\nv 3 C\ne 0 1 s\ne 1 2 d\ne 2 3 s\n")
                .unwrap();
        let fs = FeatureSet::for_chemical(&db, 5);
        let g = db.graph(0);
        for n in g.nodes() {
            let d = count_feature_distribution(g, n, 2, &fs);
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-9 || total == 0.0);
        }
    }

    #[test]
    fn radius_zero_counts_nothing() {
        let db = parse_transactions("t # 0\nv 0 C\nv 1 C\ne 0 1 s\n").unwrap();
        let fs = FeatureSet::for_chemical(&db, 5);
        let d = count_feature_distribution(db.graph(0), 0, 0, &fs);
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn vectors_have_graph_shape() {
        let db = parse_transactions("t # 0\nv 0 C\nv 1 O\nv 2 C\ne 0 1 s\ne 1 2 s\n").unwrap();
        let fs = FeatureSet::for_chemical(&db, 5);
        let vs = graph_count_vectors(db.graph(0), 2, &fs);
        assert_eq!(vs.len(), 3);
        assert!(vs.iter().all(|v| v.bins.len() == fs.dim()));
        assert!(vs.iter().all(|v| v.bins.iter().all(|&b| b <= 10)));
    }
}
