//! Random Walk with Restart (Section II-C of the paper).
//!
//! For each node, a walker starts at the node and repeatedly jumps to a
//! uniformly random neighbor; with probability `alpha` it restarts at the
//! source instead, confining it to a soft window of expected radius
//! `1/alpha`. We compute the walker's *steady state* exactly by power
//! iteration (the paper: "We iterate the random walk till the feature
//! distribution converges").
//!
//! The feature distribution assigns each steady-state step `i → j` — whose
//! probability mass is `π_i · (1 - α) / deg(i)` — to the *edge-type feature*
//! `(label(i), bond, label(j))` when that type is selected, and otherwise to
//! the *atom-type feature* of `label(j)` ("an atom-based feature is updated
//! only when the edge-type traversed is not in F"). The resulting
//! distribution over features sums to 1 and each value is discretized into
//! ten bins by `round(10 · v)` (paper: 0.07 → 1, 0.34 → 3).
//!
//! The pass is a fixed point, not a search: it is capped at
//! `max_iters` sweeps per node and takes no step budget. Callers that
//! govern a run check its deadline and cancellation between graphs.

use crate::selection::FeatureSet;
use graphsig_graph::{Graph, NodeId, NodeLabel};

/// RWR parameters. The paper's Table IV default is `alpha = 0.25`.
#[derive(Debug, Clone, Copy)]
pub struct RwrConfig {
    /// Restart probability `alpha` (0 < alpha <= 1).
    pub alpha: f64,
    /// L1 convergence threshold for the steady state.
    pub epsilon: f64,
    /// Iteration cap (power iteration converges geometrically at rate
    /// `1 - alpha`, so this is rarely hit).
    pub max_iters: usize,
}

impl Default for RwrConfig {
    fn default() -> Self {
        Self {
            alpha: 0.25,
            epsilon: 1e-10,
            max_iters: 200,
        }
    }
}

/// One node's discretized feature vector — the paper's `vector(n_i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeVector {
    /// The source node the window is centered on.
    pub node: NodeId,
    /// Its label — the paper's `label(v_i)`, used to group vectors by
    /// atom type in Algorithm 2.
    pub label: NodeLabel,
    /// Discretized feature values, one per feature, each in `0..=10`.
    pub bins: Vec<u8>,
}

/// Steady-state node-visit distribution of RWR from `source`.
///
/// Solves `π = α e_src + (1 - α) Pᵀ π` by power iteration, where `P` is the
/// uniform random-walk transition matrix. Nodes unreachable from the source
/// get probability 0; a degree-0 source yields the point mass at itself.
///
/// # Panics
/// Panics if `source` is out of range or `alpha` is outside `(0, 1]`.
pub fn rwr_node_distribution(g: &Graph, source: NodeId, cfg: &RwrConfig) -> Vec<f64> {
    assert!((source as usize) < g.node_count(), "source out of range");
    assert!(
        cfg.alpha > 0.0 && cfg.alpha <= 1.0,
        "alpha must be in (0, 1], got {}",
        cfg.alpha
    );
    let n = g.node_count();
    let mut pi = vec![0.0f64; n];
    pi[source as usize] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..cfg.max_iters {
        next.iter_mut().for_each(|x| *x = 0.0);
        next[source as usize] = cfg.alpha;
        for (i, &mass) in pi.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let deg = g.degree(i as NodeId);
            if deg == 0 {
                // A stranded walker restarts unconditionally.
                next[source as usize] += (1.0 - cfg.alpha) * mass;
                continue;
            }
            let share = (1.0 - cfg.alpha) * mass / deg as f64;
            for a in g.neighbors(i as NodeId) {
                next[a.to as usize] += share;
            }
        }
        let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if diff < cfg.epsilon {
            break;
        }
    }
    pi
}

/// Continuous feature distribution of the window centered at `source`:
/// expected fraction of (non-restart) steps that traverse each feature.
/// Sums to 1 whenever the source has at least one neighbor.
pub fn feature_distribution(
    g: &Graph,
    source: NodeId,
    fs: &FeatureSet,
    cfg: &RwrConfig,
) -> Vec<f64> {
    let pi = rwr_node_distribution(g, source, cfg);
    let mut dist = vec![0.0f64; fs.dim()];
    let mut total = 0.0f64;
    for (i, &mass) in pi.iter().enumerate() {
        if mass == 0.0 {
            continue;
        }
        let deg = g.degree(i as NodeId);
        if deg == 0 {
            continue;
        }
        let share = (1.0 - cfg.alpha) * mass / deg as f64;
        let li = g.node_label(i as NodeId);
        for a in g.neighbors(i as NodeId) {
            let lj = g.node_label(a.to);
            let idx = fs
                .edge_feature(li, a.label, lj)
                .or_else(|| fs.atom_feature(lj));
            if let Some(idx) = idx {
                dist[idx] += share;
            }
            total += share;
        }
    }
    if total > 0.0 {
        dist.iter_mut().for_each(|x| *x /= total);
    }
    dist
}

/// Discretize a feature value in `[0, 1]` into bins `0..=10` by
/// `round(10 · v)` — the paper's examples: 0.07 → 1, 0.34 → 3.
#[inline]
pub fn discretize(v: f64) -> u8 {
    debug_assert!(
        (0.0..=1.0 + 1e-9).contains(&v),
        "feature value {v} out of [0,1]"
    );
    ((v * 10.0).round() as i64).clamp(0, 10) as u8
}

/// Run RWR on every node of `g`, producing one discretized [`NodeVector`]
/// per node — the full "sliding window" pass of Section II.
pub fn graph_feature_vectors(g: &Graph, fs: &FeatureSet, cfg: &RwrConfig) -> Vec<NodeVector> {
    g.nodes()
        .map(|n| {
            let dist = feature_distribution(g, n, fs, cfg);
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
    use graphsig_graph::{parse_transactions, GraphBuilder, GraphDb};

    fn cfg() -> RwrConfig {
        RwrConfig::default()
    }

    fn chain_db() -> GraphDb {
        parse_transactions("t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n").unwrap()
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let db = chain_db();
        let g = db.graph(0);
        for n in g.nodes() {
            let pi = rwr_node_distribution(g, n, &cfg());
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-8, "node {n}: total {total}");
            assert!(pi.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn source_holds_extra_mass() {
        let db = chain_db();
        let g = db.graph(0);
        let pi = rwr_node_distribution(g, 0, &cfg());
        // Restarts bias mass toward the source: it must beat the far end.
        assert!(pi[0] > pi[2]);
    }

    #[test]
    fn symmetric_graph_symmetric_distribution() {
        // Path x-y-x from the center: both ends get equal mass.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(0);
        b.add_edge(n1, n0, 0);
        b.add_edge(n1, n2, 0);
        let g = b.build();
        let pi = rwr_node_distribution(&g, 1, &cfg());
        assert!((pi[0] - pi[2]).abs() < 1e-9);
    }

    #[test]
    fn isolated_source_is_point_mass() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(1);
        let g = b.build();
        let pi = rwr_node_distribution(&g, 0, &cfg());
        assert!((pi[0] - 1.0).abs() < 1e-9);
        assert_eq!(pi[1], 0.0);
    }

    #[test]
    fn alpha_one_never_leaves_source() {
        let db = chain_db();
        let g = db.graph(0);
        let pi = rwr_node_distribution(
            g,
            1,
            &RwrConfig {
                alpha: 1.0,
                ..cfg()
            },
        );
        assert!((pi[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_distribution_sums_to_one() {
        let db = chain_db();
        let fs = crate::selection::FeatureSet::for_chemical(&db, 5);
        let g = db.graph(0);
        for n in g.nodes() {
            let d = feature_distribution(g, n, &fs, &cfg());
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn proximity_weighting_beats_plain_counting() {
        // Long chain C-C-C-...-C-O: from one end, the near C-C edges carry
        // far more mass than the distant C-O edge, even though a plain count
        // inside the window would see them comparably.
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 C\nv 3 C\nv 4 C\nv 5 O\n\
             e 0 1 s\ne 1 2 s\ne 2 3 s\ne 3 4 s\ne 4 5 s\n",
        )
        .unwrap();
        let fs = crate::selection::FeatureSet::for_chemical(&db, 5);
        let g = db.graph(0);
        let d = feature_distribution(g, 0, &fs, &cfg());
        let c = db.labels().node_id("C").unwrap();
        let o = db.labels().node_id("O").unwrap();
        let s = db.labels().edge_id("s").unwrap();
        let cc = fs.edge_feature(c, s, c).unwrap();
        let co = fs.edge_feature(c, s, o).unwrap();
        assert!(d[cc] > 5.0 * d[co], "cc={} co={}", d[cc], d[co]);
    }

    #[test]
    fn atom_feature_catches_non_selected_edges() {
        // Restrict edge features to C-C only (top_k=1); traversals into O
        // must land on the atom:O feature.
        let db = chain_db();
        let fs = crate::selection::FeatureSet::for_chemical(&db, 1);
        let g = db.graph(0);
        let d = feature_distribution(g, 2, &fs, &cfg());
        let o = db.labels().node_id("O").unwrap();
        let ao = fs.atom_feature(o).unwrap();
        assert!(d[ao] > 0.0);
    }

    #[test]
    fn discretize_matches_paper_examples() {
        assert_eq!(discretize(0.07), 1);
        assert_eq!(discretize(0.34), 3);
        assert_eq!(discretize(0.0), 0);
        assert_eq!(discretize(1.0), 10);
        assert_eq!(discretize(0.04), 0);
        assert_eq!(discretize(0.05), 1); // round half away from zero
    }

    #[test]
    fn graph_vectors_one_per_node() {
        let db = chain_db();
        let fs = crate::selection::FeatureSet::for_chemical(&db, 5);
        let g = db.graph(0);
        let vecs = graph_feature_vectors(g, &fs, &cfg());
        assert_eq!(vecs.len(), 3);
        for (i, v) in vecs.iter().enumerate() {
            assert_eq!(v.node, i as u32);
            assert_eq!(v.label, g.node_label(i as u32));
            assert_eq!(v.bins.len(), fs.dim());
            assert!(v.bins.iter().all(|&b| b <= 10));
            // Bins approximately preserve the unit sum (within rounding).
            let total: i32 = v.bins.iter().map(|&b| b as i32).sum();
            assert!((total - 10).abs() <= 3, "bin total {total}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let db = chain_db();
        rwr_node_distribution(
            db.graph(0),
            0,
            &RwrConfig {
                alpha: 0.0,
                ..cfg()
            },
        );
    }
}
