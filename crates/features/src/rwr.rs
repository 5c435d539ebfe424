//! Random Walk with Restart (Section II-C of the paper).
//!
//! For each node, a walker starts at the node and repeatedly jumps to a
//! uniformly random neighbor; with probability `alpha` it restarts at the
//! source instead, confining it to a soft window of expected radius
//! `1/alpha`. The window's feature distribution is read off the walker's
//! *steady state* (the paper: "We iterate the random walk till the feature
//! distribution converges").
//!
//! The feature distribution assigns each steady-state step `i → j` — whose
//! probability mass is `π_s(i) · (1 - α) / deg(i)` for source `s` — to the
//! *edge-type feature* `(label(i), bond, label(j))` when that type is
//! selected, and otherwise to the *atom-type feature* of `label(j)` ("an
//! atom-based feature is updated only when the edge-type traversed is not
//! in F"). The resulting distribution over features sums to 1 and each
//! value is discretized into ten bins by `round(10 · v)` (paper: 0.07 → 1,
//! 0.34 → 3).
//!
//! # One solve per graph
//!
//! The pass does not walk from each source separately; it solves on the
//! feature side, for every source at once. Let `w_f(i)` be
//! `(1 - α) / deg(i)` times the number of arcs out of `i` that count toward
//! feature `f`. The mass `f` receives from source `s`, `Σ_i π_s(i) · w_f(i)`,
//! is entry `s` of the vector `h_f = α·w_f + (1 - α)·P·h_f`, where `P` is
//! the uniform random-walk transition matrix (transpose the steady-state
//! equation `π_s = α·e_s + (1 - α)·Pᵀ·π_s`). A graph solves one such system
//! per feature it contains, plus a *total* column counting every arc, and
//! node `s` gets `h_f(s) / h_total(s)`.
//!
//! The columns are solved together by in-place Gauss–Seidel sweeps in node
//! order, starting from `h = α·w`, so every column rises monotonically to
//! its fixed point. The total column is the sum of the others plus the
//! arcs that count toward no feature, so its largest rise in a sweep bounds
//! every column's rise: the solve ends when that rise falls below `1e-14`
//! (about 60 sweeps at `α = 0.25`), or after the sweep count at which the
//! contraction bound `(1 - α)^sweeps` does. A sweep touches each arc once
//! per column, so the pass is linear in a graph's edges and in the number
//! of features it contains. Each graph is solved on one thread in node
//! order, so its vectors do not depend on how graphs are scheduled.
//!
//! The pass is a fixed point, not a search, and takes no step budget.
//! Callers that govern a run check its deadline and cancellation between
//! graphs.

use crate::selection::FeatureSet;
use graphsig_graph::{Graph, NodeId, NodeLabel};

/// A sweep that raises no total-column entry by this much ends the solve.
const RISE_TOL: f64 = 1e-14;

/// [`discretize`] rounds `10 · v` up when it lies this close below a
/// half-step: the sweeps approach each column's fixed point from below, so
/// an exact half-step such as `1/4` can arrive a few ulps short of it.
const HALF_STEP_SLACK: f64 = 1e-9;

/// RWR parameters. The paper's Table IV default is `alpha = 0.25`.
#[derive(Debug, Clone, Copy)]
pub struct RwrConfig {
    /// Restart probability `alpha` (0 < alpha <= 1).
    pub alpha: f64,
}

impl Default for RwrConfig {
    fn default() -> Self {
        Self { alpha: 0.25 }
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

/// Continuous feature distribution of every node's window, in node order:
/// entry `f` of row `s` is the expected fraction of the (non-restart)
/// steps of a walk restarting at `s` that traverse feature `f`. A row sums
/// to 1 when its node has a neighbor and `alpha < 1`; otherwise the walker
/// never steps and the row is all zero.
///
/// # Panics
/// Panics if `alpha` is outside `(0, 1]`.
pub fn graph_feature_distributions(g: &Graph, fs: &FeatureSet, cfg: &RwrConfig) -> Vec<Vec<f64>> {
    let alpha = cfg.alpha;
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "alpha must be in (0, 1], got {alpha}"
    );
    // Column 0 is the total; column c > 0 is feature `present[c - 1]`.
    // Each arc's column is looked up once, 0 for an arc that counts toward
    // no feature.
    let mut present: Vec<usize> = Vec::new();
    let mut column = vec![0usize; fs.dim()];
    let mut arc_column = Vec::with_capacity(2 * g.edge_count());
    for i in g.nodes() {
        let li = g.node_label(i);
        for a in g.neighbors(i) {
            let lj = g.node_label(a.to);
            let f = fs
                .edge_feature(li, a.label, lj)
                .or_else(|| fs.atom_feature(lj));
            arc_column.push(f.map_or(0, |f| {
                if column[f] == 0 {
                    present.push(f);
                    column[f] = present.len();
                }
                column[f]
            }));
        }
    }
    let k = present.len() + 1;

    // `restart[i·k + c]` is `α · w_c(i)`; the solve starts from it.
    let mut restart = vec![0.0f64; g.node_count() * k];
    let mut arcs = arc_column.iter();
    for (i, row) in restart.chunks_exact_mut(k).enumerate() {
        let deg = g.degree(i as NodeId);
        for &c in arcs.by_ref().take(deg) {
            row[c] += 1.0;
        }
        // Every arc counts toward the total, including featureless ones.
        row[0] = deg as f64;
        let scale = alpha * (1.0 - alpha) / deg.max(1) as f64;
        row.iter_mut().for_each(|x| *x *= scale);
    }

    let mut h = restart.clone();
    let mut sum = vec![0.0f64; k];
    for _ in 0..sweep_cap(alpha) {
        let mut rise = 0.0f64;
        for i in g.nodes() {
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                continue;
            }
            sum.fill(0.0);
            for a in nbrs {
                let j = a.to as usize * k;
                for (s, &x) in sum.iter_mut().zip(&h[j..j + k]) {
                    *s += x;
                }
            }
            let step = (1.0 - alpha) / nbrs.len() as f64;
            let at = i as usize * k;
            let row = &mut h[at..at + k];
            rise = rise.max(restart[at] + step * sum[0] - row[0]);
            for ((x, &r), &s) in row.iter_mut().zip(&restart[at..at + k]).zip(&sum) {
                *x = r + step * s;
            }
        }
        if rise < RISE_TOL {
            break;
        }
    }

    h.chunks_exact(k)
        .map(|row| {
            let mut dist = vec![0.0f64; fs.dim()];
            if row[0] > 0.0 {
                for (&f, &x) in present.iter().zip(&row[1..]) {
                    dist[f] = x / row[0];
                }
            }
            dist
        })
        .collect()
}

/// Sweep cap of the solve. Every entry starts within 1 of its fixed point,
/// and a Gauss–Seidel sweep shrinks the max-norm error at least by the
/// Jacobi factor `1 - α`, so after this many sweeps the error is below
/// [`RISE_TOL`] whether or not a sweep's rise has fallen below it first.
fn sweep_cap(alpha: f64) -> usize {
    ((RISE_TOL.ln() / (1.0 - alpha).ln()).ceil() as usize).max(1)
}

/// Discretize a feature value in `[0, 1]` into bins `0..=10` by rounding
/// `10 · v` half up — the paper's examples: 0.07 → 1, 0.34 → 3. A `10 · v`
/// within `1e-9` below a half-step counts as on it.
#[inline]
pub fn discretize(v: f64) -> u8 {
    debug_assert!(
        (0.0..=1.0 + 1e-9).contains(&v),
        "feature value {v} out of [0,1]"
    );
    ((v * 10.0 + HALF_STEP_SLACK).round() as i64).clamp(0, 10) as u8
}

/// One discretized [`NodeVector`] per node of `g`, in node order — the
/// full "sliding window" pass of Section II.
pub fn graph_feature_vectors(g: &Graph, fs: &FeatureSet, cfg: &RwrConfig) -> Vec<NodeVector> {
    graph_feature_distributions(g, fs, cfg)
        .into_iter()
        .zip(g.nodes())
        .map(|(dist, n)| NodeVector {
            node: n,
            label: g.node_label(n),
            bins: dist.into_iter().map(discretize).collect(),
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

    fn assert_sums_to_one(row: &[f64]) {
        let total: f64 = row.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "row sums to {total}");
        assert!(row.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        // Two components and an isolated node: every node with a neighbor
        // sums to 1, whatever its component.
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 N\nv 2 O\nv 3 C\nv 4 C\nv 5 S\n\
             e 0 1 s\ne 1 2 d\ne 2 0 s\ne 3 4 a\n",
        )
        .unwrap();
        let fs = FeatureSet::for_chemical(&db, 2);
        let dists = graph_feature_distributions(db.graph(0), &fs, &cfg());
        for row in &dists[..5] {
            assert_sums_to_one(row);
        }
        assert!(dists[5].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn source_holds_extra_mass() {
        // Path a-b-c from a at α = 1/4: the steady state is
        // π = (23, 24, 9)/56, so the a-b and b-c edge features receive
        // (23·3/4 + 24·3/8) : (24·3/8 + 9·3/4) = 5/8 : 3/8. Restarts bias
        // the mass toward the edge at the source.
        let db = parse_transactions("t # 0\nv 0 a\nv 1 b\nv 2 c\ne 0 1 s\ne 1 2 s\n").unwrap();
        let fs = FeatureSet::for_chemical(&db, 3);
        let labels = db.labels();
        let (a, b, c) = (
            labels.node_id("a").unwrap(),
            labels.node_id("b").unwrap(),
            labels.node_id("c").unwrap(),
        );
        let s = labels.edge_id("s").unwrap();
        let d = &graph_feature_distributions(db.graph(0), &fs, &cfg())[0];
        let ab = d[fs.edge_feature(a, s, b).unwrap()];
        let bc = d[fs.edge_feature(b, s, c).unwrap()];
        assert!((ab - 5.0 / 8.0).abs() < 1e-12, "a-b {ab}");
        assert!((bc - 3.0 / 8.0).abs() < 1e-12, "b-c {bc}");
    }

    #[test]
    fn symmetric_graph_symmetric_distribution() {
        // Path x-y-x: both ends see the same window.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(0);
        b.add_edge(n1, n0, 0);
        b.add_edge(n1, n2, 0);
        let g = b.build();
        let mut db = GraphDb::new();
        db.push(g.clone());
        let fs = FeatureSet::for_chemical(&db, 2);
        let dists = graph_feature_distributions(&g, &fs, &cfg());
        for (x, y) in dists[0].iter().zip(&dists[2]) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn isolated_source_has_zero_vector() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(1);
        b.add_node(1);
        b.add_edge(1, 2, 0);
        let g = b.build();
        let mut db = GraphDb::new();
        db.push(g.clone());
        let fs = FeatureSet::for_chemical(&db, 2);
        let vecs = graph_feature_vectors(&g, &fs, &cfg());
        assert!(vecs[0].bins.iter().all(|&x| x == 0));
        assert!(vecs[1].bins.iter().any(|&x| x > 0));
    }

    #[test]
    fn alpha_one_never_leaves_source() {
        // A walker that always restarts takes no step, so no feature is
        // ever traversed.
        let db = chain_db();
        let fs = FeatureSet::for_chemical(&db, 5);
        let dists = graph_feature_distributions(db.graph(0), &fs, &RwrConfig { alpha: 1.0 });
        assert!(dists.iter().flatten().all(|&x| x == 0.0));
    }

    #[test]
    fn feature_distribution_sums_to_one() {
        let db = chain_db();
        let fs = FeatureSet::for_chemical(&db, 5);
        for alpha in [0.05, 0.25, 0.9] {
            for row in graph_feature_distributions(db.graph(0), &fs, &RwrConfig { alpha }) {
                assert_sums_to_one(&row);
            }
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
        let fs = FeatureSet::for_chemical(&db, 5);
        let d = &graph_feature_distributions(db.graph(0), &fs, &cfg())[0];
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
        let fs = FeatureSet::for_chemical(&db, 1);
        let d = &graph_feature_distributions(db.graph(0), &fs, &cfg())[2];
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
        assert_eq!(discretize(0.05), 1); // round half up
        assert_eq!(discretize(0.25 - 1e-15), 3); // a half-step reached from below
        assert_eq!(discretize(0.2499), 2);
    }

    #[test]
    fn equal_exact_values_share_a_bin() {
        // A generated molecule in which nodes 4 and 7 both send exactly 1/4
        // of their window to N[s]O; one of them converges to it from below.
        let db = parse_transactions(
            "t # 0\nv 0 C\nv 1 N\nv 2 N\nv 3 N\nv 4 C\nv 5 N\nv 6 O\nv 7 S\nv 8 O\n\
             e 0 1 d\ne 1 2 s\ne 0 3 a\ne 1 4 s\ne 4 5 d\ne 5 6 s\ne 3 7 s\ne 5 8 s\ne 3 8 s\n",
        )
        .unwrap();
        let fs = FeatureSet::for_chemical(&db, 5);
        let labels = db.labels();
        let nso = fs
            .edge_feature(
                labels.node_id("N").unwrap(),
                labels.edge_id("s").unwrap(),
                labels.node_id("O").unwrap(),
            )
            .unwrap();
        let dists = graph_feature_distributions(db.graph(0), &fs, &cfg());
        let vecs = graph_feature_vectors(db.graph(0), &fs, &cfg());
        for node in [4, 7] {
            assert!((dists[node][nso] - 0.25).abs() < 1e-12);
            assert_eq!(vecs[node].bins[nso], 3, "node {node}");
        }
    }

    #[test]
    fn graph_vectors_one_per_node() {
        let db = chain_db();
        let fs = FeatureSet::for_chemical(&db, 5);
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
        let fs = FeatureSet::for_chemical(&db, 5);
        graph_feature_distributions(db.graph(0), &fs, &RwrConfig { alpha: 0.0 });
    }
}
