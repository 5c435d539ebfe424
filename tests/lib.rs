//! Cross-crate integration tests for the GraphSig workspace live in
//! the `tests/` subdirectory of this package (one file per scenario).
//!
//! This library holds the independent references those tests compare the
//! production matcher, miners, window pass and FVMine against. They share
//! no code with them beyond [`Graph`]'s and `FeatureSet`'s accessors and
//! FVMine's vector and p-value helpers: plain exhaustive enumeration, a
//! per-source power iteration for the random walk with restart, and
//! FVMine's search over rows, small enough to be obviously right and slow
//! enough to be used on small inputs only.

use graphsig_features::FeatureSet;
use graphsig_fvmine::{
    ceiling_of, floor_of, FvMineConfig, FvMineStats, SignificanceModel, SignificantVector,
};
use graphsig_graph::{Graph, GraphBuilder, GraphDb, Meter, NodeId};

/// Largest pattern [`brute_contains`] accepts.
pub const BRUTE_MAX_PATTERN_NODES: usize = 8;

/// Subgraph monomorphism by exhaustive search: try every injective,
/// label-preserving map of the pattern's nodes into the target's, and check
/// the pattern's edges only once a map is complete.
///
/// # Panics
/// Panics on patterns with more than [`BRUTE_MAX_PATTERN_NODES`] nodes.
pub fn brute_contains(target: &Graph, pattern: &Graph) -> bool {
    assert!(
        pattern.node_count() <= BRUTE_MAX_PATTERN_NODES,
        "brute_contains takes at most {BRUTE_MAX_PATTERN_NODES} pattern nodes"
    );
    let mut map = Vec::with_capacity(pattern.node_count());
    let mut used = vec![false; target.node_count()];
    extend_map(target, pattern, &mut map, &mut used)
}

/// Map pattern node `map.len()` to every free target node with its label,
/// recursing until the map is complete; `map` and `used` are restored
/// before returning.
fn extend_map(target: &Graph, pattern: &Graph, map: &mut Vec<NodeId>, used: &mut [bool]) -> bool {
    let p = map.len() as NodeId;
    if map.len() == pattern.node_count() {
        return pattern.edges().iter().all(|e| {
            target.edge_label_between(map[e.u as usize], map[e.v as usize]) == Some(e.label)
        });
    }
    for t in 0..target.node_count() {
        if used[t] || target.node_label(t as NodeId) != pattern.node_label(p) {
            continue;
        }
        used[t] = true;
        map.push(t as NodeId);
        let found = extend_map(target, pattern, map, used);
        map.pop();
        used[t] = false;
        if found {
            return true;
        }
    }
    false
}

/// Whole-graph isomorphism: equal sizes plus a monomorphism, which with
/// equal node and edge counts is a bijection on both.
pub fn brute_isomorphic(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count() && a.edge_count() == b.edge_count() && brute_contains(b, a)
}

/// Steady-state node-visit distribution of the random walk with restart
/// from `source`, by power iteration: `π ← α·e_source + (1 - α)·Pᵀ·π` from
/// the point mass at the source until an iteration moves less than `1e-12`
/// in L1 (or after 1 000 iterations). A walker on a degree-0 node restarts.
pub fn reference_rwr_distribution(g: &Graph, source: NodeId, alpha: f64) -> Vec<f64> {
    let n = g.node_count();
    let mut pi = vec![0.0f64; n];
    pi[source as usize] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..1000 {
        next.iter_mut().for_each(|x| *x = 0.0);
        next[source as usize] = alpha;
        for (i, &mass) in pi.iter().enumerate() {
            let deg = g.degree(i as NodeId);
            if deg == 0 {
                next[source as usize] += (1.0 - alpha) * mass;
                continue;
            }
            for a in g.neighbors(i as NodeId) {
                next[a.to as usize] += (1.0 - alpha) * mass / deg as f64;
            }
        }
        let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if diff < 1e-12 {
            break;
        }
    }
    pi
}

/// The window's feature distribution from `source`, per the paper's
/// definition: each steady-state step `i → j` carries
/// `π(i)·(1 - α)/deg(i)` to the edge-type feature of the arc if selected,
/// else to the atom feature of `label(j)`, and the result is divided by
/// the mass of all steps. All zero when the walker never steps.
pub fn reference_feature_distribution(
    g: &Graph,
    source: NodeId,
    fs: &FeatureSet,
    alpha: f64,
) -> Vec<f64> {
    let pi = reference_rwr_distribution(g, source, alpha);
    let mut dist = vec![0.0f64; fs.dim()];
    let mut total = 0.0f64;
    for (i, &mass) in pi.iter().enumerate() {
        let deg = g.degree(i as NodeId);
        let li = g.node_label(i as NodeId);
        for a in g.neighbors(i as NodeId) {
            let share = (1.0 - alpha) * mass / deg as f64;
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

/// FVMine (Algorithm 1) over the group's rows: the same search order,
/// prunings, [`Meter`] ticks and [`FvMineStats`] counts as
/// `FvMiner::mine_with_stats_metered`, with each child's support
/// `S' = {y in S : y_i > x_i}` filtered by reading row `y` for every `y` in
/// `S`.
pub fn reference_fvmine(
    db: &[Vec<u8>],
    cfg: FvMineConfig,
    meter: &mut Meter<'_>,
) -> (Vec<SignificantVector>, FvMineStats) {
    if db.is_empty() {
        return (Vec::new(), FvMineStats::default());
    }
    let mut search = RowSearch {
        db,
        cfg,
        model: SignificanceModel::from_vectors(db, 10),
        meter,
        out: Vec::new(),
        stats: FvMineStats::default(),
    };
    if db.len() >= cfg.min_support {
        let root: Vec<u32> = (0..db.len() as u32).collect();
        search.visit(&floor_of(db.iter().map(Vec::as_slice)), &root, 0);
    }
    (search.out, search.stats)
}

/// The reference FVMine's state.
struct RowSearch<'a, 'm> {
    db: &'a [Vec<u8>],
    cfg: FvMineConfig,
    model: SignificanceModel,
    meter: &'a mut Meter<'m>,
    out: Vec<SignificantVector>,
    stats: FvMineStats,
}

impl RowSearch<'_, '_> {
    fn visit(&mut self, x: &[u8], support: &[u32], b: usize) {
        if !self.meter.tick() {
            return;
        }
        self.stats.states_visited += 1;
        let p = self.model.p_value(x, support.len() as u64);
        if p <= self.cfg.max_pvalue {
            self.out.push(SignificantVector {
                vector: x.to_vec(),
                support_ids: support.to_vec(),
                p_value: p,
            });
        }
        for i in b..x.len() {
            if !self.meter.tick() {
                return;
            }
            let sub: Vec<u32> = support
                .iter()
                .copied()
                .filter(|&y| self.db[y as usize][i] > x[i])
                .collect();
            if sub.len() < self.cfg.min_support {
                self.stats.pruned_support += 1;
                continue;
            }
            let rows = || sub.iter().map(|&y| self.db[y as usize].as_slice());
            let x2 = floor_of(rows());
            if (0..i).any(|j| x2[j] > x[j]) {
                self.stats.pruned_duplicate += 1;
                continue;
            }
            if self.cfg.optimistic_pruning
                && self.model.p_value(&ceiling_of(rows()), sub.len() as u64) > self.cfg.max_pvalue
            {
                self.stats.pruned_optimistic += 1;
                continue;
            }
            self.visit(&x2, &sub, i);
        }
    }
}

/// One isomorphism class found by [`brute_frequent_subgraphs`].
pub struct BruteClass {
    /// The first-enumerated member of the class.
    pub graph: Graph,
    /// Ids of the database graphs containing it, ascending.
    pub gids: Vec<u32>,
}

/// Every connected subgraph with `1..=max_edges` edges that occurs in at
/// least `min_support` graphs of `db`, one entry per isomorphism class.
///
/// Enumerates every connected edge subset of every graph, groups the
/// subsets by [`brute_isomorphic`], and counts each class's support with
/// [`brute_contains`]. Classes come out in first-enumeration order.
///
/// # Panics
/// Panics on a graph with more than 16 edges (the enumeration is
/// exponential in the edge count).
pub fn brute_frequent_subgraphs(
    db: &GraphDb,
    min_support: usize,
    max_edges: usize,
) -> Vec<BruteClass> {
    let mut classes: Vec<Graph> = Vec::new();
    for g in db.graphs() {
        let m = g.edge_count();
        assert!(
            m <= 16,
            "brute_frequent_subgraphs takes at most 16 edges per graph"
        );
        for mask in 1u32..(1 << m) {
            if mask.count_ones() as usize > max_edges {
                continue;
            }
            let edges: Vec<_> = (0..m)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| g.edges()[i])
                .collect();
            let pairs: Vec<(NodeId, NodeId)> = edges.iter().map(|e| (e.u, e.v)).collect();
            if !connected(&pairs) {
                continue;
            }
            // Relabel the subset's endpoints 0.. in ascending id order.
            let mut nodes: Vec<NodeId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let id = |v: NodeId| nodes.binary_search(&v).expect("endpoint collected") as NodeId;
            let mut b = GraphBuilder::new();
            for &v in &nodes {
                b.add_node(g.node_label(v));
            }
            for e in &edges {
                b.add_edge(id(e.u), id(e.v), e.label);
            }
            let sub = b.build();
            if !classes.iter().any(|c| brute_isomorphic(c, &sub)) {
                classes.push(sub);
            }
        }
    }
    classes
        .into_iter()
        .filter_map(|graph| {
            let gids: Vec<u32> = (0..db.len() as u32)
                .filter(|&gid| brute_contains(db.graph(gid as usize), &graph))
                .collect();
            (gids.len() >= min_support).then_some(BruteClass { graph, gids })
        })
        .collect()
}

/// Whether a non-empty edge list forms one connected component: absorb
/// edges touching the reached node set until none is left or none fits.
fn connected(edges: &[(NodeId, NodeId)]) -> bool {
    let mut reached = vec![edges[0].0];
    let mut left = edges.to_vec();
    loop {
        let before = left.len();
        left.retain(|&(u, v)| {
            if reached.contains(&u) || reached.contains(&v) {
                reached.extend([u, v]);
                false
            } else {
                true
            }
        });
        if left.is_empty() {
            return true;
        }
        if left.len() == before {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(labels: &[u16], el: u16) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = labels.iter().map(|&l| b.add_node(l)).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], el);
        }
        b.build()
    }

    #[test]
    fn brute_contains_on_hand_checked_pairs() {
        let target = path(&[0, 1, 0], 5);
        assert!(brute_contains(&target, &path(&[1, 0], 5)));
        assert!(brute_contains(&target, &path(&[0, 1, 0], 5)));
        assert!(!brute_contains(&target, &path(&[0, 0], 5))); // labels
        assert!(!brute_contains(&target, &path(&[1, 0], 6))); // edge label
        assert!(!brute_contains(&target, &path(&[0, 1, 0, 1], 5))); // size
        assert!(brute_contains(&target, &GraphBuilder::new().build()));
        // Two label-1 pattern nodes need two distinct target nodes.
        let mut b = GraphBuilder::new();
        b.add_node(1);
        b.add_node(1);
        assert!(!brute_contains(&target, &b.build()));
    }

    #[test]
    fn brute_miner_counts_a_hand_checked_database() {
        // Paths 0-1-0 and 0-1: classes {0-1} in both graphs, {0-1-0} in
        // the first only.
        let mut db = GraphDb::new();
        db.push(path(&[0, 1, 0], 5));
        db.push(path(&[0, 1], 5));
        let all = brute_frequent_subgraphs(&db, 1, 4);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].graph.edge_count(), 1);
        assert_eq!(all[0].gids, vec![0, 1]);
        assert_eq!(all[1].gids, vec![0]);
        let frequent = brute_frequent_subgraphs(&db, 2, 4);
        assert_eq!(frequent.len(), 1);
        assert!(brute_frequent_subgraphs(&db, 1, 1)
            .iter()
            .all(|c| c.graph.edge_count() == 1));
    }

    #[test]
    fn reference_rwr_matches_the_path_closed_form() {
        // Path 0-1-2 from node 0 at α = 1/4: π = (23, 24, 9)/56, and the
        // two edge features split 5/8 : 3/8.
        let mut db = GraphDb::new();
        db.push(path(&[0, 1, 2], 0));
        let pi = reference_rwr_distribution(db.graph(0), 0, 0.25);
        for (p, want) in pi.iter().zip([23.0, 24.0, 9.0]) {
            assert!((p - want / 56.0).abs() < 1e-11, "{pi:?}");
        }
        let fs = FeatureSet::for_chemical(&db, 3);
        let d = reference_feature_distribution(db.graph(0), 0, &fs, 0.25);
        let ab = d[fs.edge_feature(0, 0, 1).unwrap()];
        let bc = d[fs.edge_feature(1, 0, 2).unwrap()];
        assert!((ab - 0.625).abs() < 1e-11 && (bc - 0.375).abs() < 1e-11);
    }

    #[test]
    fn connectivity_of_edge_lists() {
        assert!(connected(&[(0, 1)]));
        assert!(connected(&[(2, 3), (0, 1), (1, 2)]));
        assert!(!connected(&[(0, 1), (2, 3)]));
    }
}
