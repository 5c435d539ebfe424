//! Minimum DFS codes: gSpan's canonical form.
//!
//! The minimum DFS code of a connected labeled graph is computed by a
//! restricted self-projection: starting from the lexicographically smallest
//! single-edge code, repeatedly take the smallest legal extension across all
//! surviving embeddings of the current prefix in the graph itself. Because
//! only the minimal branch is followed, the loop runs exactly `|E|` steps.
//!
//! [`is_min`] runs the same loop against a candidate code with early exit at
//! the first divergence — the pruning test at every gSpan search node.
//!
//! This is the single hottest routine in the FSG baseline (every candidate
//! is canonicalized at least once), so the inner loop avoids per-embedding
//! work: the code-side extension frame is computed once per level, and for
//! graphs with ≤128 nodes and ≤128 edges (every molecule in practice) the
//! used-node/used-edge sets are `u128` bitmasks instead of heap-allocated
//! `Vec<bool>`s, making embedding extension a couple of register ops.

use crate::dfs_code::{extension_order, DfsCode, DfsEdge};
use crate::extend::{enumerate_extensions_framed, ExtFrame, Extension};
use graphsig_graph::invariant::{pinned_automorphism, refine};
use graphsig_graph::{Graph, NodeId};

/// Backtracking-assignment cap for one pinned automorphism check during
/// embedding pruning. Generous for molecule-sized graphs; on overrun the
/// check gives up and the embedding is kept (sound, just less pruning).
const AUT_SEARCH_BUDGET: usize = 2_000;

/// Membership sets for one self-embedding: which graph nodes and edges the
/// matched prefix occupies. Two backings — dense bitmasks for small graphs,
/// `Vec<bool>` for arbitrarily large ones — selected once per graph.
trait UsedSets: Clone {
    fn empty(nodes: usize, edges: usize) -> Self;
    fn add_node(&mut self, n: NodeId);
    fn add_edge(&mut self, e: u32);
    fn has_node(&self, n: NodeId) -> bool;
    fn has_edge(&self, e: u32) -> bool;
}

/// Bitmask backing: valid only when both counts fit in 128 bits.
#[derive(Clone, Copy)]
struct MaskSets {
    nodes: u128,
    edges: u128,
}

impl UsedSets for MaskSets {
    fn empty(nodes: usize, edges: usize) -> Self {
        debug_assert!(nodes <= 128 && edges <= 128);
        MaskSets { nodes: 0, edges: 0 }
    }
    fn add_node(&mut self, n: NodeId) {
        self.nodes |= 1u128 << n;
    }
    fn add_edge(&mut self, e: u32) {
        self.edges |= 1u128 << e;
    }
    fn has_node(&self, n: NodeId) -> bool {
        self.nodes >> n & 1 != 0
    }
    fn has_edge(&self, e: u32) -> bool {
        self.edges >> e & 1 != 0
    }
}

/// General backing for graphs too large for [`MaskSets`].
#[derive(Clone)]
struct VecSets {
    nodes: Vec<bool>,
    edges: Vec<bool>,
}

impl UsedSets for VecSets {
    fn empty(nodes: usize, edges: usize) -> Self {
        VecSets {
            nodes: vec![false; nodes],
            edges: vec![false; edges],
        }
    }
    fn add_node(&mut self, n: NodeId) {
        self.nodes[n as usize] = true;
    }
    fn add_edge(&mut self, e: u32) {
        self.edges[e as usize] = true;
    }
    fn has_node(&self, n: NodeId) -> bool {
        self.nodes[n as usize]
    }
    fn has_edge(&self, e: u32) -> bool {
        self.edges[e as usize]
    }
}

/// One embedding of a code prefix into the graph itself.
#[derive(Clone)]
struct SelfEmb<S> {
    /// `nodes[dfs_index] = graph node`.
    nodes: Vec<NodeId>,
    used: S,
}

impl<S: UsedSets> SelfEmb<S> {
    fn extended(&self, ext: &Extension) -> SelfEmb<S> {
        let mut e = self.clone();
        if ext.dfs.is_forward() {
            debug_assert_eq!(e.nodes.len(), ext.dfs.to as usize);
            e.nodes.push(ext.gto);
            e.used.add_node(ext.gto);
        }
        e.used.add_edge(ext.edge);
        e
    }
}

/// Drop initial embeddings that are automorphic images of an earlier kept
/// one. Two automorphic embeddings of the initial edge generate *identical*
/// extension streams at every level of the self-projection (an automorphism
/// maps legal extensions of one prefix embedding bijectively onto legal
/// extensions of the other, preserving every DFS-edge tuple), so the
/// minimum over the pruned set equals the minimum over the full set and
/// the resulting code — or is_min verdict — is byte-identical.
///
/// The filter is exact: WL orbit colors cheaply separate provably
/// non-automorphic pairs (different colors ⇒ different orbits ⇒ keep), and
/// a bounded [`pinned_automorphism`] search confirms the rest. A failed or
/// over-budget search keeps the embedding — sound in both directions.
/// Do any two initial embeddings share the `(deg(from), deg(to))`
/// signature? Automorphic duplicates must (automorphisms preserve
/// degrees), so a `false` here proves the embedding set is already
/// duplicate-free and the refinement pass can be skipped. O(k²) over the
/// handful of starting embeddings, with no allocation.
fn has_degree_twin<S: UsedSets>(g: &Graph, embs: &[SelfEmb<S>]) -> bool {
    let sig = |emb: &SelfEmb<S>| (g.degree(emb.nodes[0]), g.degree(emb.nodes[1]));
    embs.iter().enumerate().any(|(i, a)| {
        let sa = sig(a);
        embs[..i].iter().any(|b| sig(b) == sa)
    })
}

fn prune_automorphic_embeddings<S: UsedSets>(g: &Graph, embs: &mut Vec<SelfEmb<S>>) {
    let colors = refine(g).colors;
    let mut kept: Vec<(NodeId, NodeId)> = Vec::with_capacity(embs.len());
    embs.retain(|emb| {
        let (from, to) = (emb.nodes[0], emb.nodes[1]);
        let dup = kept.iter().any(|&(kf, kt)| {
            colors[from as usize] == colors[kf as usize]
                && colors[to as usize] == colors[kt as usize]
                && pinned_automorphism(g, &colors, &[(from, kf), (to, kt)], AUT_SEARCH_BUDGET)
        });
        if !dup {
            kept.push((from, to));
        }
        !dup
    });
}

/// Shared driver: either record the minimum code (check = `None`) or verify
/// a candidate prefix-by-prefix, returning `None` on the first mismatch.
/// With `prune`, automorphic-duplicate starting embeddings are discarded
/// (see [`prune_automorphic_embeddings`] for why output is unchanged).
fn build_min_with<S: UsedSets>(g: &Graph, check: Option<&DfsCode>, prune: bool) -> Option<DfsCode> {
    // Minimum initial edge over all directed orientations.
    let mut best_key: Option<(u16, u16, u16)> = None;
    for e in g.edges() {
        let (lu, lv) = (g.node_label(e.u), g.node_label(e.v));
        for (a, b) in [(lu, lv), (lv, lu)] {
            let key = (a, e.label, b);
            if best_key.is_none_or(|bk| key < bk) {
                best_key = Some(key);
            }
        }
    }
    let (la, le, lb) = best_key.expect("graph has edges");
    let mut code = DfsCode::from_initial(la, le, lb);
    if let Some(c) = check {
        if c.edges().first() != code.edges().first() {
            return None;
        }
    }

    // Embeddings of the initial edge.
    let mut embs: Vec<SelfEmb<S>> = Vec::new();
    for e in g.edges() {
        let (lu, lv) = (g.node_label(e.u), g.node_label(e.v));
        for (from, to, lf, lt) in [(e.u, e.v, lu, lv), (e.v, e.u, lv, lu)] {
            if (lf, e.label, lt) == (la, le, lb) {
                let mut used = S::empty(g.node_count(), g.edge_count());
                used.add_node(from);
                used.add_node(to);
                let eid = g
                    .neighbors(from)
                    .iter()
                    .find(|a| a.to == to)
                    .expect("edge exists")
                    .edge;
                used.add_edge(eid);
                embs.push(SelfEmb {
                    nodes: vec![from, to],
                    used,
                });
            }
        }
    }

    // Pruning pays when several embeddings survive the whole projection
    // (symmetric graphs); a single-edge graph never enters the loop at all.
    // In check mode most candidates diverge within a level or two, so
    // demand more duplicates before spending a refinement pass. The
    // degree-signature pre-filter skips the refinement pass entirely when
    // no two embeddings could possibly be automorphic images (an
    // automorphism preserves degrees), which is the common asymmetric
    // case — there the pruning attempt would be pure overhead.
    let prune_threshold = if check.is_some() { 8 } else { 6 };
    if prune && g.edge_count() >= 2 && embs.len() >= prune_threshold && has_degree_twin(g, &embs) {
        prune_automorphic_embeddings(g, &mut embs);
    }

    while code.len() < g.edge_count() {
        // Smallest extension across all embeddings. The extension frame
        // depends only on the code, so compute it once per level rather
        // than once per embedding.
        let frame = ExtFrame::of(&code);
        let mut best: Option<DfsEdge> = None;
        let mut best_children: Vec<SelfEmb<S>> = Vec::new();
        for emb in &embs {
            enumerate_extensions_framed(
                g,
                &frame,
                &emb.nodes,
                |n| emb.used.has_node(n),
                |e| emb.used.has_edge(e),
                &mut |ext| match &best {
                    Some(b) => match extension_order(&ext.dfs, b) {
                        std::cmp::Ordering::Less => {
                            best = Some(ext.dfs);
                            best_children.clear();
                            best_children.push(emb.extended(&ext));
                        }
                        std::cmp::Ordering::Equal => best_children.push(emb.extended(&ext)),
                        std::cmp::Ordering::Greater => {}
                    },
                    None => {
                        best = Some(ext.dfs);
                        best_children.push(emb.extended(&ext));
                    }
                },
            );
        }
        let best = best.expect("connected graph always extends until all edges used");
        if let Some(c) = check {
            if c.edges()[code.len()] != best {
                return None;
            }
        }
        code.push(best);
        embs = best_children;
    }
    Some(code)
}

/// Backing dispatch: bitmask embeddings whenever they fit, `Vec<bool>`
/// otherwise. Both paths walk identical extension orders, so the resulting
/// code is independent of the backing.
fn build_min(g: &Graph, check: Option<&DfsCode>, prune: bool) -> Option<DfsCode> {
    if g.edge_count() == 0 {
        // Edgeless graphs have the empty code; a candidate must be empty too.
        return match check {
            Some(c) if !c.is_empty() => None,
            _ => Some(DfsCode::new()),
        };
    }
    if g.node_count() <= 128 && g.edge_count() <= 128 {
        build_min_with::<MaskSets>(g, check, prune)
    } else {
        build_min_with::<VecSets>(g, check, prune)
    }
}

/// The canonical (minimum) DFS code of a connected labeled graph.
///
/// Two graphs are isomorphic iff their minimum DFS codes are equal, making
/// this the dedup key used throughout the workspace. Edgeless graphs yield
/// the empty code.
///
/// # Panics
/// Panics if the graph is not connected (disconnected graphs have no DFS
/// code).
pub fn min_dfs_code(g: &Graph) -> DfsCode {
    assert!(g.is_connected(), "min_dfs_code requires a connected graph");
    build_min(g, None, true).expect("building without a check cannot fail")
}

/// [`min_dfs_code`] with automorphism-orbit embedding pruning disabled —
/// the straight-line reference the proptests and `bench_canon` compare the
/// pruned production path against. Byte-identical output by construction.
pub fn min_dfs_code_unpruned(g: &Graph) -> DfsCode {
    assert!(g.is_connected(), "min_dfs_code requires a connected graph");
    build_min(g, None, false).expect("building without a check cannot fail")
}

/// Whether `code` is the minimum DFS code of the graph it describes.
///
/// This is the gSpan pruning test: a search node whose code is not minimal
/// repeats a pattern already reached through its canonical code and the
/// whole subtree can be skipped.
pub fn is_min(code: &DfsCode) -> bool {
    if code.is_empty() {
        return true;
    }
    build_min(&code.to_graph(), Some(code), true).is_some()
}

/// [`is_min`] with embedding pruning disabled (differential-testing
/// reference, like [`min_dfs_code_unpruned`]).
pub fn is_min_unpruned(code: &DfsCode) -> bool {
    if code.is_empty() {
        return true;
    }
    let g = code.to_graph();
    build_min(&g, Some(code), false).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::{are_isomorphic, GraphBuilder};

    fn cycle(labels: &[u16], el: u16) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = labels.iter().map(|&l| b.add_node(l)).collect();
        for i in 0..n.len() {
            b.add_edge(n[i], n[(i + 1) % n.len()], el);
        }
        b.build()
    }

    fn labeled_path(labels: &[u16], elabels: &[u16]) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = labels.iter().map(|&l| b.add_node(l)).collect();
        for (i, &el) in elabels.iter().enumerate() {
            b.add_edge(n[i], n[i + 1], el);
        }
        b.build()
    }

    #[test]
    fn single_edge_canonical_orientation() {
        let g = labeled_path(&[5, 2], &[7]);
        let c = min_dfs_code(&g);
        assert_eq!(c.edges(), &[DfsEdge::new(0, 1, 2, 7, 5)]);
    }

    #[test]
    fn code_roundtrips_to_isomorphic_graph() {
        let g = cycle(&[0, 1, 2, 1], 3);
        let c = min_dfs_code(&g);
        assert_eq!(c.len(), g.edge_count());
        assert!(are_isomorphic(&c.to_graph(), &g));
    }

    #[test]
    fn isomorphic_graphs_share_min_code() {
        // Same triangle built with different node orders.
        let a = cycle(&[3, 1, 2], 9);
        let b = cycle(&[1, 2, 3], 9);
        let c = cycle(&[2, 3, 1], 9);
        let code = min_dfs_code(&a);
        assert_eq!(code, min_dfs_code(&b));
        assert_eq!(code, min_dfs_code(&c));
    }

    #[test]
    fn non_isomorphic_graphs_differ() {
        let tri = cycle(&[0, 0, 0], 1);
        let path = labeled_path(&[0, 0, 0], &[1, 1]);
        assert_ne!(min_dfs_code(&tri), min_dfs_code(&path));
        let p12 = labeled_path(&[0, 0, 0], &[1, 2]);
        let p11 = labeled_path(&[0, 0, 0], &[1, 1]);
        assert_ne!(min_dfs_code(&p12), min_dfs_code(&p11));
    }

    #[test]
    fn min_code_is_min() {
        for g in [
            cycle(&[0, 1, 2, 3, 4, 5], 1),
            labeled_path(&[9, 8, 7, 8, 9], &[1, 2, 2, 1]),
            cycle(&[0, 0, 0, 0], 0),
        ] {
            assert!(is_min(&min_dfs_code(&g)));
        }
    }

    #[test]
    fn non_minimal_code_detected() {
        // Path a(0)-b(1)-c(2): starting the DFS at the 'c' end gives a
        // larger code than starting at the 'a' end.
        let mut bad = DfsCode::from_initial(2, 0, 1);
        bad.push(DfsEdge::new(1, 2, 1, 0, 0));
        assert!(!is_min(&bad));
        let mut good = DfsCode::from_initial(0, 0, 1);
        good.push(DfsEdge::new(1, 2, 1, 0, 2));
        assert!(is_min(&good));
    }

    #[test]
    fn empty_code_is_min() {
        assert!(is_min(&DfsCode::new()));
    }

    #[test]
    fn benzene_ring_canonical() {
        // All-same-label 6-ring: min code is forward path of 5 edges plus
        // one backward closure to the root.
        let g = cycle(&[0; 6], 1);
        let c = min_dfs_code(&g);
        assert_eq!(c.len(), 6);
        let back_edges: Vec<_> = c.edges().iter().filter(|e| !e.is_forward()).collect();
        assert_eq!(back_edges.len(), 1);
        assert_eq!(back_edges[0].to, 0);
        assert!(is_min(&c));
    }

    #[test]
    fn mask_and_vec_backings_agree() {
        // Both backings must produce the same canonical code; graphs here
        // are small so the mask path is the default — force the Vec path
        // explicitly and compare.
        for g in [
            cycle(&[0, 1, 2, 1, 0, 2], 1),
            labeled_path(&[4, 3, 2, 1, 0], &[1, 1, 2, 2]),
            cycle(&[0; 6], 1),
        ] {
            let mask = build_min_with::<MaskSets>(&g, None, true).unwrap();
            let vec = build_min_with::<VecSets>(&g, None, true).unwrap();
            assert_eq!(mask, vec);
        }
    }

    #[test]
    fn pruned_and_unpruned_agree_on_symmetric_graphs() {
        // Highly symmetric graphs exercise the orbit pruning hardest: the
        // 6-ring has 12 automorphic initial embeddings that collapse to 1.
        for g in [
            cycle(&[0; 6], 1),
            cycle(&[0, 1, 0, 1], 2),
            labeled_path(&[3, 3, 3, 3], &[1, 1, 1]),
            labeled_path(&[9, 8, 7, 8, 9], &[1, 2, 2, 1]),
            cycle(&[0, 0, 1, 0, 0, 1], 1),
        ] {
            let pruned = min_dfs_code(&g);
            let unpruned = min_dfs_code_unpruned(&g);
            assert_eq!(pruned, unpruned);
            assert!(is_min(&pruned));
            assert!(is_min_unpruned(&pruned));
        }
    }

    #[test]
    fn pruned_and_unpruned_is_min_agree_on_non_minimal_codes() {
        let mut bad = DfsCode::from_initial(0, 1, 0);
        bad.push(DfsEdge::new(0, 2, 0, 1, 0));
        bad.push(DfsEdge::new(2, 3, 0, 1, 0));
        assert_eq!(is_min(&bad), is_min_unpruned(&bad));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(0);
        min_dfs_code(&b.build());
    }
}
