//! Subgraph isomorphism: one compiled bitset engine.
//!
//! Frequent-subgraph semantics in gSpan/FSG — and hence in GraphSig's
//! `MaximalFSM` step — are *subgraph monomorphism*: an injective mapping of
//! pattern nodes into target nodes that preserves node labels and maps every
//! pattern edge onto a target edge with the same label (extra target edges
//! are allowed). The paper relies on this for support counting, for the
//! classifier baselines' pattern features, and for pruning non-maximal
//! patterns.
//!
//! Every containment and whole-graph isomorphism test in the workspace runs
//! the same engine, [`MultiMatcher`]: the pattern is compiled once into a
//! connected path-at-a-time match plan, the target into label-bucketed
//! bitsets ([`CompiledGraph`]), and the search pops candidates from frames
//! built by intersecting those bitsets, so a candidate that is popped
//! already satisfies every label and back-edge constraint.

use crate::compiled::CompiledGraph;
use crate::graph::{Graph, NodeId};
use crate::labels::{EdgeLabel, NodeLabel};

/// The isomorphism engine behind [`MultiMatcher`]. There is one.
///
/// Compatibility name only: the benchmark crate still names
/// `MatcherKind::default()` and the `matcher` config fields of that type.
/// It carries no choice and is removed with those uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherKind {
    /// The compiled bitset engine.
    #[default]
    Fast,
}

/// Result of a *bounded* isomorphism search
/// ([`MultiMatcher::exists_in_counted`]).
///
/// Dense pathological pairs — e.g. label-uniform cliques — can make the
/// backtracking search take exponentially long. Bounded searches charge one
/// step per candidate trial and give up with [`MatchOutcome::Indeterminate`]
/// once the step cap is hit: the pattern may or may not occur, the search
/// could not afford to decide. Callers under a budget typically treat
/// `Indeterminate` conservatively (e.g. "not supported") and mark the
/// result truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// An embedding was found within the step cap.
    Matched,
    /// The full search space was exhausted without finding an embedding.
    Unmatched,
    /// The step cap was hit before the search could decide.
    Indeterminate,
}

impl MatchOutcome {
    /// `true` iff an embedding was definitely found.
    pub fn is_match(&self) -> bool {
        matches!(self, MatchOutcome::Matched)
    }
}

/// One pattern matched against many targets.
///
/// The pattern is compiled into its match plan once, at construction, and
/// the search buffers (plus a compiled-target scratch for plain [`Graph`]
/// targets) are kept warm across calls, so support-counting loops — one
/// candidate against every TID-list graph — pay no per-target setup beyond
/// compiling the target.
///
/// # Example
///
/// ```
/// use graphsig_graph::{GraphBuilder, MultiMatcher};
/// let mut b = GraphBuilder::new();
/// let u = b.add_node(0);
/// let v = b.add_node(0);
/// b.add_edge(u, v, 7);
/// let pattern = b.build();
/// let mut b = GraphBuilder::new();
/// let n: Vec<_> = (0..3).map(|_| b.add_node(0)).collect();
/// b.add_edge(n[0], n[1], 7);
/// b.add_edge(n[1], n[2], 7);
/// let target = b.build();
/// let mut m = MultiMatcher::new(&pattern);
/// assert!(m.exists_in(&target));
/// assert!(m.exists_in(&target)); // buffers reused, same answer
/// ```
pub struct MultiMatcher<'p> {
    pattern: &'p Graph,
    plan: MatchPlan,
    compiled: CompiledGraph,
    scratch: Scratch,
}

impl<'p> MultiMatcher<'p> {
    /// Prepare a matcher for `pattern`; the match plan is built here and
    /// reused across all targets.
    pub fn new(pattern: &'p Graph) -> Self {
        Self {
            pattern,
            plan: MatchPlan::new(pattern),
            compiled: CompiledGraph::default(),
            scratch: Scratch::default(),
        }
    }

    /// Whether the pattern occurs in `target` (subgraph monomorphism).
    pub fn exists_in(&mut self, target: &Graph) -> bool {
        self.exists_in_counted(target, u64::MAX).0.is_match()
    }

    /// Bounded existence test against `target`: at most `max_steps`
    /// candidate trials, then [`MatchOutcome::Indeterminate`]. Also
    /// returns how many trials were used, so budgeted support-counting
    /// loops can charge the cost of each match against their
    /// [`crate::control::Meter`].
    ///
    /// One step is charged per candidate popped from a *filtered* frame;
    /// an empty frame costs nothing. Counts are deterministic for a given
    /// `(pattern, target, max_steps)`, and the trivial cases cost zero:
    /// empty pattern `(Matched, 0)`, pattern larger than the target
    /// `(Unmatched, 0)`.
    pub fn exists_in_counted(&mut self, target: &Graph, max_steps: u64) -> (MatchOutcome, u64) {
        if let Some(trivial) =
            trivial_outcome(self.pattern, target.node_count(), target.edge_count())
        {
            return trivial;
        }
        self.compiled.compile_from(target);
        search(&self.plan, &self.compiled, &mut self.scratch, max_steps)
    }

    /// Whether the pattern occurs in the pre-compiled `target`.
    pub fn exists_in_compiled(&mut self, target: &CompiledGraph) -> bool {
        self.exists_in_counted_compiled(target, u64::MAX)
            .0
            .is_match()
    }

    /// [`Self::exists_in_counted`] against a pre-compiled target, skipping
    /// the per-call compilation. This is the hot path for support counting
    /// over a [`crate::compiled::CompiledDb`]; it spends exactly the steps
    /// the plain-target call spends.
    pub fn exists_in_counted_compiled(
        &mut self,
        target: &CompiledGraph,
        max_steps: u64,
    ) -> (MatchOutcome, u64) {
        if let Some(trivial) =
            trivial_outcome(self.pattern, target.node_count(), target.edge_count())
        {
            return trivial;
        }
        search(&self.plan, target, &mut self.scratch, max_steps)
    }

    /// The first embedding the search finds in `target`, indexed by
    /// pattern node (`map[pattern_node] = target_node`), or `None` when
    /// the pattern does not occur.
    pub fn first_embedding(&mut self, target: &Graph) -> Option<Vec<NodeId>> {
        if !self.exists_in(target) {
            return None;
        }
        let mut map = vec![0; self.plan.len()];
        for (pos, &p) in self.plan.order.iter().enumerate() {
            map[p as usize] = self.scratch.map[pos];
        }
        Some(map)
    }
}

/// The zero-cost early decisions: an empty pattern matches anything, and a
/// pattern larger than the target (nodes or edges) matches nothing.
/// Returns `None` when a real search is needed.
fn trivial_outcome(
    pattern: &Graph,
    target_nodes: usize,
    target_edges: usize,
) -> Option<(MatchOutcome, u64)> {
    let pn = pattern.node_count();
    if pn == 0 {
        return Some((MatchOutcome::Matched, 0));
    }
    if pn > target_nodes || pattern.edge_count() > target_edges {
        return Some((MatchOutcome::Unmatched, 0));
    }
    None
}

/// Pattern-side compilation: a connected path-at-a-time matching order
/// plus, per position, everything the inner loop needs — the node label
/// (candidate bucket), a degree lower bound, and *all* back edges to
/// earlier positions (bitset intersection masks).
///
/// Order heuristic: each component is rooted at its highest-degree node;
/// growth extends from the most recently placed node that still has an
/// unplaced neighbor, preferring neighbors with more placed pattern
/// neighbors (more intersection masks sooner), then higher degree. Ties
/// break toward lower node ids so the plan — and therefore the engine's
/// step counts — are deterministic.
#[derive(Debug, Clone, Default)]
struct MatchPlan {
    /// Pattern node per position.
    order: Vec<NodeId>,
    /// Node label per position (selects the target's candidate bucket).
    labels: Vec<NodeLabel>,
    /// Pattern degree per position (candidate lower bound).
    degrees: Vec<u32>,
    /// Back edges per position: `(earlier position, edge label)`, ascending
    /// by position. Component roots have none.
    back: Vec<Vec<(usize, EdgeLabel)>>,
}

impl MatchPlan {
    fn new(pattern: &Graph) -> Self {
        let n = pattern.node_count();
        let mut placed = vec![false; n];
        let mut pos_of = vec![usize::MAX; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        while order.len() < n {
            let root = (0..n as NodeId)
                .filter(|&v| !placed[v as usize])
                .max_by_key(|&v| (pattern.degree(v), std::cmp::Reverse(v)))
                .expect("unplaced node must exist");
            placed[root as usize] = true;
            pos_of[root as usize] = order.len();
            order.push(root);
            loop {
                // Path-at-a-time: walk back from the most recently placed
                // node and extend from the first that still has an
                // unplaced neighbor, keeping the order chain-like.
                let mut chosen: Option<NodeId> = None;
                'from_recent: for &u in order.iter().rev() {
                    let mut best_key = None;
                    for a in pattern.neighbors(u) {
                        if placed[a.to as usize] {
                            continue;
                        }
                        let placed_nbrs = pattern
                            .neighbors(a.to)
                            .iter()
                            .filter(|b| placed[b.to as usize])
                            .count();
                        let key = (placed_nbrs, pattern.degree(a.to), std::cmp::Reverse(a.to));
                        if best_key.is_none_or(|b| key > b) {
                            best_key = Some(key);
                            chosen = Some(a.to);
                        }
                    }
                    if chosen.is_some() {
                        break 'from_recent;
                    }
                }
                let Some(v) = chosen else { break };
                placed[v as usize] = true;
                pos_of[v as usize] = order.len();
                order.push(v);
            }
        }
        let labels = order.iter().map(|&v| pattern.node_label(v)).collect();
        let degrees = order.iter().map(|&v| pattern.degree(v) as u32).collect();
        let back = order
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut b: Vec<(usize, EdgeLabel)> = pattern
                    .neighbors(v)
                    .iter()
                    .filter(|a| pos_of[a.to as usize] < i)
                    .map(|a| (pos_of[a.to as usize], a.label))
                    .collect();
                b.sort_unstable();
                b
            })
            .collect();
        Self {
            order,
            labels,
            degrees,
            back,
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

/// Reusable buffers for the backtracking loop: one candidate
/// bitset frame per plan position, the used-node bitset, and the partial
/// map (target node per position). All are resized per target and fully
/// rewritten per search, so no cross-call reset is needed.
#[derive(Debug, Clone, Default)]
struct Scratch {
    frames: Vec<u64>,
    used: Vec<u64>,
    map: Vec<NodeId>,
}

/// Pop the lowest set bit of `frame`, returning its index.
#[inline]
fn pop_lowest(frame: &mut [u64]) -> Option<NodeId> {
    for (wi, w) in frame.iter_mut().enumerate() {
        if *w != 0 {
            let b = w.trailing_zeros();
            *w &= *w - 1;
            return Some(wi as NodeId * 64 + b);
        }
    }
    None
}

/// Build the candidate frame for plan position `pos`: the target's bucket
/// for the position's node label, AND the adjacency row of every back
/// edge's image, AND-NOT the used set. A label or edge label absent from
/// the target zeroes the frame (no candidates, zero steps charged).
fn build_frame(
    plan: &MatchPlan,
    target: &CompiledGraph,
    frames: &mut [u64],
    used: &[u64],
    map: &[NodeId],
    pos: usize,
) {
    let words = target.word_count();
    let frame = &mut frames[pos * words..(pos + 1) * words];
    match target.bucket(plan.labels[pos]) {
        Some(bucket) => frame.copy_from_slice(bucket),
        None => {
            frame.fill(0);
            return;
        }
    }
    for &(bpos, el) in &plan.back[pos] {
        match target.adj_row(map[bpos], el) {
            Some(row) => {
                for (f, r) in frame.iter_mut().zip(row) {
                    *f &= r;
                }
            }
            None => {
                frame.fill(0);
                return;
            }
        }
    }
    for (f, u) in frame.iter_mut().zip(used) {
        *f &= !u;
    }
}

/// The search loop: pop candidates from filtered bitset frames, descending
/// a position on success and backtracking when a frame runs dry. Charges
/// one step per popped candidate — an empty frame costs nothing — and
/// reports `(outcome, steps used)`.
fn search(
    plan: &MatchPlan,
    target: &CompiledGraph,
    scratch: &mut Scratch,
    max_steps: u64,
) -> (MatchOutcome, u64) {
    let n = plan.len();
    let words = target.word_count();
    scratch.frames.clear();
    scratch.frames.resize(n * words, 0);
    scratch.used.clear();
    scratch.used.resize(words, 0);
    scratch.map.clear();
    scratch.map.resize(n, u32::MAX);
    let Scratch { frames, used, map } = scratch;

    let mut remaining = max_steps;
    let mut depth = 0usize;
    build_frame(plan, target, frames, used, map, 0);
    let outcome = loop {
        match pop_lowest(&mut frames[depth * words..(depth + 1) * words]) {
            Some(v) => {
                if remaining == 0 {
                    break MatchOutcome::Indeterminate;
                }
                remaining -= 1;
                if target.degree(v) < plan.degrees[depth] {
                    continue;
                }
                map[depth] = v;
                if depth + 1 == n {
                    break MatchOutcome::Matched;
                }
                used[v as usize / 64] |= 1u64 << (v % 64);
                build_frame(plan, target, frames, used, map, depth + 1);
                depth += 1;
            }
            None => {
                if depth == 0 {
                    break MatchOutcome::Unmatched;
                }
                depth -= 1;
                let v = map[depth];
                used[v as usize / 64] &= !(1u64 << (v % 64));
            }
        }
    };
    (outcome, max_steps - remaining)
}

/// Whether `pattern` occurs in `target` (subgraph monomorphism).
pub fn contains(target: &Graph, pattern: &Graph) -> bool {
    MultiMatcher::new(pattern).exists_in(target)
}

/// Whole-graph isomorphism test.
///
/// Two graphs with equal node and edge counts are isomorphic iff a
/// monomorphism exists from one into the other (an injective node map that
/// covers all nodes and whose edge image covers all edges). Cheap invariant
/// checks reject most non-isomorphic pairs before the search.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.node_count() != b.node_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    if a.sorted_node_labels() != b.sorted_node_labels() {
        return false;
    }
    if a.sorted_edge_signature() != b.sorted_edge_signature() {
        return false;
    }
    contains(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn edge_graph(ul: u16, el: u16, vl: u16) -> Graph {
        let mut b = GraphBuilder::new();
        let u = b.add_node(ul);
        let v = b.add_node(vl);
        b.add_edge(u, v, el);
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

    fn cycle(labels: &[u16], el: u16) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = labels.iter().map(|&l| b.add_node(l)).collect();
        for i in 0..n.len() {
            b.add_edge(n[i], n[(i + 1) % n.len()], el);
        }
        b.build()
    }

    #[test]
    fn single_edge_in_path() {
        let target = labeled_path(&[0, 1, 2], &[5, 6]);
        assert!(contains(&target, &edge_graph(0, 5, 1)));
        assert!(contains(&target, &edge_graph(1, 5, 0))); // symmetric
        assert!(!contains(&target, &edge_graph(0, 6, 1))); // wrong edge label
        assert!(!contains(&target, &edge_graph(0, 5, 2))); // wrong node label
    }

    #[test]
    fn monomorphism_not_induced() {
        // Pattern path a-b-c embeds in triangle a-b-c even though the
        // triangle has the extra closing edge (non-induced semantics).
        let target = cycle(&[0, 1, 2], 9);
        let pattern = labeled_path(&[0, 1, 2], &[9, 9]);
        assert!(contains(&target, &pattern));
    }

    #[test]
    fn triangle_not_in_path() {
        let target = labeled_path(&[0, 0, 0], &[9, 9]);
        let pattern = cycle(&[0, 0, 0], 9);
        assert!(!contains(&target, &pattern));
    }

    #[test]
    fn empty_pattern_always_matches() {
        let t = cycle(&[0, 0, 0], 9);
        let empty = GraphBuilder::new().build();
        assert!(contains(&t, &empty));
        assert_eq!(MultiMatcher::new(&empty).first_embedding(&t), Some(vec![]));
    }

    #[test]
    fn pattern_larger_than_target_fails_fast() {
        let small = edge_graph(0, 0, 0);
        let big = cycle(&[0, 0, 0, 0], 0);
        assert!(!contains(&small, &big));
    }

    #[test]
    fn first_embedding_is_consistent() {
        let target = labeled_path(&[3, 4, 5, 4, 3], &[1, 1, 1, 1]);
        let pattern = labeled_path(&[4, 5], &[1]);
        let mut m = MultiMatcher::new(&pattern);
        let emb = m.first_embedding(&target).unwrap();
        assert_eq!(emb.len(), 2);
        assert_eq!(target.node_label(emb[0]), 4);
        assert_eq!(target.node_label(emb[1]), 5);
        assert!(target.edge_label_between(emb[0], emb[1]) == Some(1));
        // Indexed by pattern node even when the plan visits node 1 first:
        // the root is the highest-degree node of a star.
        let mut b = GraphBuilder::new();
        let leaf = b.add_node(3);
        let hub = b.add_node(4);
        let other = b.add_node(5);
        b.add_edge(leaf, hub, 1);
        b.add_edge(hub, other, 1);
        let star = b.build();
        let emb = MultiMatcher::new(&star).first_embedding(&target).unwrap();
        assert_eq!(
            emb.iter()
                .map(|&v| target.node_label(v))
                .collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(target.edge_label_between(emb[0], emb[1]), Some(1));
        assert_eq!(target.edge_label_between(emb[1], emb[2]), Some(1));
        assert_eq!(
            MultiMatcher::new(&cycle(&[4, 5, 4], 1)).first_embedding(&target),
            None
        );
    }

    #[test]
    fn disconnected_pattern() {
        // Two isolated label-0 nodes must map to distinct target nodes.
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(0);
        let pattern = b.build();
        let mut b = GraphBuilder::new();
        b.add_node(0);
        let one = b.build();
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(0);
        let two = b.build();
        assert!(!contains(&one, &pattern));
        assert!(contains(&two, &pattern));
        let emb = MultiMatcher::new(&pattern).first_embedding(&two).unwrap();
        assert_ne!(emb[0], emb[1]);
    }

    #[test]
    fn isomorphism_positive_under_relabeling_of_ids() {
        // Same cycle built in different node orders.
        let a = cycle(&[1, 2, 3, 4], 7);
        let mut b = GraphBuilder::new();
        let n3 = b.add_node(3);
        let n4 = b.add_node(4);
        let n1 = b.add_node(1);
        let n2 = b.add_node(2);
        b.add_edge(n1, n2, 7);
        b.add_edge(n2, n3, 7);
        b.add_edge(n3, n4, 7);
        b.add_edge(n4, n1, 7);
        let c = b.build();
        assert!(are_isomorphic(&a, &c));
    }

    #[test]
    fn isomorphism_negative_cases() {
        let tri = cycle(&[0, 0, 0], 9);
        let path = labeled_path(&[0, 0, 0], &[9, 9]);
        assert!(!are_isomorphic(&tri, &path)); // edge count differs
        let c4 = cycle(&[0, 0, 0, 0], 9);
        let mut b = GraphBuilder::new();
        // Star K_{1,3}: same node count/labels, same edge count as C4? No,
        // star has 3 edges and C4 has 4, so build a "paw" instead: triangle
        // plus pendant (4 nodes, 4 edges) — degree sequence differs from C4.
        let n: Vec<_> = (0..4).map(|_| b.add_node(0)).collect();
        b.add_edge(n[0], n[1], 9);
        b.add_edge(n[1], n[2], 9);
        b.add_edge(n[0], n[2], 9);
        b.add_edge(n[2], n[3], 9);
        let paw = b.build();
        assert!(!are_isomorphic(&c4, &paw));
    }

    #[test]
    fn multi_matcher_agrees_with_subgraph_matcher() {
        // One matcher reused across targets of varying size agrees with a
        // fresh one-shot `contains` per pair, and keeps agreeing once its
        // buffers have been through every target.
        let targets = [
            labeled_path(&[0, 1, 2], &[5, 6]),
            cycle(&[0, 1, 2], 5),
            labeled_path(&[3, 4, 5, 4, 3], &[1, 1, 1, 1]),
            cycle(&[0, 0, 0, 0], 9),
            GraphBuilder::new().build(),
        ];
        let patterns = [
            edge_graph(0, 5, 1),
            edge_graph(1, 5, 0),
            edge_graph(0, 6, 1),
            labeled_path(&[0, 1, 2], &[5, 6]),
            cycle(&[0, 0, 0], 9),
            GraphBuilder::new().build(),
        ];
        let expected = [
            [true, true, false, false, false],
            [true, true, false, false, false],
            [false, false, false, false, false],
            [true, false, false, false, false],
            [false, false, false, false, false],
            [true, true, true, true, true],
        ];
        for (p, want) in patterns.iter().zip(expected) {
            let mut m = MultiMatcher::new(p);
            for _ in 0..2 {
                for (t, &w) in targets.iter().zip(&want) {
                    assert_eq!(contains(t, p), w);
                    assert_eq!(m.exists_in(t), w);
                }
            }
        }
    }

    #[test]
    fn compiled_targets_agree_with_plain_targets() {
        use crate::compiled::CompiledGraph;
        let targets = [
            labeled_path(&[0, 1, 2], &[5, 6]),
            cycle(&[0, 1, 2], 5),
            cycle(&[0, 0, 0, 0], 9),
        ];
        let patterns = [
            edge_graph(0, 5, 1),
            edge_graph(0, 6, 1),
            labeled_path(&[0, 1, 2], &[5, 6]),
            cycle(&[0, 0, 0], 9),
        ];
        for p in &patterns {
            let mut m = MultiMatcher::new(p);
            for t in &targets {
                let compiled = CompiledGraph::compile(t);
                assert_eq!(m.exists_in_compiled(&compiled), m.exists_in(t));
                assert_eq!(
                    m.exists_in_counted_compiled(&compiled, u64::MAX),
                    m.exists_in_counted(t, u64::MAX),
                );
            }
        }
    }

    fn clique(n: usize) -> Graph {
        // Label-uniform clique: every node is a candidate for every
        // pattern node.
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(0)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(nodes[i], nodes[j], 0);
            }
        }
        b.build()
    }

    fn complete_tripartite(part: usize) -> Graph {
        // K(part,part,part): dense and label-uniform but K4-free, so a K4
        // pattern forces the search to exhaust a large space and fail.
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..3 * part).map(|_| b.add_node(0)).collect();
        for i in 0..3 * part {
            for j in (i + 1)..3 * part {
                if i / part != j / part {
                    b.add_edge(n[i], n[j], 0);
                }
            }
        }
        b.build()
    }

    #[test]
    fn bounded_search_on_pathological_clique_pair() {
        let k4 = clique(4);
        let k9 = clique(9);
        let k333 = complete_tripartite(3);
        let mut mm = MultiMatcher::new(&k4);
        // Positive pair: found well within an unbounded search.
        let (out, used) = mm.exists_in_counted(&k9, u64::MAX);
        assert_eq!(out, MatchOutcome::Matched);
        assert!(used > 0);
        // Negative pair: the unbounded search proves absence...
        let (out, full) = mm.exists_in_counted(&k333, u64::MAX);
        assert_eq!(out, MatchOutcome::Unmatched);
        assert!(full > 10);
        // ...but a tight step cap gives up instead of grinding.
        assert_eq!(
            mm.exists_in_counted(&k333, 10),
            (MatchOutcome::Indeterminate, 10)
        );
        assert_eq!(
            mm.exists_in_counted(&k333, 0),
            (MatchOutcome::Indeterminate, 0)
        );
        // Bounded runs are deterministic: same cap, same outcome, and the
        // scratch buffers are restored after an aborted search.
        assert_eq!(
            mm.exists_in_counted(&k333, 10),
            (MatchOutcome::Indeterminate, 10)
        );
        assert!(mm.exists_in(&k9));
    }

    #[test]
    fn bounded_search_trivial_cases_cost_zero() {
        let empty = GraphBuilder::new().build();
        let e = edge_graph(0, 1, 0);
        let k4 = clique(4);
        let mut mm = MultiMatcher::new(&empty);
        assert_eq!(mm.exists_in_counted(&e, 0), (MatchOutcome::Matched, 0));
        // Pattern larger than target: rejected before any search step.
        let mut mm = MultiMatcher::new(&k4);
        assert_eq!(mm.exists_in_counted(&e, 0), (MatchOutcome::Unmatched, 0));
    }

    #[test]
    fn isomorphism_respects_edge_labels() {
        let a = labeled_path(&[0, 0, 0], &[1, 2]);
        let b = labeled_path(&[0, 0, 0], &[2, 1]);
        // These ARE isomorphic (reverse the path).
        assert!(are_isomorphic(&a, &b));
        let c = labeled_path(&[0, 0, 0], &[1, 1]);
        assert!(!are_isomorphic(&a, &c));
    }
}
