//! Compiled bitset target representation for the fast matching engine.
//!
//! Transaction graphs in GraphSig's setting are small (~25 vertices), so a
//! whole adjacency row fits in one or two `u64` words. [`CompiledGraph`]
//! precomputes, per target graph:
//!
//! * **label buckets** — for each distinct node label, the bitset of nodes
//!   carrying it (candidate seed sets for pattern roots);
//! * **bitset adjacency rows** — for each `(node, edge label)` pair, the
//!   bitset of neighbors reached over an edge with that label (candidate
//!   filters for back edges).
//!
//! The fast engine in [`crate::iso`] intersects these rows to propagate
//! candidate sets one AND at a time instead of scanning adjacency lists and
//! re-checking labels per candidate. Compilation is linear in the graph and
//! done once; [`CompiledDb`] caches one compiled form per database graph so
//! repeated support counts (FSG levels, threshold sweeps, warm server
//! requests) never re-derive it — see
//! [`LabelPairIndex::compiled_db`](crate::index::LabelPairIndex::compiled_db).
//! GraphSig's pipeline compiles its cut regions the same way, one
//! [`CompiledGraph`] per distinct region of a mine.

use crate::database::GraphDb;
use crate::graph::{Graph, NodeId};
use crate::labels::{EdgeLabel, NodeLabel};

/// Number of `u64` words needed for a bitset over `n` nodes.
#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// A target graph compiled to label-bucketed bitsets.
///
/// Rows are dense `u64` words; all per-graph bitsets share the same width
/// (`word_count()` words). Lookup keys (node labels, edge labels) resolve
/// through sorted distinct-label tables, so labels absent from the target
/// yield `None` and the search can reject without touching any bits.
#[derive(Debug, Clone, Default)]
pub struct CompiledGraph {
    /// Node count of the source graph.
    n: usize,
    /// Edge count of the source graph (for the cheap size fast-reject).
    edges: usize,
    /// Bitset width in `u64` words.
    words: usize,
    /// Degree of each node, by node id.
    degrees: Vec<u32>,
    /// Sorted distinct node labels present in the graph.
    nlabels: Vec<NodeLabel>,
    /// One bitset row per entry of `nlabels`: nodes carrying that label.
    buckets: Vec<u64>,
    /// Sorted distinct edge labels present in the graph.
    elabels: Vec<EdgeLabel>,
    /// `n * elabels.len()` bitset rows: `adj[(v * |elabels| + li) * words ..]`
    /// is the set of neighbors of `v` over edges labeled `elabels[li]`.
    adj: Vec<u64>,
}

impl CompiledGraph {
    /// Compile `g` into a fresh compiled form.
    pub fn compile(g: &Graph) -> Self {
        let mut c = Self::default();
        c.compile_from(g);
        c
    }

    /// Recompile in place, reusing the existing buffers. This is the
    /// scratch-reuse path `MultiMatcher` uses when matching against plain
    /// [`Graph`] targets.
    pub fn compile_from(&mut self, g: &Graph) {
        let n = g.node_count();
        let words = words_for(n);
        self.n = n;
        self.edges = g.edge_count();
        self.words = words;

        self.degrees.clear();
        self.degrees.extend(g.nodes().map(|v| g.degree(v) as u32));

        self.nlabels.clear();
        self.nlabels.extend_from_slice(g.node_labels());
        self.nlabels.sort_unstable();
        self.nlabels.dedup();
        self.buckets.clear();
        self.buckets.resize(self.nlabels.len() * words, 0);
        for (v, &l) in g.node_labels().iter().enumerate() {
            let li = self
                .nlabels
                .binary_search(&l)
                .expect("label interned above");
            self.buckets[li * words + v / 64] |= 1u64 << (v % 64);
        }

        self.elabels.clear();
        self.elabels.extend(g.edges().iter().map(|e| e.label));
        self.elabels.sort_unstable();
        self.elabels.dedup();
        let el = self.elabels.len();
        self.adj.clear();
        self.adj.resize(n * el * words, 0);
        for e in g.edges() {
            let li = self
                .elabels
                .binary_search(&e.label)
                .expect("label interned above");
            let (u, v) = (e.u as usize, e.v as usize);
            self.adj[(u * el + li) * words + v / 64] |= 1u64 << (v % 64);
            self.adj[(v * el + li) * words + u / 64] |= 1u64 << (u % 64);
        }
    }

    /// Node count of the source graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Edge count of the source graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Bitset width in `u64` words.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u32 {
        self.degrees[v as usize]
    }

    /// Bitset of nodes labeled `l`, or `None` when the label is absent.
    #[inline]
    pub fn bucket(&self, l: NodeLabel) -> Option<&[u64]> {
        let li = self.nlabels.binary_search(&l).ok()?;
        Some(&self.buckets[li * self.words..(li + 1) * self.words])
    }

    /// Bitset of neighbors of `v` over edges labeled `l`, or `None` when no
    /// edge in the graph carries that label.
    #[inline]
    pub fn adj_row(&self, v: NodeId, l: EdgeLabel) -> Option<&[u64]> {
        let li = self.elabels.binary_search(&l).ok()?;
        let start = ((v as usize) * self.elabels.len() + li) * self.words;
        Some(&self.adj[start..start + self.words])
    }
}

/// All graphs of a database in compiled form, indexed by graph id.
///
/// Built once per database and shared (via
/// [`LabelPairIndex::compiled_db`](crate::index::LabelPairIndex::compiled_db))
/// across every support-counting pass that uses the fast matcher.
#[derive(Debug, Clone, Default)]
pub struct CompiledDb {
    graphs: Vec<CompiledGraph>,
}

impl CompiledDb {
    /// Compile every graph of `db`.
    pub fn build(db: &GraphDb) -> Self {
        Self {
            graphs: db.graphs().iter().map(CompiledGraph::compile).collect(),
        }
    }

    /// The compiled form of graph `gid`.
    #[inline]
    pub fn graph(&self, gid: usize) -> &CompiledGraph {
        &self.graphs[gid]
    }

    /// Number of compiled graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Approximate heap bytes held by the compiled form (bitset rows,
    /// degree/label arrays). Estimate for admission control.
    pub fn approx_resident_bytes(&self) -> u64 {
        self.graphs
            .iter()
            .map(|g| {
                std::mem::size_of::<CompiledGraph>()
                    + g.degrees.len() * 4
                    + g.nlabels.len() * std::mem::size_of::<NodeLabel>()
                    + g.buckets.len() * 8
                    + g.elabels.len() * std::mem::size_of::<EdgeLabel>()
                    + g.adj.len() * 8
            })
            .sum::<usize>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> Graph {
        // 0(C) -s- 1(C) -d- 2(O), plus 0 -s- 2.
        let mut b = GraphBuilder::new();
        let c0 = b.add_node(0);
        let c1 = b.add_node(0);
        let o2 = b.add_node(1);
        b.add_edge(c0, c1, 5);
        b.add_edge(c1, o2, 6);
        b.add_edge(c0, o2, 5);
        b.build()
    }

    #[test]
    fn buckets_and_rows() {
        let g = sample();
        let c = CompiledGraph::compile(&g);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.edge_count(), 3);
        assert_eq!(c.word_count(), 1);
        assert_eq!(c.bucket(0), Some(&[0b011u64][..])); // nodes 0, 1
        assert_eq!(c.bucket(1), Some(&[0b100u64][..])); // node 2
        assert_eq!(c.bucket(9), None);
        // Node 0 reaches 1 and 2 over label-5 edges, nothing over label 6.
        assert_eq!(c.adj_row(0, 5), Some(&[0b110u64][..]));
        assert_eq!(c.adj_row(0, 6), Some(&[0u64][..]));
        assert_eq!(c.adj_row(1, 6), Some(&[0b100u64][..]));
        assert_eq!(c.adj_row(0, 7), None);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(1), 2);
    }

    #[test]
    fn recompile_reuses_buffers_and_matches_fresh() {
        let g = sample();
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..70).map(|_| b.add_node(3)).collect();
        for i in 0..69 {
            b.add_edge(n[i], n[i + 1], 2);
        }
        let big = b.build();

        let mut c = CompiledGraph::compile(&big);
        assert_eq!(c.word_count(), 2);
        assert_eq!(
            c.bucket(3)
                .unwrap()
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>(),
            70
        );
        c.compile_from(&g);
        let fresh = CompiledGraph::compile(&g);
        assert_eq!(format!("{c:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn empty_graph_compiles() {
        let g = GraphBuilder::new().build();
        let c = CompiledGraph::compile(&g);
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.word_count(), 0);
        assert_eq!(c.bucket(0), None);
    }
}
