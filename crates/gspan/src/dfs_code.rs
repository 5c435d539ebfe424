//! DFS codes: gSpan's canonical pattern representation.
//!
//! A DFS code is a sequence of five-tuples `(i, j, l_i, l_(ij), l_j)` where
//! `i` and `j` are DFS discovery indices. An edge with `i < j` is a
//! *forward* edge (discovers vertex `j`); an edge with `i > j` is a
//! *backward* edge (closes a cycle to an earlier vertex). gSpan's total
//! order on codes makes the lexicographically minimum code a canonical form
//! for connected labeled graphs.

use graphsig_graph::{EdgeLabel, Graph, GraphBuilder, NodeLabel};

/// One DFS-code edge `(from, to, from_label, edge_label, to_label)`.
///
/// `from`/`to` are DFS discovery indices, not graph node ids. `Ord`
/// compares the fields in declaration order: a deterministic tiebreak
/// order, not gSpan's [`extension_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DfsEdge {
    /// DFS index of the source endpoint.
    pub from: u32,
    /// DFS index of the destination endpoint.
    pub to: u32,
    /// Label of the source vertex.
    pub from_label: NodeLabel,
    /// Label of the edge.
    pub edge_label: EdgeLabel,
    /// Label of the destination vertex.
    pub to_label: NodeLabel,
}

impl DfsEdge {
    /// Construct an edge tuple.
    pub fn new(
        from: u32,
        to: u32,
        from_label: NodeLabel,
        edge_label: EdgeLabel,
        to_label: NodeLabel,
    ) -> Self {
        Self {
            from,
            to,
            from_label,
            edge_label,
            to_label,
        }
    }

    /// Forward edges discover a new vertex: `from < to`.
    #[inline]
    pub fn is_forward(&self) -> bool {
        self.from < self.to
    }
}

/// Compare two *extension candidates of the same parent code* in gSpan
/// order. Both edges either close a cycle at the rightmost vertex
/// (backward, same `from`) or grow a new vertex with the same `to` index
/// (forward). Backward sorts before forward; among backward edges the
/// smaller destination index then edge label wins; among forward edges the
/// *deeper* source on the rightmost path (larger `from`) then labels win.
///
/// This mirrors the neighborhood-restricted DFS lexicographic order of the
/// gSpan paper and is the order in which children of a search node must be
/// visited for the minimality pruning to be sound.
pub fn extension_order(a: &DfsEdge, b: &DfsEdge) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_forward(), b.is_forward()) {
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (false, false) => (a.to, a.edge_label).cmp(&(b.to, b.edge_label)),
        (true, true) => (std::cmp::Reverse(a.from), a.edge_label, a.to_label).cmp(&(
            std::cmp::Reverse(b.from),
            b.edge_label,
            b.to_label,
        )),
    }
}

/// A DFS code: an edge sequence representing one connected labeled graph.
/// `Ord` is lexicographic over [`DfsEdge`]'s tiebreak order, not gSpan's
/// code order.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DfsCode {
    edges: Vec<DfsEdge>,
}

impl DfsCode {
    /// The empty code.
    pub fn new() -> Self {
        Self::default()
    }

    /// A code starting from one edge `(0, 1, la, le, lb)`.
    pub fn from_initial(la: NodeLabel, le: EdgeLabel, lb: NodeLabel) -> Self {
        Self {
            edges: vec![DfsEdge::new(0, 1, la, le, lb)],
        }
    }

    /// The edge sequence.
    pub fn edges(&self) -> &[DfsEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the code is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Append an edge (used during pattern growth).
    pub fn push(&mut self, e: DfsEdge) {
        self.edges.push(e);
    }

    /// Remove the last edge (backtracking).
    pub fn pop(&mut self) -> Option<DfsEdge> {
        self.edges.pop()
    }

    /// Number of vertices described by the code.
    pub fn node_count(&self) -> usize {
        if self.edges.is_empty() {
            return 0;
        }
        self.edges
            .iter()
            .map(|e| e.from.max(e.to) as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// DFS index of the rightmost vertex (the most recently discovered one).
    pub fn rightmost_vertex(&self) -> u32 {
        debug_assert!(!self.edges.is_empty());
        self.node_count() as u32 - 1
    }

    /// The rightmost path as positions into the edge sequence, ordered from
    /// the edge that discovered the rightmost vertex down to the edge
    /// leaving the root. `code.edges()[rmpath[0]].to` is the rightmost
    /// vertex and `code.edges()[rmpath.last()].from == 0`.
    pub fn rightmost_path(&self) -> Vec<usize> {
        let mut rmpath = Vec::new();
        let mut prev_from = u32::MAX;
        for (k, e) in self.edges.iter().enumerate().rev() {
            if e.is_forward() && (rmpath.is_empty() || e.to == prev_from) {
                prev_from = e.from;
                rmpath.push(k);
            }
        }
        rmpath
    }

    /// Vertex labels by DFS index.
    pub fn vertex_labels(&self) -> Vec<NodeLabel> {
        let mut labels = vec![NodeLabel::MAX; self.node_count()];
        for e in &self.edges {
            labels[e.from as usize] = e.from_label;
            labels[e.to as usize] = e.to_label;
        }
        labels
    }

    /// Materialize the code as a [`Graph`] whose node ids are DFS indices.
    pub fn to_graph(&self) -> Graph {
        let labels = self.vertex_labels();
        let mut b = GraphBuilder::with_capacity(labels.len(), self.edges.len());
        for l in &labels {
            debug_assert_ne!(*l, NodeLabel::MAX, "disconnected DFS index");
            b.add_node(*l);
        }
        for e in &self.edges {
            b.add_edge(e.from, e.to, e.edge_label);
        }
        b.build()
    }
}

impl std::fmt::Display for DfsCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(
                f,
                "({},{},{},{},{})",
                e.from, e.to, e.from_label, e.edge_label, e.to_label
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// Code of a triangle 0-1-2-0.
    fn triangle_code() -> DfsCode {
        let mut c = DfsCode::from_initial(0, 9, 1);
        c.push(DfsEdge::new(1, 2, 1, 9, 2));
        c.push(DfsEdge::new(2, 0, 2, 9, 0));
        c
    }

    #[test]
    fn counting_and_rightmost_vertex() {
        let c = triangle_code();
        assert_eq!(c.len(), 3);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.rightmost_vertex(), 2);
    }

    #[test]
    fn rightmost_path_of_path_code() {
        // Straight path 0-1-2: both edges are on the rightmost path.
        let mut c = DfsCode::from_initial(0, 1, 0);
        c.push(DfsEdge::new(1, 2, 0, 1, 0));
        assert_eq!(c.rightmost_path(), vec![1, 0]);
    }

    #[test]
    fn rightmost_path_skips_branches() {
        // Star: 0-1, 0-2, 0-3. The rightmost path is just the edge to 3.
        let mut c = DfsCode::from_initial(5, 1, 5);
        c.push(DfsEdge::new(0, 2, 5, 1, 5));
        c.push(DfsEdge::new(0, 3, 5, 1, 5));
        assert_eq!(c.rightmost_path(), vec![2]);
    }

    #[test]
    fn rightmost_path_ignores_backward_edges() {
        let c = triangle_code();
        // Backward edge (2,0) is not on the rightmost path.
        assert_eq!(c.rightmost_path(), vec![1, 0]);
    }

    #[test]
    fn to_graph_reconstructs_structure() {
        let g = triangle_code().to_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_labels(), &[0, 1, 2]);
        assert!(g.is_connected());
    }

    #[test]
    fn extension_order_backward_before_forward() {
        let back = DfsEdge::new(2, 0, 9, 1, 9);
        let fwd = DfsEdge::new(2, 3, 9, 0, 0);
        assert_eq!(extension_order(&back, &fwd), Ordering::Less);
        assert_eq!(extension_order(&fwd, &back), Ordering::Greater);
    }

    #[test]
    fn extension_order_backward_by_destination_then_label() {
        let b0 = DfsEdge::new(3, 0, 9, 5, 9);
        let b1 = DfsEdge::new(3, 1, 9, 2, 9);
        assert_eq!(extension_order(&b0, &b1), Ordering::Less);
        let b1a = DfsEdge::new(3, 1, 9, 1, 9);
        assert_eq!(extension_order(&b1a, &b1), Ordering::Less);
    }

    #[test]
    fn extension_order_forward_deeper_source_first() {
        // Extension from the rightmost vertex (from=2) beats one from
        // shallower on the path (from=0), regardless of labels.
        let deep = DfsEdge::new(2, 3, 9, 9, 9);
        let shallow = DfsEdge::new(0, 3, 9, 0, 0);
        assert_eq!(extension_order(&deep, &shallow), Ordering::Less);
        // Same source: edge label then target label decide.
        let a = DfsEdge::new(2, 3, 9, 1, 5);
        let b = DfsEdge::new(2, 3, 9, 1, 6);
        assert_eq!(extension_order(&a, &b), Ordering::Less);
    }

    #[test]
    fn display_is_readable() {
        let c = DfsCode::from_initial(1, 2, 3);
        assert_eq!(c.to_string(), "(0,1,1,2,3)");
    }
}
