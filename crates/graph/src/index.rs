//! Database-wide label-pair edge index.
//!
//! Both baseline miners start from the same question: *which
//! (node-label, edge-label, node-label) edge types exist, in which graphs,
//! and where?* gSpan needs the answer to enumerate frequent 1-edge seeds
//! and their initial embedding lists; FSG needs it to build level 1 and its
//! TID lists. [`LabelPairIndex`] answers it with one scan of the database,
//! so neither miner rescans every graph, and a prebuilt index can be shared
//! across repeated mining runs (threshold sweeps over the same database).
//!
//! Keys are canonicalized with the smaller node label first (the graphs are
//! undirected). Occurrences are stored oriented so that `from` carries the
//! smaller label, in `(gid, edge id)` scan order — ascending by graph id —
//! which is exactly the order the miners' sequential database scans would
//! produce. The derived `tids` list (distinct graph ids, ascending) gives
//! each edge type's support for free.

use crate::compiled::CompiledDb;
use crate::database::GraphDb;
use crate::graph::NodeId;
use crate::labels::{EdgeLabel, NodeLabel};
use std::sync::{Arc, OnceLock};

/// A canonical edge-type key `(la, le, lb)` with `la <= lb`.
pub type LabelTriple = (NodeLabel, EdgeLabel, NodeLabel);

/// One occurrence of an edge type: graph `gid`, edge `edge`, traversed
/// `from -> to` where `from` carries the smaller node label of the key
/// (for equal labels, the edge's stored orientation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOccurrence {
    /// Graph id within the database.
    pub gid: u32,
    /// Edge index within that graph.
    pub edge: u32,
    /// Endpoint carrying the key's first (smaller) label.
    pub from: NodeId,
    /// Endpoint carrying the key's second label.
    pub to: NodeId,
}

/// All occurrences of one edge type across the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelPairEntry {
    /// The canonical `(la, le, lb)` key, `la <= lb`.
    pub key: LabelTriple,
    /// Occurrences in `(gid, edge)` ascending order.
    pub occurrences: Vec<EdgeOccurrence>,
    /// Distinct graph ids containing the edge type, ascending. The length
    /// is the edge type's support.
    pub tids: Vec<u32>,
}

impl LabelPairEntry {
    /// Number of distinct graphs containing this edge type.
    pub fn support(&self) -> usize {
        self.tids.len()
    }
}

/// Index from canonical label triples to their occurrence lists, ordered
/// by key. See the module docs for the ordering guarantees.
#[derive(Debug, Clone, Default)]
pub struct LabelPairIndex {
    entries: Vec<LabelPairEntry>,
    /// Lazily compiled bitset form of the indexed database, shared by every
    /// fast-matcher support-counting pass over this index (FSG levels,
    /// threshold sweeps, warm server requests). Cloning the index shares
    /// the cached compilation.
    compiled: OnceLock<Arc<CompiledDb>>,
}

impl LabelPairIndex {
    /// Build the index with one scan over `db` (graphs in id order, edges
    /// in edge-id order).
    pub fn build(db: &GraphDb) -> Self {
        let mut map: std::collections::BTreeMap<LabelTriple, LabelPairEntry> =
            std::collections::BTreeMap::new();
        for (gid, g) in db.graphs().iter().enumerate() {
            for (eid, e) in g.edges().iter().enumerate() {
                let (lu, lv) = (g.node_label(e.u), g.node_label(e.v));
                // Orient so `from` carries the smaller label; keep the
                // stored orientation on ties.
                let (key, from, to) = if lu <= lv {
                    ((lu, e.label, lv), e.u, e.v)
                } else {
                    ((lv, e.label, lu), e.v, e.u)
                };
                let entry = map.entry(key).or_insert_with(|| LabelPairEntry {
                    key,
                    occurrences: Vec::new(),
                    tids: Vec::new(),
                });
                entry.occurrences.push(EdgeOccurrence {
                    gid: gid as u32,
                    edge: eid as u32,
                    from,
                    to,
                });
                if entry.tids.last() != Some(&(gid as u32)) {
                    entry.tids.push(gid as u32);
                }
            }
        }
        Self {
            entries: map.into_values().collect(),
            compiled: OnceLock::new(),
        }
    }

    /// The compiled bitset form of `db` (which must be the database this
    /// index was built from), compiling it on first use and returning the
    /// shared copy afterwards.
    pub fn compiled_db(&self, db: &GraphDb) -> Arc<CompiledDb> {
        Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(CompiledDb::build(db))),
        )
    }

    /// All entries, ascending by key.
    pub fn entries(&self) -> &[LabelPairEntry] {
        &self.entries
    }

    /// Approximate heap bytes held by the index: occurrence and tid
    /// arrays, plus the compiled bitset database if it has been built.
    /// Estimate for admission control.
    pub fn approx_resident_bytes(&self) -> u64 {
        let entries: usize = self
            .entries
            .iter()
            .map(|e| {
                std::mem::size_of::<LabelPairEntry>()
                    + e.occurrences.len() * std::mem::size_of::<EdgeOccurrence>()
                    + e.tids.len() * 4
            })
            .sum();
        let compiled = self.compiled.get().map_or(0, |c| c.approx_resident_bytes());
        entries as u64 + compiled
    }

    /// The entry for a canonical key, if present.
    pub fn get(&self, key: LabelTriple) -> Option<&LabelPairEntry> {
        self.entries
            .binary_search_by(|e| e.key.cmp(&key))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Entries whose edge type occurs in at least `min_support` distinct
    /// graphs, ascending by key.
    pub fn frequent(&self, min_support: usize) -> impl Iterator<Item = &LabelPairEntry> {
        self.entries
            .iter()
            .filter(move |e| e.support() >= min_support)
    }

    /// Number of distinct edge types.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database had no edges at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total edge occurrences across all entries — exactly the number of
    /// edges in the indexed database. Long-lived servers sharing one index
    /// across requests report this (with [`LabelPairIndex::len`]) so cache
    /// reuse is observable without rescanning the database.
    pub fn total_occurrences(&self) -> usize {
        self.entries.iter().map(|e| e.occurrences.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::parse_transactions;

    fn tiny_db() -> GraphDb {
        // Graph 0: C-C-O path; graph 1: C-C-O path; graph 2: C-N edge.
        parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 2\nv 0 C\nv 1 N\ne 0 1 s\n",
        )
        .unwrap()
    }

    #[test]
    fn keys_are_canonical_and_sorted() {
        let idx = LabelPairIndex::build(&tiny_db());
        assert_eq!(idx.len(), 3); // C-C, C-O, C-N (labels interned in order)
        for e in idx.entries() {
            assert!(e.key.0 <= e.key.2, "non-canonical key {:?}", e.key);
        }
        for w in idx.entries().windows(2) {
            assert!(w[0].key < w[1].key, "entries out of key order");
        }
    }

    #[test]
    fn supports_and_tids() {
        let db = tiny_db();
        let idx = LabelPairIndex::build(&db);
        let c = db.labels().node_id("C").unwrap();
        let o = db.labels().node_id("O").unwrap();
        let n = db.labels().node_id("N").unwrap();
        let s = db.labels().edge_id("s").unwrap();
        let cc = idx.get((c, s, c)).unwrap();
        assert_eq!(cc.tids, vec![0, 1]);
        assert_eq!(cc.support(), 2);
        let co = idx.get((c.min(o), s, c.max(o))).unwrap();
        assert_eq!(co.tids, vec![0, 1]);
        let cn = idx.get((c.min(n), s, c.max(n))).unwrap();
        assert_eq!(cn.tids, vec![2]);
        assert!(idx.get((o, s, o)).is_none());
    }

    #[test]
    fn occurrences_are_oriented_and_scan_ordered() {
        let db = tiny_db();
        let idx = LabelPairIndex::build(&db);
        for entry in idx.entries() {
            let mut prev: Option<(u32, u32)> = None;
            for occ in &entry.occurrences {
                let g = db.graph(occ.gid as usize);
                assert_eq!(g.node_label(occ.from), entry.key.0);
                assert_eq!(g.node_label(occ.to), entry.key.2);
                assert_eq!(g.edges()[occ.edge as usize].label, entry.key.1);
                let pos = (occ.gid, occ.edge);
                assert!(prev.is_none_or(|p| p < pos), "occurrences out of order");
                prev = Some(pos);
            }
            // tids = distinct gids of the occurrence list.
            let mut gids: Vec<u32> = entry.occurrences.iter().map(|o| o.gid).collect();
            gids.dedup();
            assert_eq!(gids, entry.tids);
        }
    }

    #[test]
    fn frequent_filters_by_support() {
        let idx = LabelPairIndex::build(&tiny_db());
        assert_eq!(idx.frequent(1).count(), 3);
        assert_eq!(idx.frequent(2).count(), 2);
        assert_eq!(idx.frequent(3).count(), 0);
    }

    #[test]
    fn empty_database() {
        let idx = LabelPairIndex::build(&GraphDb::new());
        assert!(idx.is_empty());
        assert_eq!(idx.frequent(1).count(), 0);
    }

    #[test]
    fn total_occurrences_count_every_edge_once() {
        let db = tiny_db();
        let idx = LabelPairIndex::build(&db);
        let total: usize = idx.entries().iter().map(|e| e.occurrences.len()).sum();
        let edges: usize = db.graphs().iter().map(|g| g.edge_count()).sum();
        assert_eq!(total, edges);
    }
}
