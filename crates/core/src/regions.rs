//! The region arena of one mine (Algorithm 2, lines 10–13).
//!
//! Each significant vector describes a set of nodes, and line 12 cuts the
//! region of `radius` hops around each of them. The sets of one mine share
//! most of their nodes: on a 1 000-molecule benchmark database, 426 sets
//! name 148 820 nodes but only 22 841 distinct ones. [`RegionArena::build`]
//! therefore cuts and compiles every distinct described node once, and
//! keeps only what FSG reads: the compiled bitset form and the region's
//! edge types. A set then becomes a list of arena ids, and
//! [`RegionArena::set`] hands FSG the level 1 and the targets it would
//! have derived from a `GraphDb` of the same cuts.

use graphsig_graph::control::{self, Budget, StopReason};
use graphsig_graph::{cut_graph, par_map, CompiledGraph, GraphDb, LabelTriple};

/// One cut region, as FSG reads it.
struct Region {
    /// The `cut_graph` region, compiled: node 0 is the center and nodes
    /// are in BFS order, so matching spends the same steps on it as on
    /// the cut graph itself.
    compiled: CompiledGraph,
    /// The region's canonical edge types, ascending and distinct.
    triples: Box<[LabelTriple]>,
}

/// The distinct regions of one mine's region sets. It lives only through
/// the FSM phase.
pub struct RegionArena {
    /// The described nodes `(gid, node)`, ascending and distinct; a node's
    /// position is its arena id.
    keys: Vec<(u32, u32)>,
    /// The region around each key, or `None` when a deadline or cancel
    /// stop came before it. Boxed, so the executor moves a pointer per
    /// region rather than the whole struct.
    regions: Vec<Option<Box<Region>>>,
}

/// One region set over the arena: the input of
/// [`Fsg::mine_compiled_outcome`](graphsig_fsg::Fsg::mine_compiled_outcome).
pub struct RegionSet<'a> {
    /// Every edge type of the set's regions with the ascending set-local
    /// tids of the regions holding it, ascending by key.
    pub level1: Vec<(LabelTriple, Vec<u32>)>,
    /// One compiled region per node of the set, in set order: tid `t` is
    /// `targets[t]`.
    pub targets: Vec<&'a CompiledGraph>,
}

impl RegionArena {
    /// Cut and compile the region of `radius` hops around every distinct
    /// node of `sets`, one task per node on `threads` workers.
    ///
    /// A step budget does not meter the build; the deadline and cancel
    /// token are checked before each region. A region skipped after a stop
    /// is never read: the stop is sticky, so every set's own start check
    /// fails too. Returns the first stop in arena-id order.
    pub fn build<'s>(
        db: &GraphDb,
        sets: impl IntoIterator<Item = &'s [(u32, u32)]>,
        radius: usize,
        threads: usize,
        budget: Option<&Budget>,
    ) -> (Self, Option<StopReason>) {
        let mut keys: Vec<(u32, u32)> = sets.into_iter().flatten().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.shrink_to_fit();
        let cut: Vec<Result<Box<Region>, StopReason>> = par_map(threads, &keys, |&(gid, node)| {
            if let Some(reason) = control::check_start(budget) {
                return Err(reason);
            }
            let (g, _) = cut_graph(db.graph(gid as usize), node, radius);
            let mut triples: Vec<LabelTriple> = g
                .edges()
                .iter()
                .map(|e| {
                    let (a, b) = (g.node_label(e.u), g.node_label(e.v));
                    (a.min(b), e.label, a.max(b))
                })
                .collect();
            triples.sort_unstable();
            triples.dedup();
            Ok(Box::new(Region {
                compiled: CompiledGraph::compile(&g),
                triples: triples.into_boxed_slice(),
            }))
        });
        let stop = cut.iter().find_map(|r| r.as_ref().err().copied());
        let regions = cut.into_iter().map(Result::ok).collect();
        (Self { keys, regions }, stop)
    }

    /// Number of regions cut.
    pub fn cut_count(&self) -> usize {
        self.regions.iter().filter(|r| r.is_some()).count()
    }

    /// The region set of `nodes`, which must be one of the sets the arena
    /// was built from. Set-local tid `t` is the region around `nodes[t]`.
    ///
    /// # Panics
    /// Panics if a node is not in the arena, or its region was skipped
    /// after a stop.
    pub fn set(&self, nodes: &[(u32, u32)]) -> RegionSet<'_> {
        let regions: Vec<&Region> = nodes
            .iter()
            .map(|key| {
                let id = self
                    .keys
                    .binary_search(key)
                    .expect("node of a set the arena was built from");
                self.regions[id]
                    .as_deref()
                    .expect("a region skipped after a stop is never read")
            })
            .collect();
        // (edge type, tid) pairs sorted by key, then tid: exactly the keys,
        // order and tid lists a `LabelPairIndex` of the cut regions holds.
        let mut pairs: Vec<(LabelTriple, u32)> = regions
            .iter()
            .enumerate()
            .flat_map(|(tid, r)| r.triples.iter().map(move |&t| (t, tid as u32)))
            .collect();
        pairs.sort_unstable();
        let mut level1: Vec<(LabelTriple, Vec<u32>)> = Vec::new();
        for (key, tid) in pairs {
            match level1.last_mut() {
                Some((k, tids)) if *k == key => tids.push(tid),
                _ => level1.push((key, vec![tid])),
            }
        }
        RegionSet {
            level1,
            targets: regions.iter().map(|r| &r.compiled).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::{parse_transactions, CancelToken};

    #[test]
    fn a_stop_before_the_build_cuts_nothing() {
        let db = parse_transactions("t # 0\nv 0 C\nv 1 O\ne 0 1 s\n").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let (arena, stop) = RegionArena::build(&db, [&[(0, 0), (0, 1)][..]], 2, 1, Some(&budget));
        assert_eq!(stop, Some(StopReason::Cancelled));
        assert_eq!(arena.cut_count(), 0);
    }
}
