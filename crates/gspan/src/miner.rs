//! The gSpan pattern-growth miner over a graph database.
//!
//! Support counting uses *projections*: for every pattern (DFS code) on the
//! search path, the miner carries the list of its embeddings in the
//! database, each represented as a persistent chain of steps shared with its
//! parent via `Rc`. Extending a pattern never rescans the database — it only
//! extends the surviving embeddings.
//!
//! Seeds — the frequent single-edge codes — come from a
//! [`LabelPairIndex`] rather than a database scan, and each seed's DFS
//! subtree is independent of every other's (no state is shared between
//! subtrees of gSpan's search). That independence is what the parallel
//! path exploits: with `threads > 1`, seeds become tasks on the shared
//! deterministic executor ([`graphsig_graph::par`]), each mining its own
//! subtree; the per-seed outputs are merged in seed (key) order, which is
//! exactly the order the sequential search emits, so the mined pattern
//! list is byte-identical for every thread count.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::dfs_code::{extension_order, DfsCode, DfsEdge};
use crate::extend::{enumerate_extensions_framed, ExtFrame};
use crate::min_code::is_min;
use crate::pattern::Pattern;
use graphsig_graph::control::{self, Budget, Completion, Meter, Outcome, StopReason};
use graphsig_graph::{GraphDb, LabelPairEntry, LabelPairIndex, NodeId};

/// Configuration for [`GSpan`].
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Minimum number of distinct graphs a pattern must occur in
    /// (absolute support, `>= 1`).
    pub min_support: usize,
    /// Stop growing patterns beyond this many edges.
    pub max_edges: Option<usize>,
    /// Abort the search after emitting this many patterns (a safety valve
    /// for the low-frequency scalability experiments, where the pattern
    /// space explodes by design).
    pub max_patterns: Option<usize>,
    /// Worker threads for per-seed subtree mining: `1` = sequential
    /// (the default), `0` = auto (one per core). The mined pattern list is
    /// byte-identical for every thread count.
    pub threads: usize,
    /// Resource governance. Each seed subtree is one budget work unit
    /// (fresh step allowance), so step-budget truncation is deterministic
    /// across thread counts; deadline/cancellation are best-effort. See
    /// [`graphsig_graph::control`].
    pub budget: Option<Budget>,
}

impl MinerConfig {
    /// Config with the given absolute support and no other limits.
    pub fn new(min_support: usize) -> Self {
        Self {
            min_support,
            max_edges: None,
            max_patterns: None,
            threads: 1,
            budget: None,
        }
    }

    /// Limit pattern size (in edges).
    pub fn with_max_edges(mut self, max_edges: usize) -> Self {
        self.max_edges = Some(max_edges);
        self
    }

    /// Limit the number of emitted patterns.
    pub fn with_max_patterns(mut self, max_patterns: usize) -> Self {
        self.max_patterns = Some(max_patterns);
        self
    }

    /// Set the worker thread count (`0` = auto, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a resource [`Budget`] (deadline, per-seed step allowance,
    /// cancellation).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Convert a relative frequency threshold (e.g. `0.05` = 5%) on a
    /// database of `n` graphs into absolute support, rounding up and never
    /// below 1. This mirrors Definition 1 of the paper
    /// (`mu_0 >= theta |D| / 100` with theta in percent).
    pub fn from_frequency(freq: f64, n: usize) -> Self {
        assert!((0.0..=1.0).contains(&freq), "frequency must be in [0,1]");
        Self::new(((freq * n as f64).ceil() as usize).max(1))
    }
}

/// One step of an embedding: a directed traversal of graph edge `edge`.
struct Step {
    gfrom: NodeId,
    gto: NodeId,
    edge: u32,
    prev: Option<Rc<Step>>,
}

/// An embedding of the current DFS code in graph `gid`.
struct Emb {
    gid: u32,
    last: Rc<Step>,
}

/// Extension key ordered by gSpan's extension order (with a total-order
/// tiebreak on the full tuple, required for `BTreeMap` consistency).
#[derive(PartialEq, Eq)]
struct OrdExt(DfsEdge);

impl Ord for OrdExt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        extension_order(&self.0, &other.0).then_with(|| {
            (
                self.0.from,
                self.0.to,
                self.0.from_label,
                self.0.edge_label,
                self.0.to_label,
            )
                .cmp(&(
                    other.0.from,
                    other.0.to,
                    other.0.from_label,
                    other.0.edge_label,
                    other.0.to_label,
                ))
        })
    }
}

impl PartialOrd for OrdExt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The gSpan miner. See the crate docs for the algorithm outline.
pub struct GSpan {
    cfg: MinerConfig,
}

impl GSpan {
    /// Create a miner with the given configuration.
    pub fn new(cfg: MinerConfig) -> Self {
        assert!(cfg.min_support >= 1, "min_support must be at least 1");
        Self { cfg }
    }

    /// Mine all frequent connected subgraphs with at least one edge.
    pub fn mine(&self, db: &GraphDb) -> Vec<Pattern> {
        self.mine_outcome(db).result
    }

    /// [`mine`](Self::mine), reporting whether the search ran to
    /// completion or was truncated by the configured budget or pattern
    /// cap. Step-budget/pattern-cap truncation is byte-identical across
    /// thread counts; deadline/cancellation truncation is best-effort.
    pub fn mine_outcome(&self, db: &GraphDb) -> Outcome<Vec<Pattern>> {
        self.mine_indexed_outcome(db, &LabelPairIndex::build(db))
    }

    /// [`mine`](Self::mine) with a prebuilt [`LabelPairIndex`] of `db`.
    /// Sharing one index across repeated mining runs (threshold sweeps on
    /// the same database) skips the per-run database scan.
    pub fn mine_indexed(&self, db: &GraphDb, index: &LabelPairIndex) -> Vec<Pattern> {
        self.mine_indexed_outcome(db, index).result
    }

    /// [`mine_indexed`](Self::mine_indexed) with completion reporting; see
    /// [`mine_outcome`](Self::mine_outcome).
    pub fn mine_indexed_outcome(
        &self,
        db: &GraphDb,
        index: &LabelPairIndex,
    ) -> Outcome<Vec<Pattern>> {
        // Seeds: all frequent single-edge codes, ascending by (la, le, lb)
        // key — the order the sequential search visits them.
        let seeds: Vec<&LabelPairEntry> = index.frequent(self.cfg.min_support).collect();
        let threads = graphsig_graph::resolve_threads(self.cfg.threads);

        let (out, truncation) = if threads <= 1 || seeds.len() < 2 {
            // Sequential: one context shared across seeds, so the
            // `max_patterns` cap stops the whole search. The budget meter
            // is still reset per seed (see `mine_seed`), matching the
            // parallel path's per-seed allowance exactly.
            let mut ctx = Ctx::new(db, &self.cfg);
            for entry in &seeds {
                if ctx.stopped {
                    break;
                }
                ctx.mine_seed(entry);
            }
            (ctx.out, ctx.truncation)
        } else {
            // Parallel: each seed's DFS subtree is one task. A task caps
            // its own output at `max_patterns` — only the first
            // `max_patterns` results can survive the global truncation
            // below, so any task output beyond that is unreachable.
            // Merging in seed order and truncating reproduces the
            // sequential emission order exactly: the sequential search
            // emits seed subtrees back to back in the same seed order,
            // stopping at the same global cap.
            let per_seed: Vec<(Vec<Pattern>, Option<StopReason>)> =
                graphsig_graph::par_map(threads, &seeds, |entry| {
                    let mut ctx = Ctx::new(db, &self.cfg);
                    ctx.mine_seed(entry);
                    (ctx.out, ctx.truncation)
                });
            let mut out: Vec<Pattern> =
                Vec::with_capacity(per_seed.iter().map(|(p, _)| p.len()).sum());
            // First truncation reason in seed order, mirroring the order
            // the sequential search would encounter them.
            let mut truncation = None;
            for (mut patterns, reason) in per_seed {
                out.append(&mut patterns);
                if truncation.is_none() {
                    truncation = reason;
                }
            }
            if let Some(m) = self.cfg.max_patterns {
                out.truncate(m);
            }
            (out, truncation)
        };

        let mut completion = match truncation {
            Some(reason) => Completion::Truncated(reason),
            None => Completion::Complete,
        };
        if self.cfg.max_patterns.is_some_and(|m| out.len() >= m) {
            completion = completion.merge(Completion::Truncated(StopReason::PatternCap));
        }
        Outcome::new(out, completion)
    }

    /// Mine, then keep only closed patterns (no super-pattern with equal
    /// support). CloseGraph-style output via post-filtering.
    pub fn mine_closed(&self, db: &GraphDb) -> Vec<Pattern> {
        crate::pattern::filter_closed(self.mine(db))
    }

    /// Mine, then keep only maximal patterns (no frequent super-pattern) —
    /// the `MaximalFSM` of GraphSig's Algorithm 2.
    pub fn mine_maximal(&self, db: &GraphDb) -> Vec<Pattern> {
        crate::pattern::filter_maximal(self.mine(db))
    }
}

/// Distinct gids of a gid-ordered embedding list.
fn distinct_gids(embs: &[Emb]) -> Vec<u32> {
    let mut gids = Vec::new();
    for e in embs {
        if gids.last() != Some(&e.gid) {
            debug_assert!(
                gids.last().is_none_or(|&g| g < e.gid),
                "embeddings out of order"
            );
            gids.push(e.gid);
        }
    }
    gids
}

/// Initial embedding list of a seed edge type, in the index's `(gid, edge)`
/// scan order. Distinct endpoint labels admit only the canonical
/// (smaller-label-first) orientation; equal labels contribute both.
fn seed_embeddings(entry: &LabelPairEntry) -> Vec<Emb> {
    let both = entry.key.0 == entry.key.2;
    let mut embs = Vec::with_capacity(entry.occurrences.len() * if both { 2 } else { 1 });
    for occ in &entry.occurrences {
        embs.push(Emb {
            gid: occ.gid,
            last: Rc::new(Step {
                gfrom: occ.from,
                gto: occ.to,
                edge: occ.edge,
                prev: None,
            }),
        });
        if both {
            embs.push(Emb {
                gid: occ.gid,
                last: Rc::new(Step {
                    gfrom: occ.to,
                    gto: occ.from,
                    edge: occ.edge,
                    prev: None,
                }),
            });
        }
    }
    embs
}

/// Per-embedding reconstruction buffers, reused across every embedding a
/// context visits instead of being reallocated per embedding. The
/// `used_node`/`used_edge` bit vectors grow to the largest graph seen and
/// are kept all-false between embeddings (each embedding unsets exactly the
/// bits it set).
#[derive(Default)]
struct Scratch {
    /// The embedding's step chain, last step first: `(gfrom, gto, edge)`.
    steps: Vec<(NodeId, NodeId, u32)>,
    /// `nodes[dfs_index] = graph node`.
    nodes: Vec<NodeId>,
    used_node: Vec<bool>,
    used_edge: Vec<bool>,
}

struct Ctx<'a> {
    db: &'a GraphDb,
    cfg: &'a MinerConfig,
    out: Vec<Pattern>,
    stopped: bool,
    /// Per-seed budget meter; reset at every `mine_seed` so each seed
    /// subtree gets a fresh step allowance in both the sequential and the
    /// parallel path (this is what makes step-budget truncation
    /// deterministic across thread counts).
    meter: Meter<'a>,
    /// First budget truncation observed (in seed order), if any.
    truncation: Option<StopReason>,
    scratch: Scratch,
}

impl<'a> Ctx<'a> {
    fn new(db: &'a GraphDb, cfg: &'a MinerConfig) -> Self {
        Self {
            db,
            cfg,
            out: Vec::new(),
            stopped: false,
            meter: Meter::new(cfg.budget.as_ref()),
            truncation: None,
            scratch: Scratch::default(),
        }
    }

    /// Record the meter's stop reason, keeping the first one seen.
    fn note_truncation(&mut self) {
        if self.truncation.is_none() {
            self.truncation = self.meter.stop_reason();
        }
    }

    /// Mine the full DFS subtree rooted at one seed edge type.
    fn mine_seed(&mut self, entry: &LabelPairEntry) {
        // Once the deadline has passed (or the request was cancelled),
        // skip remaining seeds entirely instead of starting them.
        if let Some(reason) = control::check_start(self.cfg.budget.as_ref()) {
            if self.truncation.is_none() {
                self.truncation = Some(reason);
            }
            return;
        }
        self.meter = Meter::new(self.cfg.budget.as_ref());
        let (la, le, lb) = entry.key;
        let embs = seed_embeddings(entry);
        let mut code = DfsCode::from_initial(la, le, lb);
        self.recurse(&mut code, &embs, entry.tids.clone());
    }

    /// Emit `code` (whose supporting graphs are `gids`, already computed by
    /// the caller) and grow it along the rightmost path.
    fn recurse(&mut self, code: &mut DfsCode, embs: &[Emb], gids: Vec<u32>) {
        if self.stopped {
            return;
        }
        // One step per DFS node. Sticky: once this seed's allowance is
        // gone, the whole subtree unwinds (already-emitted patterns stay).
        if !self.meter.tick() {
            self.note_truncation();
            return;
        }
        // Minimality gate: a non-minimal code repeats a pattern reached
        // through its canonical code, so the whole subtree is skipped.
        self.meter.note_canon();
        if !is_min(code) {
            return;
        }
        debug_assert!(gids.len() >= self.cfg.min_support);
        self.out.push(Pattern {
            graph: code.to_graph(),
            code: code.clone(),
            support: gids.len(),
            gids,
        });
        if self.cfg.max_patterns.is_some_and(|m| self.out.len() >= m) {
            self.stopped = true;
            return;
        }
        if self.cfg.max_edges.is_some_and(|m| code.len() >= m) {
            return;
        }

        // Group every legal extension of every embedding. The extension
        // frame depends only on the code, so compute it once here rather
        // than once per embedding.
        let mut children: BTreeMap<OrdExt, Vec<Emb>> = BTreeMap::new();
        let frame = ExtFrame::of(code);
        let code_len = code.len();
        let node_count = code.node_count();
        // Take the scratch buffers out of `self` for the duration of the
        // loop (no recursion happens inside it).
        let mut scratch = std::mem::take(&mut self.scratch);
        for emb in embs {
            // One step per embedding extended. Abandon the enumeration on
            // exhaustion — the partial `children` map is discarded below,
            // never recursed into (its support counts would be wrong).
            if !self.meter.tick() {
                break;
            }
            let g = self.db.graph(emb.gid as usize);
            // Reconstruct the embedding state from the step chain.
            scratch.steps.clear();
            let mut cur: Option<&Rc<Step>> = Some(&emb.last);
            while let Some(s) = cur {
                scratch.steps.push((s.gfrom, s.gto, s.edge));
                cur = s.prev.as_ref();
            }
            debug_assert_eq!(scratch.steps.len(), code_len);
            scratch.nodes.clear();
            scratch.nodes.resize(node_count, u32::MAX);
            if scratch.used_node.len() < g.node_count() {
                scratch.used_node.resize(g.node_count(), false);
            }
            if scratch.used_edge.len() < g.edge_count() {
                scratch.used_edge.resize(g.edge_count(), false);
            }
            for (k, &(gfrom, gto, edge)) in scratch.steps.iter().rev().enumerate() {
                let ce = code.edges()[k];
                if ce.is_forward() {
                    scratch.nodes[ce.from as usize] = gfrom;
                    scratch.nodes[ce.to as usize] = gto;
                }
                scratch.used_node[gfrom as usize] = true;
                scratch.used_node[gto as usize] = true;
                scratch.used_edge[edge as usize] = true;
            }
            enumerate_extensions_framed(
                g,
                &frame,
                &scratch.nodes,
                |n| scratch.used_node[n as usize],
                |e| scratch.used_edge[e as usize],
                &mut |ext| {
                    children.entry(OrdExt(ext.dfs)).or_default().push(Emb {
                        gid: emb.gid,
                        last: Rc::new(Step {
                            gfrom: ext.gfrom,
                            gto: ext.gto,
                            edge: ext.edge,
                            prev: Some(emb.last.clone()),
                        }),
                    });
                },
            );
            // Unset exactly the bits this embedding set, restoring the
            // all-false invariant for the next (possibly smaller) graph.
            for &(gfrom, gto, edge) in &scratch.steps {
                scratch.used_node[gfrom as usize] = false;
                scratch.used_node[gto as usize] = false;
                scratch.used_edge[edge as usize] = false;
            }
        }
        self.scratch = scratch;
        if self.meter.truncated() {
            self.note_truncation();
            return;
        }

        for (ext, child_embs) in children {
            if self.stopped {
                return;
            }
            // Computed once per candidate; passed through to the emit site.
            let child_gids = distinct_gids(&child_embs);
            if child_gids.len() < self.cfg.min_support {
                continue;
            }
            code.push(ext.0);
            self.recurse(code, &child_embs, child_gids);
            code.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::{are_isomorphic, iso::contains, parse_transactions};

    fn tiny_db() -> GraphDb {
        parse_transactions(
            "t # 0\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 O\ne 0 1 s\ne 1 2 s\n\
             t # 2\nv 0 C\nv 1 N\ne 0 1 s\n",
        )
        .unwrap()
    }

    #[test]
    fn frequency_to_support_conversion() {
        assert_eq!(MinerConfig::from_frequency(0.05, 100).min_support, 5);
        assert_eq!(MinerConfig::from_frequency(0.001, 100).min_support, 1);
        assert_eq!(MinerConfig::from_frequency(0.033, 100).min_support, 4);
    }

    #[test]
    fn mines_expected_patterns_at_support_two() {
        let db = tiny_db();
        let pats = GSpan::new(MinerConfig::new(2)).mine(&db);
        // Frequent patterns in graphs 0 and 1: C-C, C-O, C-C-O. Support-2
        // single edges: C-C (2), C-O (2); C-N appears once only.
        let sizes: Vec<usize> = pats.iter().map(|p| p.graph.edge_count()).collect();
        assert_eq!(pats.len(), 3, "patterns: {sizes:?}");
        assert!(pats.iter().all(|p| p.support == 2));
        assert!(pats.iter().any(|p| p.graph.edge_count() == 2));
    }

    #[test]
    fn support_one_includes_rare_edge() {
        let db = tiny_db();
        let pats = GSpan::new(MinerConfig::new(1)).mine(&db);
        // Additional pattern: C-N with support 1.
        assert!(pats
            .iter()
            .any(|p| p.support == 1 && p.graph.edge_count() == 1));
        // Every reported pattern must occur (containment-verified) in
        // exactly `support` graphs.
        for p in &pats {
            let occ = db.graphs().iter().filter(|g| contains(g, &p.graph)).count();
            assert_eq!(occ, p.support, "pattern {}", p.code);
        }
    }

    #[test]
    fn gids_match_support() {
        let db = tiny_db();
        for p in GSpan::new(MinerConfig::new(1)).mine(&db) {
            assert_eq!(p.gids.len(), p.support);
            for &gid in &p.gids {
                assert!(contains(db.graph(gid as usize), &p.graph));
            }
        }
    }

    #[test]
    fn no_duplicate_patterns() {
        let db = tiny_db();
        let pats = GSpan::new(MinerConfig::new(1)).mine(&db);
        for (i, a) in pats.iter().enumerate() {
            for b in &pats[i + 1..] {
                assert!(!are_isomorphic(&a.graph, &b.graph), "dup: {}", a.code);
            }
        }
    }

    #[test]
    fn max_edges_truncates_growth() {
        let db = tiny_db();
        let pats = GSpan::new(MinerConfig::new(1).with_max_edges(1)).mine(&db);
        assert!(pats.iter().all(|p| p.graph.edge_count() == 1));
        assert_eq!(pats.len(), 3); // C-C, C-O, C-N
    }

    #[test]
    fn max_patterns_stops_early() {
        let db = tiny_db();
        let pats = GSpan::new(MinerConfig::new(1).with_max_patterns(2)).mine(&db);
        assert_eq!(pats.len(), 2);
    }

    #[test]
    fn cyclic_pattern_mined() {
        // Two copies of a labeled triangle with a pendant; the triangle
        // (cyclic!) must be found at support 2.
        let db = parse_transactions(
            "t # 0\nv 0 a\nv 1 a\nv 2 a\nv 3 b\ne 0 1 x\ne 1 2 x\ne 0 2 x\ne 2 3 y\n\
             t # 1\nv 0 a\nv 1 a\nv 2 a\ne 0 1 x\ne 1 2 x\ne 0 2 x\n",
        )
        .unwrap();
        let pats = GSpan::new(MinerConfig::new(2)).mine(&db);
        assert!(pats
            .iter()
            .any(|p| p.graph.edge_count() == 3 && p.graph.node_count() == 3 && p.support == 2));
    }

    #[test]
    fn empty_db_yields_nothing() {
        let pats = GSpan::new(MinerConfig::new(1)).mine(&GraphDb::new());
        assert!(pats.is_empty());
    }

    #[test]
    fn parallel_output_identical_to_sequential() {
        let db = tiny_db();
        for support in [1, 2, 3] {
            let seq = GSpan::new(MinerConfig::new(support)).mine(&db);
            for threads in [0, 2, 4, 8] {
                let par = GSpan::new(MinerConfig::new(support).with_threads(threads)).mine(&db);
                assert_eq!(seq.len(), par.len(), "support={support} threads={threads}");
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.code, b.code, "support={support} threads={threads}");
                    assert_eq!(a.support, b.support);
                    assert_eq!(a.gids, b.gids);
                }
            }
        }
    }

    #[test]
    fn parallel_respects_max_patterns_cap() {
        let db = tiny_db();
        for cap in 1..=4 {
            let seq = GSpan::new(MinerConfig::new(1).with_max_patterns(cap)).mine(&db);
            let par =
                GSpan::new(MinerConfig::new(1).with_max_patterns(cap).with_threads(4)).mine(&db);
            assert_eq!(seq.len(), cap.min(seq.len()));
            assert_eq!(seq.len(), par.len(), "cap={cap}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.code, b.code, "cap={cap}");
                assert_eq!(a.gids, b.gids, "cap={cap}");
            }
        }
    }

    #[test]
    fn prebuilt_index_matches_fresh_mine() {
        let db = tiny_db();
        let index = LabelPairIndex::build(&db);
        let miner = GSpan::new(MinerConfig::new(1));
        let fresh = miner.mine(&db);
        let indexed = miner.mine_indexed(&db, &index);
        assert_eq!(fresh.len(), indexed.len());
        for (a, b) in fresh.iter().zip(&indexed) {
            assert_eq!(a.code, b.code);
            assert_eq!(a.gids, b.gids);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_support_rejected() {
        GSpan::new(MinerConfig::new(0));
    }

    #[test]
    fn unbudgeted_outcome_is_complete_and_matches_mine() {
        let db = tiny_db();
        let miner = GSpan::new(MinerConfig::new(1));
        let out = miner.mine_outcome(&db);
        assert_eq!(out.completion, Completion::Complete);
        let plain = miner.mine(&db);
        assert_eq!(out.result.len(), plain.len());
        for (a, b) in out.result.iter().zip(&plain) {
            assert_eq!(a.code, b.code);
        }
    }

    #[test]
    fn pattern_cap_reports_truncation() {
        let db = tiny_db();
        let out = GSpan::new(MinerConfig::new(1).with_max_patterns(2)).mine_outcome(&db);
        assert_eq!(out.result.len(), 2);
        assert_eq!(
            out.completion,
            Completion::Truncated(StopReason::PatternCap)
        );
    }

    #[test]
    fn step_budget_truncation_is_identical_across_thread_counts() {
        let db = tiny_db();
        for max_steps in [0u64, 1, 2, 5, 100] {
            let run = |threads: usize| {
                GSpan::new(
                    MinerConfig::new(1)
                        .with_threads(threads)
                        .with_budget(Budget::unlimited().with_max_steps(max_steps)),
                )
                .mine_outcome(&db)
            };
            let seq = run(1);
            for threads in [2, 4, 8] {
                let par = run(threads);
                assert_eq!(
                    seq.completion, par.completion,
                    "max_steps={max_steps} threads={threads}"
                );
                assert_eq!(seq.result.len(), par.result.len());
                for (a, b) in seq.result.iter().zip(&par.result) {
                    assert_eq!(a.code, b.code, "max_steps={max_steps} threads={threads}");
                    assert_eq!(a.gids, b.gids);
                }
            }
        }
        // A zero allowance mines nothing, but reports it honestly.
        let zero =
            GSpan::new(MinerConfig::new(1).with_budget(Budget::unlimited().with_max_steps(0)))
                .mine_outcome(&db);
        assert!(zero.result.is_empty());
        assert_eq!(
            zero.completion,
            Completion::Truncated(StopReason::StepBudget)
        );
    }

    #[test]
    fn expired_deadline_yields_truncated_outcome() {
        let db = tiny_db();
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let out = GSpan::new(MinerConfig::new(1).with_budget(budget)).mine_outcome(&db);
        assert!(out.result.is_empty());
        assert_eq!(out.completion, Completion::Truncated(StopReason::Deadline));
    }

    #[test]
    fn cancelled_token_yields_truncated_outcome() {
        let db = tiny_db();
        let token = graphsig_graph::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let out = GSpan::new(MinerConfig::new(1).with_budget(budget)).mine_outcome(&db);
        assert!(out.result.is_empty());
        assert_eq!(out.completion, Completion::Truncated(StopReason::Cancelled));
    }
}
